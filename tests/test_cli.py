"""Command-line front end: exit codes, artifact files, reproducibility headers."""

import argparse
import filecmp
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc

import pytest

import helpers
from floworder import (
    TandemParams,
    __version__,
    build_balanced_tandem,
    build_original_tandem,
    model_digest,
    serialize_model,
)
from floworder import cli
from floworder.cli import main
from floworder.model import ModelError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(autouse=True)
def _no_out_env(monkeypatch):
    monkeypatch.delenv("FLOWORDER_OUT", raising=False)


def read_csv_body(path):
    """Rows after the leading comment header, split into header row + data rows."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    comments = [ln for ln in lines if ln.startswith("# ")]
    body = [ln for ln in lines if ln and not ln.startswith("# ")]
    return comments, body[0], body[1:]


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc) if isinstance(doc, dict) else doc)
    return str(path)


def test_check_tandem_pair_passes(tmp_path, capsys):
    rc = main(["check", "--family", "tandem-pair", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "flow conditions: pass" in out
    body = json.loads((tmp_path / "check_flow.json").read_text())
    assert body["verdict"] == "pass"
    header = body["header"]
    assert header["tool"] == "floworder"
    assert header["version"] == __version__
    assert header["command"] == "check"
    assert header["seed"] == 0
    assert header["tol"] == 1e-8
    params = TandemParams.linear(2, 2, 1.0)
    assert header["models"]["a"] == model_digest(build_balanced_tandem(params))
    assert header["models"]["b"] == model_digest(build_original_tandem(params))
    pop = json.loads((tmp_path / "check_population.json").read_text())
    assert pop["verdict"] == "fail"


def test_check_decreasing_table_fails(tmp_path, capsys):
    rc = main(
        ["check", "--family", "tandem-pair", "--delta2", "0,2,1", "--out", str(tmp_path)]
    )
    assert rc == 1
    body = json.loads((tmp_path / "check_flow.json").read_text())
    assert body["verdict"] == "fail"
    assert any(c["witnesses"] for c in body["conditions"])


def test_check_single_model_is_usage_error(tmp_path, capsys):
    doc = write_doc(tmp_path, "orig.json", helpers.tandem_doc_text(2, 2, 1.0))
    rc = main(["check", "--model-a", doc, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("floworder: ")


def test_check_rejects_model_path_plus_family(tmp_path, capsys):
    doc = write_doc(tmp_path, "orig.json", helpers.tandem_doc_text(2, 2, 1.0))
    rc = main(
        ["check", "--model-a", doc, "--family", "tandem-pair", "--out", str(tmp_path)]
    )
    assert rc == 2
    assert "not both" in capsys.readouterr().err


def test_check_single_member_family_is_usage_error(tmp_path, capsys):
    rc = main(["check", "--family", "tandem-original", "--out", str(tmp_path)])
    assert rc == 2
    assert "tandem-pair" in capsys.readouterr().err


def test_model_files_reproduce_family_reports(tmp_path, capsys):
    """Loading the pair from canonical files gives byte-identical reports."""
    params = TandemParams.linear(2, 2, 1.0)
    path_a = write_doc(tmp_path, "bal.json", serialize_model(build_balanced_tandem(params)))
    path_b = write_doc(tmp_path, "orig.json", serialize_model(build_original_tandem(params)))
    out_files = tmp_path / "by_file"
    out_family = tmp_path / "by_family"
    assert main(["check", "--model-a", path_a, "--model-b", path_b, "--out", str(out_files)]) == 0
    assert main(["check", "--family", "tandem-pair", "--out", str(out_family)]) == 0
    for name in ("check_flow.json", "check_population.json"):
        assert (out_files / name).read_bytes() == (out_family / name).read_bytes()


def test_check_csv_format(tmp_path, capsys):
    rc = main(
        ["check", "--family", "tandem-pair", "--format", "csv", "--out", str(tmp_path)]
    )
    assert rc == 0
    comments, header_row, rows = read_csv_body(tmp_path / "check_flow.csv")
    assert "# command: check" in comments
    assert any(c.startswith("# models.a: ") for c in comments)
    assert any(c.startswith("# models.b: ") for c in comments)
    assert "# seed: 0" in comments
    assert header_row == "condition,passed,part,state_a,state_b,rate_a,rate_b"
    conditions = {r.split(",")[0] for r in rows}
    assert conditions == {"flow-link-0", "flow-link-1", "flow-link-2"}
    assert all(r.split(",")[1] == "True" for r in rows)


def test_transient_tandem_pair_margins(tmp_path, capsys):
    rc = main(
        ["transient", "--family", "tandem-pair", "--grid", "0:20:20", "--out", str(tmp_path)]
    )
    assert rc == 0
    comments, header_row, rows = read_csv_body(tmp_path / "transient.csv")
    assert header_row == "time,mean_a,mean_b,margin"
    assert len(rows) == 21
    margins = [float(r.split(",")[3]) for r in rows]
    assert margins[0] == 0.0
    assert all(m >= -1e-8 for m in margins)
    body = json.loads((tmp_path / "transient.json").read_text())
    assert body["verdict"] == "pass"
    assert len(body["margins"]) == 21
    assert all(m["margin"] >= -1e-8 for m in body["margins"])


def test_transient_swapped_pair_fails(tmp_path, capsys):
    params = TandemParams.linear(2, 2, 1.0)
    path_a = write_doc(tmp_path, "orig.json", serialize_model(build_original_tandem(params)))
    path_b = write_doc(tmp_path, "bal.json", serialize_model(build_balanced_tandem(params)))
    rc = main(
        [
            "transient",
            "--model-a", path_a,
            "--model-b", path_b,
            "--grid", "0:5:5",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 1
    body = json.loads((tmp_path / "transient.json").read_text())
    assert min(m["margin"] for m in body["margins"]) < -1e-8


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
def test_transient_swapped_pair_rejects_tolerances_that_decide_nothing(tol, tmp_path, capsys):
    """`--tol inf` would pass the swapped pair, `nan` fail every pair, `-1` demand margins >= 1."""
    params = TandemParams.linear(2, 2, 1.0)
    path_a = write_doc(tmp_path, "orig.json", serialize_model(build_original_tandem(params)))
    path_b = write_doc(tmp_path, "bal.json", serialize_model(build_balanced_tandem(params)))
    out = tmp_path / "out"
    rc = main(
        [
            "transient",
            "--model-a", path_a,
            "--model-b", path_b,
            "--grid", "0:5:5",
            f"--tol={tol}",
            "--out", str(out),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "floworder: --tol must be finite and nonnegative\n"
    assert not out.exists()


@pytest.mark.xfail(
    strict=True,
    reason="transient passes a margin above -tol even when it is below the means' error "
    "bounds (ROADMAP item 3)",
)
def test_transient_fails_a_pair_in_which_a_out_serves_b(tmp_path, capsys):
    """A's arrival rate exceeds B's by eps = 1e-10 wherever it is positive, so A
    out-serves B: `check` fails the pair, and every positive-time margin, near
    -1e-9 at t = 10, lies beyond the means' truncation bounds of 1e-10 each."""

    def doc(arrival, params):
        rates = {"0->1": f"{arrival} * ind(x1 < 3)", "1->0": "x1"}
        return {"n": 1, "space": {"box": [3]}, "params": params, "rates": rates}

    path_a = write_doc(tmp_path, "a.json", doc("(lam + eps)", {"lam": 0.3, "eps": 1e-10}))
    path_b = write_doc(tmp_path, "b.json", doc("lam", {"lam": 0.3}))
    pair = ["--model-a", path_a, "--model-b", path_b]
    assert main(["check"] + pair + ["--out", str(tmp_path / "check")]) == 1
    argv = ["transient"] + pair + ["--grid", "0:10:10", "--out", str(tmp_path / "transient")]
    assert main(argv) == 1


@pytest.mark.xfail(
    strict=True,
    reason="rates are compared as evaluated doubles, and 0.3 + 1e-17 rounds to 0.3 "
    "(ROADMAP item 2)",
)
def test_check_and_verify_fail_a_pair_whose_exact_rates_break_the_order(tmp_path, capsys):
    """A's arrival rate exceeds B's by eps = 1e-17 wherever it is positive, so in
    exact arithmetic over the document's doubles the arrival condition fails and
    the relation is not closed; as evaluated doubles the two rates are equal."""

    def doc(arrival, params):
        rates = {"0->1": f"{arrival} * ind(x1 < 3)", "1->0": "x1"}
        return {"n": 1, "space": {"box": [3]}, "params": params, "rates": rates}

    path_a = write_doc(tmp_path, "a.json", doc("(lam + eps)", {"lam": 0.3, "eps": 1e-17}))
    path_b = write_doc(tmp_path, "b.json", doc("lam", {"lam": 0.3}))
    pair = ["--model-a", path_a, "--model-b", path_b]
    assert main(["check"] + pair + ["--out", str(tmp_path / "check")]) == 1
    assert main(["verify"] + pair + ["--out", str(tmp_path / "verify")]) == 1


def test_transient_overflowing_poisson_mean_is_one_error_line(tmp_path, capsys):
    """beta = 1e308 makes Lambda * t overflow to infinity: exit 2, no traceback."""
    out = tmp_path / "out"
    argv = ["transient", "--family", "tandem-pair", "--beta", "1e308", "--grid", "0:10:1"]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "floworder: Poisson mean Lambda*t = inf is not finite; no truncation depth\n"
    assert not out.exists()


def test_transient_poisson_depth_above_the_limit_is_one_error_line(tmp_path, capsys):
    """beta = 1e20 at t = 10 asks for a depth near 1e21: exit 2 before any
    weight array is laid out, not a numpy size error."""
    out = tmp_path / "out"
    argv = ["transient", "--family", "tandem-pair", "--beta", "1e20", "--grid", "0:10:1"]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("floworder: Poisson mean Lambda*t = 1e+21 needs truncation depth ")
    assert err.endswith(", above the limit 1000000\n") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["check", "verify", "couple", "simulate", "solve", "sweep"])
def test_every_command_rejects_nan_tolerance(command, tmp_path, capsys):
    family = {"simulate": "tandem-original", "solve": "tandem-original"}.get(command, "tandem-pair")
    argv = [command, "--tol", "nan", "--out", str(tmp_path)]
    if command != "sweep":
        argv += ["--family", family]
    assert main(argv) == 2
    assert capsys.readouterr().err == "floworder: --tol must be finite and nonnegative\n"
    assert not os.listdir(tmp_path)


def test_solve_original_tandem(tmp_path, capsys):
    rc = main(["solve", "--family", "tandem-original", "--out", str(tmp_path)])
    assert rc == 0
    body = json.loads((tmp_path / "solve.json").read_text())
    thr = body["throughput"]
    assert set(thr) == {"0->1", "1->2", "2->0"}
    assert thr["0->1"] == pytest.approx(0.7539118065433716, abs=1e-9)
    # stationary flow balance equalizes all link throughputs
    assert thr["1->2"] == pytest.approx(thr["0->1"], abs=1e-9)
    assert thr["2->0"] == pytest.approx(thr["0->1"], abs=1e-9)
    # every arrival is either accepted or lost
    assert body["loss_rate"] + thr["0->1"] == pytest.approx(1.0, abs=1e-9)
    comments, header_row, rows = read_csv_body(tmp_path / "stationary.csv")
    assert header_row == "state,probability"
    assert len(rows) == 9
    total = sum(float(r.split(",")[1]) for r in rows)
    assert total == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--family", "tandem-original", "--beta", "1e6", "--s1", "3", "--s2", "3"],
        ["solve", "--family", "tandem-balanced", "--beta", "1e6", "--s1", "3", "--s2", "3"],
        ["sweep", "--betas", "1e6", "--sizes", "2"],
    ],
    ids=["solve-original", "solve-balanced", "sweep"],
)
def test_loss_rate_accounting_holds_at_large_beta(argv, tmp_path, capsys):
    """The two loss-rate routes round at the scale of beta, so they agree to
    within 1e-10 * beta here rather than to 1e-10."""
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv, field",
    [
        (["check", "--family", "tandem-pair", "--beta", "nan"], "beta"),
        (["check", "--family", "tandem-pair", "--delta1", "0,1,nan"], "delta1"),
        (["solve", "--family", "tandem-original", "--delta2", "0,inf,1"], "delta2"),
        (["sweep", "--betas", "inf"], "beta"),
    ],
    ids=["beta-nan", "delta1-nan", "delta2-inf", "sweep-beta-inf"],
)
def test_non_finite_tandem_parameters_exit_two_naming_the_field(argv, field, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"floworder: {field} must be nonnegative and finite")
    assert err.count("\n") == 1
    assert not os.listdir(tmp_path)


def test_solve_without_beta_omits_loss(tmp_path, capsys):
    doc = helpers.single_node_doc("ind(x1 < 2)", "x1", 2)
    path = write_doc(tmp_path, "mm1.json", doc)
    rc = main(["solve", "--model-a", path, "--out", str(tmp_path)])
    assert rc == 0
    body = json.loads((tmp_path / "solve.json").read_text())
    assert "loss_rate" not in body
    assert set(body["throughput"]) == {"0->1", "1->0"}


def test_solve_omits_loss_where_arrivals_are_not_beta_or_zero(tmp_path, capsys):
    """Arrivals at beta / 2 have no loss-rate accounting: the field is left
    out and solve succeeds, with both report files written."""
    doc = {
        "n": 1,
        "space": {"box": [3]},
        "params": {"beta": 2.0},
        "rates": {"0->1": "0.5 * beta * ind(x1 < 3)", "1->0": "x1"},
    }
    path = write_doc(tmp_path, "half_beta.json", doc)
    rc = main(["solve", "--model-a", path, "--out", str(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().err == ""
    body = json.loads((tmp_path / "solve.json").read_text())
    assert "loss_rate" not in body
    assert set(body["throughput"]) == {"0->1", "1->0"}
    assert (tmp_path / "stationary.csv").exists()


def test_simulate_replication_files(tmp_path, capsys):
    rc = main(
        [
            "simulate",
            "--family", "tandem-original",
            "--reps", "3",
            "--horizon", "3",
            "--seed", "5",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    total = 0
    for k in range(3):
        comments, header_row, rows = read_csv_body(tmp_path / f"sim_rep{k:04d}.csv")
        assert header_row == "time,link_from,link_to,state_after"
        assert "# seed: 5" in comments
        total += len(rows)
    summary = json.loads((tmp_path / "simulate_summary.json").read_text())
    assert summary["replications"] == 3
    assert summary["events"] == total
    assert summary["initial_state"] == [0, 0]


def test_couple_summary(tmp_path, capsys):
    rc = main(
        [
            "couple",
            "--family", "tandem-pair",
            "--reps", "2",
            "--horizon", "4",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    assert (tmp_path / "couple_rep0000.csv").exists()
    assert (tmp_path / "couple_rep0001.csv").exists()
    summary = json.loads((tmp_path / "couple_summary.json").read_text())
    assert summary["verdict"] == "pass"
    assert summary["flow_order_violations"] == 0
    assert "coupled 2 replications" in capsys.readouterr().out


def test_couple_jobs_do_not_change_bytes(tmp_path, capsys):
    """Replication parallelism must leave every artifact byte-identical."""
    args = ["couple", "--family", "tandem-pair", "--reps", "4", "--horizon", "2",
            "--seed", "7"]
    out1, out2 = tmp_path / "j1", tmp_path / "j2"
    assert main(args + ["--jobs", "1", "--out", str(out1)]) == 0
    assert main(args + ["--jobs", "2", "--out", str(out2)]) == 0
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    for name in names:
        assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name


def test_simulate_jobs_do_not_change_bytes(tmp_path, capsys):
    """Replication parallelism must leave every artifact byte-identical."""
    args = ["simulate", "--family", "tandem-original", "--reps", "4", "--horizon", "5",
            "--seed", "7"]
    out1, out2 = tmp_path / "j1", tmp_path / "j2"
    assert main(args + ["--jobs", "1", "--out", str(out1)]) == 0
    assert main(args + ["--jobs", "2", "--out", str(out2)]) == 0
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    for name in names:
        assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize(
    "command, family", [("couple", "tandem-pair"), ("simulate", "tandem-original")]
)
def test_initial_state_outside_the_space_leaves_no_output_directory(
    command, family, jobs, tmp_path, capsys
):
    """--init is checked against the spaces before the output directory is made."""
    out = tmp_path / "out"
    argv = [command, "--family", family, "--reps", "2", "--init", "9;9", "--jobs", jobs]
    assert main(argv + ["--out", str(out)]) == 2
    assert "initial state (9, 9) not in the" in capsys.readouterr().err
    assert not out.exists()


def test_couple_link_family_mismatch_leaves_no_output_directory(tmp_path, capsys):
    one_node = helpers.single_node_doc("ind(x1 < 1)", "x1", 1)
    reversed_links = dict(one_node, links=[[1, 0], [0, 1]])
    path_a = write_doc(tmp_path, "a.json", one_node)
    path_b = write_doc(tmp_path, "b.json", reversed_links)
    out = tmp_path / "out"
    argv = ["couple", "--model-a", path_a, "--model-b", path_b, "--out", str(out)]
    assert main(argv) == 2
    assert "share the link family" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, family", [("couple", "tandem-pair"), ("simulate", "tandem-original")]
)
def test_event_command_memory_grows_by_the_live_columns_only(command, family, tmp_path, capsys):
    """Each replication writes its CSV in blocks as it ends, so an extra event
    costs the live replication's three columns (24 bytes) and no report text.
    Holding every replication's text to the end cost 218 bytes an event for
    couple and 105 for simulate on this workload."""

    def traced_peak(horizon):
        out = tmp_path / str(horizon)
        argv = [command, "--family", family, "--s1", "10", "--s2", "10", "--beta", "10",
                "--reps", "2", "--horizon", str(horizon), "--out", str(out)]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, json.loads((out / f"{command}_summary.json").read_text())["events"]

    peak_short, events_short = traced_peak(1000)
    peak_long, events_long = traced_peak(8000)
    assert events_long - events_short > 250_000
    assert (peak_long - peak_short) / (events_long - events_short) <= 40


def test_couple_worker_counts_violations_without_listing_them(tmp_path):
    """A reversed pair (A original, B balanced) breaks the flow order on
    about three links an event. The worker counts those violations without a
    (time, link) pair each, so its peak stays near the ordered pair's; listing
    them (275,459 pairs here) made it 5.5 times the ordered pair's."""
    params = TandemParams.linear(10, 10, 10.0)
    balanced, original = build_balanced_tandem(params), build_original_tandem(params)

    def traced_worker(spec_a, spec_b, name):
        task = (str(tmp_path / name), {}, spec_a, spec_b, (0, 0), 4000.0, 1)
        tracemalloc.start()
        try:
            events, violations = cli._couple_worker(task)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, violations

    ordered_peak, ordered_violations = traced_worker(balanced, original, "ordered.csv")
    reversed_peak, reversed_violations = traced_worker(original, balanced, "reversed.csv")
    assert ordered_violations == 0 and reversed_violations > 200_000
    assert reversed_peak <= 1.5 * ordered_peak
    log = cli.simulate_coupled(original, balanced, (0, 0), (0, 0), 4000.0, 1)
    assert reversed_violations == len(cli.pathwise_flow_order_check(log))


class RecordingPool:
    """A stand-in for ProcessPoolExecutor that records its size and maps serially."""

    sizes = []

    def __init__(self, max_workers=None):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable):
        return map(fn, iterable)


@pytest.mark.parametrize("command", ["couple", "simulate"])
def test_jobs_pool_is_no_larger_than_the_replications(command, tmp_path, capsys, monkeypatch):
    import concurrent.futures
    import multiprocessing

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    family = "tandem-pair" if command == "couple" else "tandem-original"
    base = [command, "--family", family, "--horizon", "2", "--seed", "3"]
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    assert main(base + ["--reps", "3", "--jobs", "64", "--out", str(pooled)]) == 0
    assert RecordingPool.sizes == [3]
    assert main(base + ["--reps", "1", "--jobs", "64", "--out", str(tmp_path / "one")]) == 0
    assert RecordingPool.sizes == [3]  # one replication runs in this process
    assert not multiprocessing.active_children()
    assert main(base + ["--reps", "3", "--out", str(serial)]) == 0
    names = sorted(os.listdir(serial))
    assert names == sorted(os.listdir(pooled))
    for name in names:
        assert filecmp.cmp(serial / name, pooled / name, shallow=False), name


def test_couple_base_seeds_share_no_replication_path(tmp_path, capsys):
    args = ["couple", "--family", "tandem-pair", "--reps", "4", "--horizon", "20"]
    bodies = {}
    for seed in ("0", "1"):
        out = tmp_path / seed
        assert main(args + ["--seed", seed, "--out", str(out)]) == 0
        bodies[seed] = {
            tuple(read_csv_body(out / f"couple_rep{k:04d}.csv")[2]) for k in range(4)
        }
    assert len(bodies["0"]) == len(bodies["1"]) == 4
    assert not bodies["0"] & bodies["1"]


def test_identical_config_reruns_byte_identical(tmp_path, capsys):
    for cmd in (
        ["check", "--family", "tandem-pair"],
        ["couple", "--family", "tandem-pair", "--reps", "2", "--horizon", "3", "--seed", "11"],
        ["solve", "--family", "tandem-balanced"],
    ):
        out1 = tmp_path / (cmd[0] + "_run1")
        out2 = tmp_path / (cmd[0] + "_run2")
        assert main(cmd + ["--out", str(out1)]) in (0, 1)
        assert main(cmd + ["--out", str(out2)]) in (0, 1)
        for name in sorted(os.listdir(out1)):
            assert filecmp.cmp(out1 / name, out2 / name, shallow=False), (cmd[0], name)


GOLDEN_DIGESTS = {
    "couple --family tandem-pair --reps 2 --horizon 20 --seed 7": {
        "couple_rep0000.csv": "cc1dc3998d5145ffa7e88074f351a1a23beafb9dff21de76d9b183bc4da4dd35",
        "couple_rep0001.csv": "83e6b9425f6acbb04ca9f71a46f11dd961e564438a717a98a970103591e0fbf5",
        "couple_summary.json": "ee7c1c22ea57b8330c9c79fe52f6442776ecb3023b2f27c4e7b8929ab17d4841",
    },
    "simulate --family tandem-original --s1 3 --s2 3 --beta 2 --reps 2 --horizon 50 --seed 7": {
        "sim_rep0000.csv": "3945b335bb9095cdbea8f967b074fec716d7c7633027c547fea85c3d38ecedaf",
        "sim_rep0001.csv": "c2460acc428e630793a63e3abfab1c1cc31a10ad603c4e90e3c9ebc61466ef6e",
        "simulate_summary.json": "491b01f5671f5d9b2a9fdff879f279a4a8215ce3b6b9f9dbb0ff4bcc66ece29b",
    },
    "check --family tandem-pair --delta1 0,3,1 --delta2 0,1,3 --all-witnesses --format csv": {
        "check_flow.csv": "07ffc14a5ef37bb5c14665212de9b2df692fd328ba02d54244fd47f66c72accb",
        "check_population.csv": "9b6d48b4da8da921121200f2bc18f03a4907a5e2c1f0fbebcf00a49e469f743e",
    },
    "verify --family tandem-pair --delta1 0,3,1 --delta2 0,1,3": {
        "closure.json": "4255c25e1fdb3e62dcf36007479d76c1ffa5833b198ac1600b392e589246290d",
    },
    "solve --family tandem-original --s1 3 --s2 3 --beta 2": {
        "solve.json": "b1818b484743b343038214a794c31b85090da859c09b53ac5c52a77c5c98abb5",
        "stationary.csv": "e58d9e8e41ae265f5bcabe9e28509b8c917e727d44dce98dcfedf19933379d73",
    },
    "sweep --betas 0.001,1,10000 --sizes 1,5": {
        "sweep.csv": "e1891790b712094f2f70d7a401344b94901a78c21b2cf16848a3fc19bfcf9f48",
    },
    "transient --family tandem-pair --s1 3 --s2 3 --beta 3 --grid 0:4:2": {
        "transient.csv": "c133c928239c92d4096d306c3039c818b12469a4ecd253bade8496cfbd2de841",
        "transient.json": "6aa846337bd0097805062f13512ea91e7a948830e24dd6e6a05955dcb921ab8f",
    },
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_DIGESTS), ids=lambda argv: argv.split()[0])
def test_report_digests_pinned(argv, tmp_path, capsys):
    """Seeded paths, draw order and number formatting, pinned byte for byte."""
    assert main(argv.split() + ["--out", str(tmp_path)]) in (0, 1)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in os.listdir(tmp_path)
    }
    assert digests == GOLDEN_DIGESTS[argv]


def test_reused_parser_keeps_no_state_between_calls(tmp_path, capsys):
    """One process, one parser: a call with non-default flags, then the pinned
    invocations in reverse order, must reproduce every pinned digest."""
    first = ["check", "--family", "tandem-pair", "--all-witnesses", "--format", "csv"]
    assert main(first + ["--out", str(tmp_path / "first")]) in (0, 1)
    for k, argv in enumerate(sorted(GOLDEN_DIGESTS, reverse=True)):
        out = tmp_path / f"run{k}"
        assert main(argv.split() + ["--out", str(out)]) in (0, 1)
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in os.listdir(out)
        }
        assert digests == GOLDEN_DIGESTS[argv], argv


# couple on the s=2, beta=1 tandems swapped (original as model A), which
# are not closed: the flow-order violations are counted and reported.
NOT_CLOSED_COUPLE_DIGESTS = {
    "couple_rep0000.csv": "c1959f3c9a95a7af8d78d48070bbd7984f545f264510fc2f438e0358abf5d101",
    "couple_rep0001.csv": "91c75b3afcc3024fc0fc487286916329cb4d317f426183a32aecc26359dd3208",
    "couple_summary.json": "c18fa5d744d91afec2d102d6b827a5aeb6b22c8a58b97abea79c9808c522a2be",
}


def test_couple_digests_pinned_on_a_pair_that_is_not_closed(tmp_path, capsys):
    params = TandemParams.linear(2, 2, 1.0)
    path_a = write_doc(tmp_path, "original.json", serialize_model(build_original_tandem(params)))
    path_b = write_doc(tmp_path, "balanced.json", serialize_model(build_balanced_tandem(params)))
    out = tmp_path / "out"
    argv = ["couple", "--model-a", path_a, "--model-b", path_b, "--reps", "2", "--horizon", "20"]
    rc = main(argv + ["--seed", "7", "--out", str(out)])
    assert rc == 1
    summary = json.loads((out / "couple_summary.json").read_text())
    assert (summary["events"], summary["flow_order_violations"]) == (82, 67)
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in os.listdir(out)
    }
    assert digests == NOT_CLOSED_COUPLE_DIGESTS


def test_verify_tandem_pair_closed(tmp_path, capsys):
    rc = main(["verify", "--family", "tandem-pair", "--out", str(tmp_path)])
    assert rc == 0
    body = json.loads((tmp_path / "closure.json").read_text())
    assert body["closed"] is True
    assert body["checked"] == 109
    assert "closed (109 tight configurations)" in capsys.readouterr().out


def test_verify_unordered_pair_exits_one(tmp_path, capsys):
    fast = helpers.single_node_doc("2", "x1", 2, clamp=True)
    slow = helpers.single_node_doc("1", "x1", 2, clamp=True)
    path_a = write_doc(tmp_path, "fast.json", fast)
    path_b = write_doc(tmp_path, "slow.json", slow)
    rc = main(["verify", "--model-a", path_a, "--model-b", path_b, "--out", str(tmp_path)])
    assert rc == 1
    body = json.loads((tmp_path / "closure.json").read_text())
    assert body["closed"] is False
    assert body["witnesses"]


def test_sweep_small_grid(tmp_path, capsys):
    rc = main(["sweep", "--betas", "1", "--sizes", "1,2", "--out", str(tmp_path)])
    assert rc == 0
    comments, header_row, rows = read_csv_body(tmp_path / "sweep.csv")
    assert header_row == (
        "beta,s1,s2,throughput_balanced,throughput_original,"
        "loss_balanced,loss_original,margin"
    )
    assert len(rows) == 2
    for row in rows:
        beta, s1, s2, thr_b, thr_o, loss_b, loss_o, margin = row.split(",")
        assert float(margin) == pytest.approx(float(thr_o) - float(thr_b), abs=1e-12)
        assert float(margin) >= -1e-10
        assert float(thr_b) + float(loss_b) == pytest.approx(float(beta), abs=1e-10)
        assert float(thr_o) + float(loss_o) == pytest.approx(float(beta), abs=1e-10)


def test_out_dir_from_environment(tmp_path, capsys, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv("FLOWORDER_OUT", str(target))
    rc = main(["verify", "--family", "tandem-pair"])
    assert rc == 0
    assert (target / "closure.json").exists()


def test_malformed_flag_values_exit_two(tmp_path, capsys):
    base = ["transient", "--family", "tandem-pair", "--out", str(tmp_path)]
    assert main(base + ["--grid", "0:10"]) == 2
    assert main(base + ["--grid", "5:1:3"]) == 2
    assert main(base + ["--link", "0-1"]) == 2
    assert main(base + ["--init", "a;b"]) == 2
    errs = capsys.readouterr().err.splitlines()
    assert all(e.startswith("floworder: ") for e in errs if e)


def test_grid_steps_stop_at_the_poisson_depth_limit():
    """A grid may have as many steps as the Poisson depth limit, and one
    more is refused before its times are made."""
    assert len(cli._parse_grid("0:1:1000000")) == 1_000_001
    with pytest.raises(cli.UsageError, match="^--grid allows at most 1000000 steps$"):
        cli._parse_grid("0:1:1000001")


@pytest.mark.parametrize(
    "argv",
    [
        ["couple", "--family", "tandem-pair", "--seed", "-1"],
        ["simulate", "--family", "tandem-original", "--seed", "-1"],
        ["simulate", "--family", "tandem-original", "--horizon", "-1"],
        ["couple", "--family", "tandem-pair", "--horizon", "-1"],
        ["transient", "--family", "tandem-pair", "--grid", "nan:1:1"],
        ["transient", "--family", "tandem-pair", "--grid", "0:inf:1"],
        ["transient", "--family", "tandem-pair", "--grid=-1:1:2"],
        ["transient", "--family", "tandem-pair", "--grid", "0:1:100000000000"],
        ["simulate", "--family", "tandem-original", "--reps", "-3"],
        ["couple", "--family", "tandem-pair", "--jobs", "0"],
        ["couple", "--family", "tandem-pair", "--jobs", "-1"],
        ["simulate", "--family", "tandem-original", "--jobs", "0"],
        ["simulate", "--family", "tandem-original", "--jobs", "-1"],
    ],
)
def test_out_of_range_values_exit_two(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("floworder: ") and err.count("\n") == 1
    assert not os.listdir(tmp_path)


def test_solve_zero_tolerance_exits_two(tmp_path, capsys):
    rc = main(["solve", "--family", "tandem-original", "--tol", "0", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("floworder: stationary residual ")
    assert "above tolerance 0" in err


def test_solve_failure_leaves_no_partial_report_set(tmp_path, capsys, monkeypatch):
    """solve computes every figure before it writes a file."""
    from floworder import cli

    def refuse(spec, pi):
        raise ModelError("loss rate refused")

    monkeypatch.setattr(cli, "loss_rate", refuse)
    rc = main(["solve", "--family", "tandem-original", "--out", str(tmp_path)])
    assert rc == 2
    assert "loss rate refused" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "error, line",
    [
        (MemoryError(), "floworder: out of memory\n"),
        (MemoryError("Unable to allocate 412. MiB"), "floworder: Unable to allocate 412. MiB\n"),
    ],
    ids=["bare", "numpy"],
)
def test_out_of_memory_exits_two_with_one_line(error, line, tmp_path, capsys, monkeypatch):
    """Running out of memory is an error of the run, not a failed verdict:
    one line and exit 2, with no report written."""

    def exhaust(spec_a, spec_b):
        raise error

    monkeypatch.setattr(cli, "verify_tight_configurations", exhaust)
    rc = main(["verify", "--family", "tandem-pair", "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == line
    assert os.listdir(tmp_path) == []


def test_missing_model_file_exits_two(tmp_path, capsys):
    rc = main(["solve", "--model-a", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == 2
    assert "floworder: " in capsys.readouterr().err


def test_every_option_is_read_by_the_cli():
    """The parser is the CLI's only config: an option whose dest cli.py never
    reads as config.<dest> would be a dead knob with a default nobody uses."""
    from floworder import cli

    with open(cli.__file__, encoding="utf-8") as fh:
        source = fh.read()
    subparsers = cli._PARSER._subparsers._group_actions[0].choices
    dests = {
        action.dest
        for parser in subparsers.values()
        for action in parser._actions
        if action.default is not argparse.SUPPRESS  # --help sets no dest
    }
    assert dests >= {"model_a", "fmt", "all_witnesses", "betas", "sizes"}
    unread = sorted(d for d in dests if not re.search(rf"\bconfig\.{d}\b", source))
    assert unread == []


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == f"floworder {__version__}"


def test_missing_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_console_script_installed(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "floworder", "verify", "--family", "tandem-pair",
         "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "closed" in proc.stdout


_SCIPY_PROBE = """
import json, sys, tempfile
from floworder import cli
seen = {"import": "scipy" in sys.modules}
with tempfile.TemporaryDirectory() as out:
    for argv in (
        ["check", "--family", "tandem-pair"],
        ["verify", "--family", "tandem-pair"],
        ["couple", "--family", "tandem-pair", "--reps", "2", "--horizon", "2"],
        ["simulate", "--family", "tandem-original", "--reps", "2", "--horizon", "2"],
        ["solve", "--family", "tandem-original"],
    ):
        assert cli.main(argv + ["--out", out]) in (0, 1), argv
        seen[argv[0]] = "scipy" in sys.modules
print(json.dumps(seen))
"""


def test_only_the_sparse_solvers_load_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE], capture_output=True, text=True, check=True
    )
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {
        "import": False,
        "check": False,
        "verify": False,
        "couple": False,
        "simulate": False,
        "solve": True,
    }


# sha256 of `floworder [command] --help` at 80 columns. argparse's layout
# differs between Python minor versions; these are taken under 3.11.
HELP_DIGESTS = {
    None: "1819541697b08133fc831f7065022201509604c1c2d01ec35ed96ee77e61e0e5",
    "check": "c3269fd3eb5d9653b9f705a2c083dd6bdd32b5a93943211721c31acf5ad27fb9",
    "verify": "1e3b1f1b3fc57dc58fa0076034714c1f0ac390d3ad17510766e280159f634889",
    "couple": "584c07a4de59abc33be23edae329265b52e7c2cbbee25a8d1a41259a18167bb7",
    "simulate": "25c2ed47f98283459a288476c84d2e3b818eef278932a887566c2f2d0b6fb245",
    "solve": "13f8002e90feb911cffefbda7d09c381d7e5291b013dec55e349b00c0c98b9ca",
    "transient": "dae1a8ec2d29600973f08d397ececb5317b5db1709f73b24e25673a477f24cdd",
    "sweep": "6c4a715451dee2e6221d4d167b6ac8bff24878d8e7e9c71f63de54a15b30609b",
}


PARSE_ROUTES = [
    [], ["--help"], ["-h"], ["--version"], ["chek"], ["--s1", "3", "check"], ["check"],
    ["check", "--help"], ["sweep", "-h", "--bogus"], ["check", "--version"],
    ["check", "--bogus"], ["check", "extra", "--more"], ["check", "--", "--s1", "3"],
    ["solve", "--s1", "x"], ["verify", "--model-a"], ["check", "--family", "nope"],
    ["check", "--mod", "a.json", "--s1=4", "--s1", "5"], ["couple", "--tol", "-1e-3"],
    ["sweep", "--sizes", "1,2", "--betas", "0.5"], ["simulate", "-"],
    ["transient", "--family", "tandem-pair", "--grid", "0:1:2", "--link", "1->2"],
    ["check", "check"], ["--version", "check"], ["solve", "--grid", "0:1:1"],
    ["sweep", "--beta", "3"],  # a unique prefix of --betas
] + [[name] for name in cli._SUBPARSERS]


@pytest.mark.parametrize("argv", PARSE_ROUTES, ids=" ".join)
def test_one_pass_parse_matches_the_top_level_parser(argv, capsys):
    """Handing a command's arguments to its subparser gives the namespace,
    exit status, standard output and standard error of the top-level parser."""

    def outcome(parse):
        try:
            result = "namespace", vars(parse(list(argv)))
        except SystemExit as e:
            result = "exit", e.code
        return result, capsys.readouterr()

    assert outcome(cli._parse_args) == outcome(cli._PARSER.parse_args)


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="help layout pinned under Python 3.11")
@pytest.mark.parametrize("command", list(HELP_DIGESTS), ids=lambda c: c or "top")
def test_help_text_pinned(command):
    argv = [sys.executable, "-m", "floworder"] + ([command] if command else []) + ["--help"]
    env = dict(os.environ, COLUMNS="80")
    proc = subprocess.run(argv, capture_output=True, env=env, check=True)
    assert hashlib.sha256(proc.stdout).hexdigest() == HELP_DIGESTS[command]


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--family", "tandem-pair", "--s1", "3", "--s2", "2"],
        ["verify", "--family", "tandem-pair", "--s1", "3", "--s2", "2"],
        ["solve", "--family", "tandem-original", "--s1", "3", "--s2", "2"],
        ["sweep", "--betas", "1", "--sizes", "1,2"],
        ["transient", "--family", "tandem-pair", "--s1", "3", "--s2", "2", "--grid", "0:4:2"],
    ],
    ids=["check", "verify", "solve", "sweep", "transient"],
)
def test_commands_build_no_state_dict(argv, tmp_path, monkeypatch, capsys):
    """These commands read the rate arrays and never build a dict over the
    states; rate_table, the one such dict a spec still offers, is refused."""
    from floworder.model import NetworkSpec

    def refuse(self, link):
        raise AssertionError("a per-state dict was built")

    monkeypatch.setattr(NetworkSpec, "rate_table", refuse)
    assert main(argv + ["--out", str(tmp_path)]) in (0, 1)
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--family", "tandem-pair", "--s1", "3", "--s2", "2"],
        ["verify", "--family", "tandem-pair", "--s1", "3", "--s2", "2"],
        ["couple", "--family", "tandem-pair", "--horizon", "5"],
        ["simulate", "--family", "tandem-balanced", "--horizon", "5"],
        ["solve", "--family", "tandem-original", "--s1", "3", "--s2", "2"],
        ["transient", "--family", "tandem-pair", "--grid", "0:4:2"],
        ["sweep", "--betas", "1", "--sizes", "1,2"],
    ],
    ids=["check", "verify", "couple", "simulate", "solve", "transient", "sweep"],
)
def test_family_commands_parse_no_expression(argv, tmp_path, monkeypatch, capsys):
    """The tandem builders make their rate trees directly, so a --family
    command never parses a rate text."""
    from floworder import expr, model

    def refuse(*args):
        raise AssertionError("a rate text was parsed")

    monkeypatch.setattr(expr, "parse_expression", refuse)
    monkeypatch.setattr(model, "parse_expression", refuse)
    assert main(argv + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["couple", "--family", "tandem-pair", "--horizon", "5", "--reps", "2"],
        ["simulate", "--family", "tandem-balanced", "--horizon", "5", "--reps", "2"],
    ],
    ids=["couple", "simulate"],
)
def test_replication_commands_read_no_events_view(argv, tmp_path, monkeypatch, capsys):
    """couple and simulate count a log's events from its times column, so
    they never read a log's `events`, in this process or in a pool's
    workers, and write the same bytes as a run that may read it."""
    from floworder.coupling import PairedEventLog
    from floworder.ctmc import EventLog

    plain = tmp_path / "plain"
    assert main(argv + ["--out", str(plain)]) == 0

    def refuse(self):
        raise AssertionError("a log's events were read")

    monkeypatch.setattr(EventLog, "events", property(refuse))
    monkeypatch.setattr(PairedEventLog, "events", property(refuse))
    names = sorted(os.listdir(plain))
    for jobs in ("1", "2"):
        out = tmp_path / f"j{jobs}"
        assert main(argv + ["--jobs", jobs, "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == names
        for name in names:
            assert filecmp.cmp(plain / name, out / name, shallow=False), name
    assert " events" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, rc",
    [
        (["check", "--family", "tandem-pair", "--s1", "3", "--s2", "2"], 0),
        (
            ["check", "--family", "tandem-pair", "--s1", "4", "--s2", "4", "--beta", "2.0",
             "--delta1", "0,2,1,3,1", "--delta2", "0,1,3,1,2", "--all-witnesses"],
            1,
        ),
        (["check", "--model-a", "{original}", "--model-b", "{balanced}", "--format", "csv"], 1),
        (["verify", "--family", "tandem-pair", "--s1", "3", "--s2", "2"], 0),
        (
            ["verify", "--family", "tandem-pair", "--s1", "3", "--s2", "3", "--beta", "2.0",
             "--delta1", "0,2,1,3", "--delta2", "0,1,3,1"],
            1,
        ),
        (["verify", "--model-a", "{original}", "--model-b", "{balanced}"], 1),
        (["couple", "--family", "tandem-pair", "--s1", "3", "--s2", "2", "--reps", "2"], 0),
        (["couple", "--model-a", "{balanced}", "--model-b", "{original}", "--init", "1;1"], 0),
        (["simulate", "--family", "tandem-original", "--s1", "3", "--s2", "2", "--reps", "2"], 0),
        (["simulate", "--model-a", "{balanced}", "--init", "2;1"], 0),
        (["solve", "--family", "tandem-original", "--s1", "3", "--s2", "2"], 0),
        (["solve", "--model-a", "{balanced}"], 0),
        (["transient", "--family", "tandem-pair", "--s1", "3", "--s2", "2", "--grid", "0:4:2"], 0),
        (["sweep", "--betas", "1", "--sizes", "1,2"], 0),
    ],
    ids=[
        "check", "check-witnesses", "check-files", "verify", "verify-witnesses",
        "verify-files", "couple", "couple-files", "simulate", "simulate-file", "solve",
        "solve-file", "transient", "sweep",
    ],
)
def test_commands_make_no_state_tuples(argv, rc, tmp_path, monkeypatch, capsys):
    """These commands read a space as its coords array, witnesses, labels
    and simulated paths included, so the tuple view NetworkSpec.states is
    never read."""
    from floworder.model import NetworkSpec

    params = TandemParams.linear(3, 2, 1.5)
    builders = {"original": build_original_tandem, "balanced": build_balanced_tandem}
    files = {
        name: write_doc(tmp_path, f"{name}.json", serialize_model(build(params)))
        for name, build in builders.items()
    }

    def refuse(self):
        raise AssertionError("a state tuple was made")

    monkeypatch.setattr(NetworkSpec, "states", property(refuse))
    argv = [arg.format(**files) for arg in argv]
    assert main(argv + ["--out", str(tmp_path / "out")]) == rc
    assert capsys.readouterr().err == ""


def test_sweep_solves_at_the_tolerance_it_reports(tmp_path, capsys):
    """sweep solves at min(tol, 1e-12), as solve does: a tolerance below
    what the solver reaches exits 2 and writes no report."""
    argv = ["--tol", "1e-300", "--out", str(tmp_path)]
    assert main(["solve", "--family", "tandem-original"] + argv) == 2
    solve_err = capsys.readouterr().err
    assert main(["sweep", "--sizes", "2", "--betas", "1"] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("floworder: stationary residual ") and err.count("\n") == 1
    assert err.endswith(" above tolerance 1e-300\n")
    assert solve_err.endswith(" above tolerance 1e-300\n")
    assert not os.listdir(tmp_path)


# The options each command takes, in help order: the ones its handler reads.
HEADER = ["--seed", "--tol", "--out"]  # every report header records seed and tol
TANDEM = ["--family", "--s1", "--s2", "--beta", "--delta1", "--delta2"]
REPLICATIONS = ["--horizon", "--reps", "--jobs", "--init"]
COMMAND_OPTIONS = {
    "check": ["--model-a", "--model-b", *TANDEM, "--format", "--all-witnesses", *HEADER],
    "verify": ["--model-a", "--model-b", *TANDEM, "--format", *HEADER],
    "couple": ["--model-a", "--model-b", *TANDEM, *REPLICATIONS, *HEADER],
    "simulate": ["--model-a", *TANDEM, *REPLICATIONS, *HEADER],
    "solve": ["--model-a", *TANDEM, *HEADER],
    "transient": ["--model-a", "--model-b", *TANDEM, "--grid", "--link", "--init", *HEADER],
    "sweep": ["--betas", "--sizes", *HEADER],
}
# a well-formed value for each option
OPTION_VALUES = {
    "--model-a": ["a.json"], "--model-b": ["b.json"], "--family": ["tandem-pair"],
    "--s1": ["3"], "--s2": ["3"], "--beta": ["2"], "--delta1": ["0,1,1,1"],
    "--delta2": ["0,1,1,1"], "--seed": ["1"], "--tol": ["1e-9"], "--out": ["out"],
    "--horizon": ["5"], "--reps": ["2"], "--jobs": ["2"], "--init": ["0;0"],
    "--grid": ["0:1:1"], "--link": ["1->2"], "--format": ["csv"], "--all-witnesses": [],
    "--betas": ["1"], "--sizes": ["1"],
}
# An option that abbreviates one the command takes is read as that one
# (see PARSE_ROUTES), so it is left out of UNREAD_OPTIONS.
ABBREVIATIONS = {
    (command, option)
    for command, options in COMMAND_OPTIONS.items()
    for option in OPTION_VALUES
    if option not in options and any(o.startswith(option) for o in options)
}
UNREAD_OPTIONS = [
    (command, option)
    for command, options in COMMAND_OPTIONS.items()
    for option in OPTION_VALUES
    if option not in options and (command, option) not in ABBREVIATIONS
]


def test_each_command_takes_only_the_options_its_handler_reads():
    taken = {
        name: [s for action in sub._actions for s in action.option_strings if s != "-h"]
        for name, sub in cli._SUBPARSERS.items()
    }
    assert {name: options[1:] for name, options in taken.items()} == COMMAND_OPTIONS
    assert all(options[0] == "--help" for options in taken.values())
    assert sum(map(len, COMMAND_OPTIONS.values())) == 83
    assert set(OPTION_VALUES) == {o for options in COMMAND_OPTIONS.values() for o in options}
    assert ABBREVIATIONS == {("sweep", "--beta")}


@pytest.mark.parametrize("command, option", UNREAD_OPTIONS, ids=" ".join)
def test_an_option_the_command_does_not_read_exits_two(command, option, tmp_path, capsys):
    """An option the command would ignore is refused before anything runs."""
    base = {"simulate": ["--family", "tandem-original"], "solve": ["--family", "tandem-original"],
            "sweep": ["--betas", "1", "--sizes", "1"]}.get(command, ["--family", "tandem-pair"])
    out = tmp_path / "out"
    extra = [option, *OPTION_VALUES[option]]
    with pytest.raises(SystemExit) as exc:
        main([command, *base, *extra, "--out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"floworder: error: unrecognized arguments: {' '.join(extra)}\n")
    assert not out.exists()


def test_benchmark_and_readme_invocations_parse(monkeypatch):
    """Every invocation the benchmark workloads make, and every example in
    README.md, names only options its command takes."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    import workloads

    invocations = [
        op.argv
        for name in workloads.WORKLOADS
        for seed in range(3)
        for tiny in (False, True)
        for op in workloads.build(name, seed, tiny)
    ]
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        lines = [line for line in fh if line.startswith("floworder ")]
    examples = [shlex.split(line, comments=True)[1:] for line in lines]
    assert {argv[0] for argv in examples} == set(cli._COMMANDS)
    for argv in invocations + examples:
        assert vars(cli._parse_args(argv + ["--out", "out"]))["command"] == argv[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--family", "tandem-pair", "--s1", "10000000000"],
        ["solve", "--family", "tandem-original", "--s1", "10000000000", "--s2", "10000000000"],
    ],
    ids=["check", "solve"],
)
def test_huge_buffer_size_exits_two_under_an_address_space_limit(argv, tmp_path):
    """A box too large to allocate is refused before a default service table
    of s + 1 entries is made, so a 2 GiB address space ends in one error line
    rather than a MemoryError traceback."""
    resource = pytest.importorskip("resource")

    def limit_address_space():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "floworder", *argv, "--out", str(out)],
        capture_output=True,
        text=True,
        preexec_fn=limit_address_space,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("floworder: box of ") and proc.stderr.count("\n") == 1
    assert proc.stderr.endswith(" states is too large to allocate\n")
    assert not out.exists()
