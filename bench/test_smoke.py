"""Smoke test of the benchmark itself, on tiny instances of both workloads.

    python3 -m pytest bench/test_smoke.py -q

Each run takes a few seconds: the kept stiff `solve` is part of the tiny
tandem-large workload too.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from oracle import Tandem  # noqa: E402


def bench(*args, cwd=ROOT, check=True):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=check,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_prints_every_metric_and_runs_the_checks(workload, trace):
    lines = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--tiny").stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    expected = tracing.PER_LAYER if trace else run.END_TO_END
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [(n, u) for n, u, _ in expected]
    for name, unit, _ in expected:
        assert any(ln.split()[:1] == [name] and ln.split()[2] == unit for ln in lines), name
    n_ops = len(workloads.build(workload, 3, tiny=True))
    rounds = result["attempted"] // n_ops
    assert result["attempted"] == rounds * n_ops and rounds >= 1 + trace
    # Exactly the stiff solve fails, once per round.
    assert result["failed"] == (rounds if workload == "tandem-large" else 0)
    checked = [ln for ln in lines if ln.strip().startswith("checks:")]
    assert checked == [f"  checks: {n_ops - result['failed'] // rounds} invocations against "
                       f"independent computations, {rounds - 1} reruns byte for byte"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


def test_checks_reject_a_wrong_report(tmp_path):
    cli = run.import_floworder()
    t = Tandem.linear(3, 3, 2.0)
    solve = workloads.Op("solve", "tandem-balanced", t)
    verify = workloads.Op("verify", "tandem-pair", Tandem(2, 2, 1.0, (0.0, 3.0, 1.0), (0.0, 1.0, 1.0)))
    for op in (solve, verify):
        rc = cli.main(op.argv + ["--out", str(tmp_path / op.command)])
        assert checks.CHECKS[op.command](op, str(tmp_path / op.command), rc) == []

    path = tmp_path / "solve" / "stationary.csv"
    lines = path.read_text().splitlines()
    state, p = lines[-1].split(",")
    lines[-1] = f"{state},{float(p) * (1 + 1e-6)!r}"
    path.write_text("\n".join(lines) + "\n")
    assert checks.check_solve(solve, str(tmp_path / "solve"), 0)

    path = tmp_path / "verify" / "closure.json"
    report = json.loads(path.read_text())
    assert report["witnesses"], "the uncertified pair should have closure witnesses"
    report["witnesses"] = report["witnesses"][1:]
    path.write_text(json.dumps(report))
    assert checks.check_verify(verify, str(tmp_path / "verify"), 1)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = bench("--workload", "tandem-scan", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=str(tmp_path), check=False)
    assert out.returncode != 0
    assert "{" not in out.stdout


def test_product_form_matches_direct_solve():
    import oracle

    t = Tandem(2, 3, 1.5, (0.0, 2.0, 1.0), (0.0, 1.0, 3.0, 2.0))
    c = oracle.chain(t, "balanced")
    assert np.abs(oracle.product_form(t, c.states) - oracle.stationary(c)).max() < 1e-13
