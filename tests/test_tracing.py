"""The benchmark's traced run patches floworder's functions by name.

bench/tracing.py wraps module attributes of floworder and counts the
events of each simulated log with len(result.events). These tests keep
the names it patches, and those counts, in step with the package.
"""

import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    import tracing

    return tracing


def test_every_traced_name_is_an_attribute_of_its_owner(tracing):
    for owner, attr, _, _ in tracing._targets():
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"


@pytest.mark.parametrize(
    "argv, counter",
    [
        (["couple", "--family", "tandem-pair", "--reps", "2", "--horizon", "20", "--seed", "3"],
         "coupling.simulate_events"),
        (["simulate", "--family", "tandem-original", "--reps", "2", "--horizon", "20", "--seed", "3"],
         "ctmc.simulate_events"),
    ],
    ids=["couple", "simulate"],
)
def test_traced_run_counts_the_events_it_reports(tracing, argv, counter, tmp_path, capsys):
    from floworder.cli import main

    tracer = tracing.Tracer()
    tracer.install()
    try:
        main(argv + ["--out", str(tmp_path)])
    finally:
        tracer.restore()
    _, counts = tracer.take()
    summary = json.loads((tmp_path / f"{argv[0]}_summary.json").read_text())
    assert summary["events"] > 0
    assert counts[counter] == summary["events"]


@pytest.mark.parametrize(
    "argv, calls, nnz",
    [
        (["sweep", "--betas", "1", "--sizes", "1,2"], 4, 60),
        (["solve", "--family", "tandem-original", "--s1", "3", "--s2", "3", "--beta", "2"], 1, None),
    ],
    ids=["sweep", "solve"],
)
def test_traced_run_records_one_span_per_generator_and_solve(tracing, argv, calls, nnz, tmp_path, capsys):
    """The per-layer metrics read these spans, so the calls behind them must not
    move: one generator and one stationary solve per model solved."""
    from floworder.cli import main

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(argv + ["--out", str(tmp_path)]) == 0
    finally:
        tracer.restore()
    _, counts = tracer.take()
    names = [span[0] for span in tracer.spans]
    assert names.count("ctmc.generator") == calls
    assert names.count("ctmc.stationary") == calls
    if nnz is not None:
        assert counts["ctmc.generator_nnz"] == nnz


@pytest.mark.parametrize(
    "argv, span",
    [
        (["couple", "--family", "tandem-pair", "--reps", "2", "--horizon", "20", "--seed", "3"],
         "coupling.paired_csv"),
        (["simulate", "--family", "tandem-original", "--reps", "2", "--horizon", "20", "--seed", "3"],
         "ctmc.event_csv"),
    ],
    ids=["couple", "simulate"],
)
def test_traced_run_records_each_replication_and_file(tracing, argv, span, tmp_path, capsys):
    """One writer span per replication, one write span per file, and the
    written bytes counted once each."""
    from floworder.cli import main

    tracer = tracing.Tracer()
    tracer.install()
    try:
        main(argv + ["--out", str(tmp_path)])
    finally:
        tracer.restore()
    _, counts = tracer.take()
    names = [s[0] for s in tracer.spans]
    files = sorted(os.listdir(tmp_path))
    assert len(files) == 3  # two replications and the summary
    assert names.count(span) == 2
    assert names.count("cli.write") == len(files)
    assert counts["cli.report_bytes"] == sum(os.path.getsize(tmp_path / f) for f in files)
