"""Command line front end.

Subcommands:

    check      pointwise flow and population condition reports for a pair
    verify     exhaustive closure check of the flow-order relation
    couple     coupled state-flow replications plus a violation summary
    simulate   independent replications of a single model
    solve      stationary distribution, throughputs and loss rate
    transient  expected-flow margins of a pair on a time grid
    sweep      stationary throughput grid over tandem parameters

Models come either from JSON files (--model-a / --model-b) or from the
built-in tandem family (--family tandem-original | tandem-balanced |
tandem-pair, with --s1 --s2 --beta --delta1 --delta2). The pair form uses
the balanced variant as model A and the original as model B.

Every output file starts with a reproducibility header (tool version,
seed, tolerances, model digests) and a fixed invocation produces byte
identical files. Exit status: 0 pass, 1 verdict failure, 2 usage or
model errors.

Each command takes only the options its handler reads, and an option it
would ignore exits 2 as an unrecognized argument. The argument parser is
built once, when this module is imported; main() only parses, which
leaves the parsers as they were. A process that calls main() many times
pays for the parser once. When the first argument names a command, that
command's subparser reads the rest directly, so argparse scans the
arguments once, not twice; the top-level parser reads any other argument
list (--help, --version, none, an unknown command or an option first)
and reports arguments the subparser does not know, so both routes print
and exit alike. The parser is also the only place that names an option
and its default: each command's handler reads the parsed namespace as it
is, and main() checks --tol and dispatches on the command.

CSV bodies are written as their writers yield them, in chunks. couple
and simulate check --init before they make the output directory; each
replication's worker then writes that replication's file as soon as its
path ends and returns only counts, so no replication's text outlives it
and a process pool carries no text. The summary JSON is written last.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__
from .coupling import _start_pair, paired_log_csv, simulate_coupled
from .ctmc import (
    _MAX_POISSON_DEPTH,
    SolverError,
    _start_index,
    build_generator,
    distribution_csv,
    event_log_csv,
    simulate_path,
    stationary_distribution,
    throughput,
)
from .model import ModelError, NetworkSpec, load_model, model_digest
from .ordering import (
    check_flow_conditions,
    check_population_conditions,
    mean_order_check,
    pathwise_flow_order_check,
    verify_tight_configurations,
)
from .rng import replication_seed
from .tandem import (
    TandemParams,
    _tandem_pair,
    build_balanced_tandem,
    build_original_tandem,
    loss_rate,
    loss_rate_applies,
)

__all__ = ["main"]


class UsageError(ValueError):
    pass


def _tandem_params(config: argparse.Namespace) -> TandemParams:
    return TandemParams(
        s1=config.s1,
        s2=config.s2,
        beta=config.beta,
        delta1=range(config.s1 + 1) if config.delta1 is None else config.delta1,
        delta2=range(config.s2 + 1) if config.delta2 is None else config.delta2,
    )


def _single_model(config: argparse.Namespace) -> NetworkSpec:
    if config.family is not None and config.model_a is not None:
        raise UsageError("give either --model-a or --family, not both")
    if config.family is not None:
        params = _tandem_params(config)
        if config.family == "tandem-original":
            return build_original_tandem(params)
        if config.family == "tandem-balanced":
            return build_balanced_tandem(params)
        raise UsageError(
            f"family {config.family!r} does not name a single model; "
            "use tandem-original or tandem-balanced"
        )
    if config.model_a is None:
        raise UsageError(f"{config.command} needs --model-a or --family")
    return load_model(config.model_a)


def _model_pair(config: argparse.Namespace) -> tuple[NetworkSpec, NetworkSpec]:
    if config.family is not None:
        if config.model_a is not None or config.model_b is not None:
            raise UsageError("give either model paths or --family, not both")
        if config.family != "tandem-pair":
            raise UsageError(
                f"{config.command} compares two models; use --family tandem-pair"
            )
        return _tandem_pair(_tandem_params(config))
    if config.model_a is None or config.model_b is None:
        raise UsageError(f"{config.command} needs --model-a and --model-b")
    return load_model(config.model_a), load_model(config.model_b)


def _parse_grid(grid: str) -> tuple[float, ...]:
    parts = grid.split(":")
    if len(parts) != 3:
        raise UsageError("--grid must look like t0:t1:steps")
    try:
        t0, t1, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError("--grid must look like t0:t1:steps") from None
    if not 0.0 <= t0 <= t1 < math.inf or steps < 1:
        raise UsageError("--grid needs finite 0 <= t0 <= t1 and steps >= 1")
    if steps > _MAX_POISSON_DEPTH:
        raise UsageError(f"--grid allows at most {_MAX_POISSON_DEPTH} steps")
    return tuple(t0 + k * (t1 - t0) / steps for k in range(steps + 1))


def _parse_link(text: str) -> tuple[int, int]:
    parts = text.split("->")
    if len(parts) != 2:
        raise UsageError("--link must look like i->j")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError:
        raise UsageError("--link must look like i->j") from None


def _parse_init(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(";"))
    except ValueError:
        raise UsageError("--init must look like a semicolon-joined state, e.g. 0;0") from None


def _check_replications(config: argparse.Namespace):
    if config.seed < 0:
        raise UsageError("--seed must be nonnegative")
    if not 0.0 <= config.horizon < math.inf:
        raise UsageError("--horizon must be finite and nonnegative")
    if config.reps < 1:
        raise UsageError("--reps must be at least 1")
    if config.jobs < 1:
        raise UsageError("--jobs must be at least 1")


def _replicate(config: argparse.Namespace, stem: str, worker, header: dict, *args):
    """Make the output directory and map worker over the replications on
    min(jobs, reps) processes, replication k's task being its CSV path
    <stem>_rep<k:04d>.csv, header, *args, the horizon and its seed.
    Returns the directory and the sums of the workers' (events, count)
    results.

    A process pool starts all of its workers up front, so it is never
    larger than the number of tasks; with one worker the map runs here.
    """
    out = _out_dir(config)
    prefix = os.path.join(out, f"{stem}_rep")
    tasks = [
        (f"{prefix}{k:04d}.csv", header, *args, config.horizon, replication_seed(config.seed, k))
        for k in range(config.reps)
    ]
    workers = min(config.jobs, config.reps)
    if workers <= 1:
        results = map(worker, tasks)
    else:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(worker, tasks))
    events, count = map(sum, zip(*results))
    return out, events, count


def _out_dir(config: argparse.Namespace) -> str:
    out = config.out or os.environ.get("FLOWORDER_OUT") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _header(config: argparse.Namespace, models: dict[str, NetworkSpec]) -> dict:
    return {
        "tool": "floworder",
        "version": __version__,
        "command": config.command,
        "seed": config.seed,
        "tol": config.tol,
        "models": {name: model_digest(spec) for name, spec in models.items()},
    }


def _write_json(path: str, header: dict, payload: dict):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"header": header, **payload}, sort_keys=True, indent=2) + "\n")


def _header_lines(header: dict) -> list[str]:
    lines = []
    for key in sorted(header):
        value = header[key]
        if isinstance(value, dict):
            for sub in sorted(value):
                lines.append(f"# {key}.{sub}: {value[sub]}")
        else:
            lines.append(f"# {key}: {value}")
    return lines


def _write_csv(path: str, header: dict, chunks):
    """The header's comment lines, then the body's text chunks as they come."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in _header_lines(header))
        fh.writelines(chunks)


def _report_rows(report_dict: dict) -> list[str]:
    lines = ["condition,passed,part,state_a,state_b,rate_a,rate_b\n"]
    for cond in report_dict.get("conditions", []):
        if not cond["witnesses"]:
            lines.append(f"{cond['condition']},{cond['passed']},,,,,\n")
        for w in cond["witnesses"]:
            sa = ";".join(str(v) for v in w.get("state_a", []))
            sb = ";".join(str(v) for v in w.get("state_b", []))
            part = w.get("part", "")
            lines.append(
                f"{cond['condition']},{cond['passed']},{part},{sa},{sb},"
                f"{w.get('rate_a', '')!r},{w.get('rate_b', '')!r}\n"
            )
    return lines


def _write_report(config: argparse.Namespace, header: dict, stem: str, report_dict: dict) -> str:
    out = _out_dir(config)
    if config.fmt == "csv":
        path = os.path.join(out, f"{stem}.csv")
        _write_csv(path, header, _report_rows(report_dict))
    else:
        path = os.path.join(out, f"{stem}.json")
        _write_json(path, header, report_dict)
    return path


def _cmd_check(config: argparse.Namespace) -> int:
    spec_a, spec_b = _model_pair(config)
    header = _header(config, {"a": spec_a, "b": spec_b})
    flow = check_flow_conditions(spec_a, spec_b, all_witnesses=config.all_witnesses)
    population = check_population_conditions(
        spec_a, spec_b, all_witnesses=config.all_witnesses
    )
    path_f = _write_report(config, header, "check_flow", flow.to_dict())
    path_p = _write_report(config, header, "check_population", population.to_dict())
    print(f"flow conditions: {'pass' if flow.passed else 'fail'} -> {path_f}")
    print(
        f"population conditions: {'pass' if population.passed else 'fail'} -> {path_p}"
    )
    return 0 if flow.passed else 1


def _cmd_verify(config: argparse.Namespace) -> int:
    spec_a, spec_b = _model_pair(config)
    header = _header(config, {"a": spec_a, "b": spec_b})
    report = verify_tight_configurations(spec_a, spec_b)
    path = _write_report(config, header, "closure", report.to_dict())
    print(
        f"closure: {'closed' if report.closed else 'not closed'} "
        f"({report.checked} tight configurations) -> {path}"
    )
    return 0 if report.closed else 1


def _initial_state(config: argparse.Namespace, spec: NetworkSpec) -> tuple[int, ...]:
    return _parse_init(config.init) if config.init else (0,) * spec.n


def _couple_worker(args):
    path, header, spec_a, spec_b, init, horizon, seed = args
    log = simulate_coupled(spec_a, spec_b, init, init, horizon, seed)
    violations = len(pathwise_flow_order_check(log))
    _write_csv(path, header, paired_log_csv(log))
    return len(log.times), violations


def _cmd_couple(config: argparse.Namespace) -> int:
    _check_replications(config)
    spec_a, spec_b = _model_pair(config)
    header = _header(config, {"a": spec_a, "b": spec_b})
    init = _initial_state(config, spec_a)
    _start_pair(spec_a, spec_b, init, init)  # before the output directory is made
    out, total_events, total_violations = _replicate(
        config, "couple", _couple_worker, header, spec_a, spec_b, init
    )
    summary = {
        "replications": config.reps,
        "horizon": config.horizon,
        "initial_state": list(init),
        "events": total_events,
        "flow_order_violations": total_violations,
        "verdict": "pass" if total_violations == 0 else "fail",
    }
    _write_json(os.path.join(out, "couple_summary.json"), header, summary)
    print(
        f"coupled {config.reps} replications, {total_events} events, "
        f"{total_violations} flow-order violations"
    )
    return 0 if total_violations == 0 else 1


def _sim_worker(args):
    path, header, spec, init, horizon, seed = args
    log = simulate_path(spec, init, horizon, seed)
    _write_csv(path, header, event_log_csv(log))
    return len(log.times), log.absorbed


def _cmd_simulate(config: argparse.Namespace) -> int:
    _check_replications(config)
    spec = _single_model(config)
    header = _header(config, {"a": spec})
    init = _initial_state(config, spec)
    _start_index(spec, init)  # before the output directory is made
    out, total_events, absorbed = _replicate(config, "sim", _sim_worker, header, spec, init)
    summary = {
        "replications": config.reps,
        "horizon": config.horizon,
        "initial_state": list(init),
        "events": total_events,
        "absorbed_paths": absorbed,
    }
    _write_json(os.path.join(out, "simulate_summary.json"), header, summary)
    print(f"simulated {config.reps} replications, {total_events} events")
    return 0


def _cmd_solve(config: argparse.Namespace) -> int:
    spec = _single_model(config)
    header = _header(config, {"a": spec})
    gen = build_generator(spec)
    pi = stationary_distribution(gen, tol=min(config.tol, 1e-12))
    throughputs = {
        f"{i}->{j}": throughput(spec, pi, (i, j)) for (i, j) in spec.links
    }
    payload = {"throughput": throughputs}
    if loss_rate_applies(spec):
        payload["loss_rate"] = loss_rate(spec, pi)
    # every figure is computed before the first file is written, so an
    # error leaves no partial report set behind
    out = _out_dir(config)
    _write_csv(
        os.path.join(out, "stationary.csv"), header, distribution_csv(spec.coords, pi)
    )
    _write_json(os.path.join(out, "solve.json"), header, payload)
    arrival = throughputs.get("0->1")
    note = f", accepted throughput {arrival:.6g}" if arrival is not None else ""
    print(f"solved {len(spec.coords)} states{note}")
    return 0


def _cmd_transient(config: argparse.Namespace) -> int:
    spec_a, spec_b = _model_pair(config)
    header = _header(config, {"a": spec_a, "b": spec_b})
    times = _parse_grid(config.grid)
    link = _parse_link(config.link)
    init = _initial_state(config, spec_a)
    report = mean_order_check(
        spec_a, spec_b, link, times, init, tol=config.tol
    )
    out = _out_dir(config)
    rows = ["time,mean_a,mean_b,margin\n"]
    for t, ma, mb, mg in zip(report.times, report.mean_a, report.mean_b, report.margins):
        rows.append(f"{t!r},{ma!r},{mb!r},{mg!r}\n")
    _write_csv(os.path.join(out, "transient.csv"), header, rows)
    _write_json(os.path.join(out, "transient.json"), header, report.to_dict())
    worst = min(report.margins)
    print(
        f"mean-flow margins on {len(times)} times: "
        f"{'pass' if report.passed else 'fail'} (worst {worst:.3g})"
    )
    return 0 if report.passed else 1


def _cmd_sweep(config: argparse.Namespace) -> int:
    header = _header(config, {})
    tol = min(config.tol, 1e-12)  # as solve's
    rows = [
        "beta,s1,s2,throughput_balanced,throughput_original,"
        "loss_balanced,loss_original,margin\n"
    ]
    for beta in config.betas:
        for s in config.sizes:
            balanced, original = _tandem_pair(TandemParams.linear(s, s, beta))
            pi_bal = stationary_distribution(build_generator(balanced), tol=tol)
            pi_orig = stationary_distribution(build_generator(original), tol=tol)
            thr_bal = throughput(balanced, pi_bal, (0, 1))
            thr_orig = throughput(original, pi_orig, (0, 1))
            rows.append(
                f"{beta!r},{s},{s},{thr_bal!r},{thr_orig!r},"
                f"{loss_rate(balanced, pi_bal)!r},{loss_rate(original, pi_orig)!r},"
                f"{thr_orig - thr_bal!r}\n"
            )
    out = _out_dir(config)
    path = os.path.join(out, "sweep.csv")
    _write_csv(path, header, rows)
    print(f"swept {len(config.betas) * len(config.sizes)} tandem instances -> {path}")
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "verify": _cmd_verify,
    "couple": _cmd_couple,
    "simulate": _cmd_simulate,
    "solve": _cmd_solve,
    "transient": _cmd_transient,
    "sweep": _cmd_sweep,
}


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expected a comma-joined number list") from None


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expected a comma-joined integer list") from None


def _build_parser() -> argparse.ArgumentParser:
    # Options that the same commands read share a parent parser, and each
    # subparser copies the parents its handler reads: argparse checks and
    # formats each option once, and a command refuses an option it would
    # ignore. Every report header records the seed and the tolerance, so
    # every command takes the header options.
    header, model_a, model_b, tandem, runs, init, grid, fmt, witnesses, sweep = (
        argparse.ArgumentParser(add_help=False) for _ in range(10)
    )
    header.add_argument("--seed", type=int, default=0)
    header.add_argument("--tol", type=float, default=1e-8)
    header.add_argument("--out")
    model_a.add_argument("--model-a", dest="model_a")
    model_b.add_argument("--model-b", dest="model_b")
    tandem.add_argument(
        "--family", choices=["tandem-original", "tandem-balanced", "tandem-pair"]
    )
    tandem.add_argument("--s1", type=int, default=2)
    tandem.add_argument("--s2", type=int, default=2)
    tandem.add_argument("--beta", type=float, default=1.0)
    tandem.add_argument("--delta1", type=_float_list)
    tandem.add_argument("--delta2", type=_float_list)
    runs.add_argument("--horizon", type=float, default=10.0)
    runs.add_argument("--reps", type=int, default=1)
    runs.add_argument("--jobs", type=int, default=1)
    init.add_argument("--init")
    grid.add_argument("--grid", default="0:10:10")
    grid.add_argument("--link", default="0->1")
    fmt.add_argument("--format", dest="fmt", choices=["json", "csv"], default="json")
    witnesses.add_argument("--all-witnesses", dest="all_witnesses", action="store_true")
    sweep.add_argument("--betas", type=_float_list, default=(0.5, 1.0, 2.0))
    sweep.add_argument("--sizes", type=_int_list, default=(1, 2, 3))
    parser = argparse.ArgumentParser(
        prog="floworder",
        description="Simulate and order-certify population processes on linear networks.",
    )
    parser.add_argument("--version", action="version", version=f"floworder {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}
    pair = [model_a, model_b, tandem]
    for name, parents, help_text in (
        ("check", pair + [fmt, witnesses], "pointwise flow and population condition reports"),
        ("verify", pair + [fmt], "exhaustive closure check of the flow-order relation"),
        ("couple", pair + [runs, init], "coupled state-flow replications"),
        ("simulate", [model_a, tandem, runs, init], "independent replications of one model"),
        ("solve", [model_a, tandem], "stationary distribution and throughputs"),
        ("transient", pair + [grid, init], "expected-flow margins on a time grid"),
        ("sweep", [sweep], "stationary throughput grid over tandem parameters"),
    ):
        subparsers[name] = sub.add_parser(name, help=help_text, parents=parents + [header])
    return parser, subparsers


_PARSER, _SUBPARSERS = _build_parser()


def _parse_args(argv) -> argparse.Namespace:
    """_PARSER.parse_args(argv), with one argparse pass where argv[0] is a command.

    That command's subparser reads the rest of argv, as the top-level
    parser would hand it over, and arguments it does not know are reported
    by the top-level parser, as parse_args reports them.
    """
    sub = _SUBPARSERS.get(argv[0]) if argv else None
    if sub is None:
        return _PARSER.parse_args(argv)
    config, extras = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        _PARSER.error(f"unrecognized arguments: {' '.join(extras)}")
    return config


def main(argv=None) -> int:
    config = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        if not 0.0 <= config.tol < math.inf:
            raise UsageError("--tol must be finite and nonnegative")
        return _COMMANDS[config.command](config)
    except (UsageError, ModelError, SolverError, OSError) as e:
        print(f"floworder: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
