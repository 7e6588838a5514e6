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

The argument parser is built once, when this module is imported, with
the options every subcommand shares on one parent parser; main() only
calls parse_args, which leaves the parser as it was. A process that
calls main() many times pays for the parser once.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

from . import __version__
from .coupling import build_stateflow_coupling, paired_log_csv, simulate_coupled
from .ctmc import (
    SolverError,
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
    build_balanced_tandem,
    build_original_tandem,
    loss_rate,
    loss_rate_applies,
)

__all__ = ["RunConfig", "run", "main"]


class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    """One parsed CLI invocation; identical configs give identical outputs."""

    command: str
    model_a: str | None = None
    model_b: str | None = None
    family: str | None = None
    s1: int = 2
    s2: int = 2
    beta: float = 1.0
    delta1: tuple[float, ...] | None = None
    delta2: tuple[float, ...] | None = None
    seed: int = 0
    horizon: float = 10.0
    reps: int = 1
    grid: str = "0:10:10"
    link: str = "0->1"
    init: str | None = None
    tol: float = 1e-8
    out: str | None = None
    fmt: str = "json"
    jobs: int = 1
    betas: tuple[float, ...] = (0.5, 1.0, 2.0)
    sizes: tuple[int, ...] = (1, 2, 3)
    all_witnesses: bool = field(default=False)


def _tandem_params(config: RunConfig) -> TandemParams:
    if config.delta1 is None and config.delta2 is None:
        base = TandemParams.linear(config.s1, config.s2, config.beta)
        return base
    delta1 = (
        config.delta1
        if config.delta1 is not None
        else tuple(float(k) for k in range(config.s1 + 1))
    )
    delta2 = (
        config.delta2
        if config.delta2 is not None
        else tuple(float(k) for k in range(config.s2 + 1))
    )
    return TandemParams(
        s1=config.s1, s2=config.s2, beta=config.beta, delta1=delta1, delta2=delta2
    )


def _single_model(config: RunConfig) -> NetworkSpec:
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


def _model_pair(config: RunConfig) -> tuple[NetworkSpec, NetworkSpec]:
    if config.family is not None:
        if config.model_a is not None or config.model_b is not None:
            raise UsageError("give either model paths or --family, not both")
        if config.family != "tandem-pair":
            raise UsageError(
                f"{config.command} compares two models; use --family tandem-pair"
            )
        params = _tandem_params(config)
        return build_balanced_tandem(params), build_original_tandem(params)
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


def _check_replications(config: RunConfig):
    if config.seed < 0:
        raise UsageError("--seed must be nonnegative")
    if not 0.0 <= config.horizon < math.inf:
        raise UsageError("--horizon must be finite and nonnegative")
    if config.reps < 1:
        raise UsageError("--reps must be at least 1")
    if config.jobs < 1:
        raise UsageError("--jobs must be at least 1")


def _map_replications(worker, tasks: list, jobs: int) -> list:
    """worker over tasks, results in task order, on min(jobs, len(tasks)) processes.

    A process pool starts all of its workers up front, so it is never
    larger than the number of tasks; with one worker the map runs here.
    """
    workers = min(jobs, len(tasks))
    if workers <= 1:
        return [worker(task) for task in tasks]
    import concurrent.futures

    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, tasks))


def _out_dir(config: RunConfig) -> str:
    out = config.out or os.environ.get("FLOWORDER_OUT") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _header(config: RunConfig, models: dict[str, NetworkSpec]) -> dict:
    return {
        "tool": "floworder",
        "version": __version__,
        "command": config.command,
        "seed": config.seed,
        "tol": config.tol,
        "models": {name: model_digest(spec) for name, spec in models.items()},
    }


def _write_json(path: str, header: dict, payload: dict):
    body = {"header": header}
    body.update(payload)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(body, sort_keys=True, indent=2))
        fh.write("\n")


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


def _write_csv(path: str, header: dict, body: str):
    with open(path, "w", encoding="utf-8") as fh:
        for line in _header_lines(header):
            fh.write(line + "\n")
        fh.write(body)


def _report_rows(report_dict: dict) -> str:
    lines = ["condition,passed,part,state_a,state_b,rate_a,rate_b"]
    for cond in report_dict.get("conditions", []):
        if not cond["witnesses"]:
            lines.append(f"{cond['condition']},{cond['passed']},,,,,")
        for w in cond["witnesses"]:
            sa = ";".join(str(v) for v in w.get("state_a", []))
            sb = ";".join(str(v) for v in w.get("state_b", []))
            part = w.get("part", "")
            lines.append(
                f"{cond['condition']},{cond['passed']},{part},{sa},{sb},"
                f"{w.get('rate_a', '')!r},{w.get('rate_b', '')!r}"
            )
    return "\n".join(lines) + "\n"


def _write_report(config: RunConfig, header: dict, stem: str, report_dict: dict) -> str:
    out = _out_dir(config)
    if config.fmt == "csv":
        path = os.path.join(out, f"{stem}.csv")
        _write_csv(path, header, _report_rows(report_dict))
    else:
        path = os.path.join(out, f"{stem}.json")
        _write_json(path, header, report_dict)
    return path


def _cmd_check(config: RunConfig) -> int:
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


def _cmd_verify(config: RunConfig) -> int:
    spec_a, spec_b = _model_pair(config)
    header = _header(config, {"a": spec_a, "b": spec_b})
    report = verify_tight_configurations(spec_a, spec_b)
    path = _write_report(config, header, "closure", report.to_dict())
    print(
        f"closure: {'closed' if report.closed else 'not closed'} "
        f"({report.checked} tight configurations) -> {path}"
    )
    return 0 if report.closed else 1


def _couple_worker(args):
    coupled, init_a, init_b, horizon, seed = args
    log = simulate_coupled(coupled, init_a, init_b, horizon, seed)
    violations = pathwise_flow_order_check(log)
    return paired_log_csv(log), len(log.events), len(violations)


def _cmd_couple(config: RunConfig) -> int:
    _check_replications(config)
    spec_a, spec_b = _model_pair(config)
    header = _header(config, {"a": spec_a, "b": spec_b})
    coupled = build_stateflow_coupling(spec_a, spec_b)
    init = _parse_init(config.init) if config.init else (0,) * spec_a.n
    tasks = [
        (coupled, init, init, config.horizon, replication_seed(config.seed, k))
        for k in range(config.reps)
    ]
    results = _map_replications(_couple_worker, tasks, config.jobs)
    out = _out_dir(config)
    total_events = 0
    total_violations = 0
    for idx, (csv_text, n_events, n_violations) in enumerate(results):
        _write_csv(os.path.join(out, f"couple_rep{idx:04d}.csv"), header, csv_text)
        total_events += n_events
        total_violations += n_violations
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
    spec, init, horizon, seed = args
    log = simulate_path(spec, init, horizon, seed)
    return event_log_csv(log), len(log.events), log.absorbed


def _cmd_simulate(config: RunConfig) -> int:
    _check_replications(config)
    spec = _single_model(config)
    header = _header(config, {"a": spec})
    init = _parse_init(config.init) if config.init else (0,) * spec.n
    tasks = [
        (spec, init, config.horizon, replication_seed(config.seed, k))
        for k in range(config.reps)
    ]
    results = _map_replications(_sim_worker, tasks, config.jobs)
    out = _out_dir(config)
    total_events = 0
    absorbed = 0
    for idx, (csv_text, n_events, was_absorbed) in enumerate(results):
        _write_csv(os.path.join(out, f"sim_rep{idx:04d}.csv"), header, csv_text)
        total_events += n_events
        absorbed += int(was_absorbed)
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


def _cmd_solve(config: RunConfig) -> int:
    spec = _single_model(config)
    header = _header(config, {"a": spec})
    gen = build_generator(spec)
    pi = stationary_distribution(gen, tol=min(config.tol, 1e-12))
    out = _out_dir(config)
    _write_csv(
        os.path.join(out, "stationary.csv"), header, distribution_csv(spec.states, pi)
    )
    throughputs = {
        f"{i}->{j}": throughput(spec, pi, (i, j)) for (i, j) in spec.links
    }
    payload = {"throughput": throughputs}
    if loss_rate_applies(spec):
        payload["loss_rate"] = loss_rate(spec, pi)
    _write_json(os.path.join(out, "solve.json"), header, payload)
    arrival = throughputs.get("0->1")
    note = f", accepted throughput {arrival:.6g}" if arrival is not None else ""
    print(f"solved {len(spec.states)} states{note}")
    return 0


def _cmd_transient(config: RunConfig) -> int:
    spec_a, spec_b = _model_pair(config)
    header = _header(config, {"a": spec_a, "b": spec_b})
    times = _parse_grid(config.grid)
    link = _parse_link(config.link)
    init = _parse_init(config.init) if config.init else (0,) * spec_a.n
    report = mean_order_check(
        spec_a, spec_b, link, times, init, tol=config.tol
    )
    out = _out_dir(config)
    rows = ["time,mean_a,mean_b,margin"]
    for t, ma, mb, mg in zip(report.times, report.mean_a, report.mean_b, report.margins):
        rows.append(f"{t!r},{ma!r},{mb!r},{mg!r}")
    _write_csv(os.path.join(out, "transient.csv"), header, "\n".join(rows) + "\n")
    _write_json(os.path.join(out, "transient.json"), header, report.to_dict())
    worst = min(report.margins)
    print(
        f"mean-flow margins on {len(times)} times: "
        f"{'pass' if report.passed else 'fail'} (worst {worst:.3g})"
    )
    return 0 if report.passed else 1


def _cmd_sweep(config: RunConfig) -> int:
    header = _header(config, {})
    rows = [
        "beta,s1,s2,throughput_balanced,throughput_original,"
        "loss_balanced,loss_original,margin"
    ]
    for beta in config.betas:
        for s in config.sizes:
            params = TandemParams.linear(s, s, beta)
            balanced = build_balanced_tandem(params)
            original = build_original_tandem(params)
            pi_bal = stationary_distribution(build_generator(balanced))
            pi_orig = stationary_distribution(build_generator(original))
            thr_bal = throughput(balanced, pi_bal, (0, 1))
            thr_orig = throughput(original, pi_orig, (0, 1))
            rows.append(
                f"{beta!r},{s},{s},{thr_bal!r},{thr_orig!r},"
                f"{loss_rate(balanced, pi_bal)!r},{loss_rate(original, pi_orig)!r},"
                f"{thr_orig - thr_bal!r}"
            )
    out = _out_dir(config)
    path = os.path.join(out, "sweep.csv")
    _write_csv(path, header, "\n".join(rows) + "\n")
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


def run(config: RunConfig) -> int:
    handler = _COMMANDS.get(config.command)
    if handler is None:
        raise UsageError(f"unknown command {config.command!r}")
    if not 0.0 <= config.tol < math.inf:
        raise UsageError("--tol must be finite and nonnegative")
    return handler(config)


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
    # Every subcommand takes the same options, so they live on one parent
    # parser that each subparser copies: argparse then checks and formats
    # each option once, not once per subcommand.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model-a", dest="model_a")
    common.add_argument("--model-b", dest="model_b")
    common.add_argument(
        "--family", choices=["tandem-original", "tandem-balanced", "tandem-pair"]
    )
    common.add_argument("--s1", type=int, default=2)
    common.add_argument("--s2", type=int, default=2)
    common.add_argument("--beta", type=float, default=1.0)
    common.add_argument("--delta1", type=_float_list)
    common.add_argument("--delta2", type=_float_list)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--horizon", type=float, default=10.0)
    common.add_argument("--reps", type=int, default=1)
    common.add_argument("--grid", default="0:10:10")
    common.add_argument("--link", default="0->1")
    common.add_argument("--init")
    common.add_argument("--tol", type=float, default=1e-8)
    common.add_argument("--out")
    common.add_argument("--format", dest="fmt", choices=["json", "csv"], default="json")
    common.add_argument("--jobs", type=int, default=1)
    common.add_argument("--all-witnesses", dest="all_witnesses", action="store_true")
    common.add_argument("--betas", type=_float_list, default=(0.5, 1.0, 2.0))
    common.add_argument("--sizes", type=_int_list, default=(1, 2, 3))
    parser = argparse.ArgumentParser(
        prog="floworder",
        description="Simulate and order-certify population processes on linear networks.",
    )
    parser.add_argument("--version", action="version", version=f"floworder {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("check", "pointwise flow and population condition reports"),
        ("verify", "exhaustive closure check of the flow-order relation"),
        ("couple", "coupled state-flow replications"),
        ("simulate", "independent replications of one model"),
        ("solve", "stationary distribution and throughputs"),
        ("transient", "expected-flow margins on a time grid"),
        ("sweep", "stationary throughput grid over tandem parameters"),
    ):
        sub.add_parser(name, help=help_text, parents=[common])
    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    # The parser's dests are exactly RunConfig's fields.
    config = RunConfig(**vars(_PARSER.parse_args(argv)))
    try:
        return run(config)
    except (UsageError, ModelError, SolverError, OSError) as e:
        print(f"floworder: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
