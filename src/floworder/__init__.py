"""Simulation and order certification for population processes on linear networks.

The package models finite-state Markov population processes whose moves
shift one unit along a directed link, with node 0 standing for the
outside world. Each link's rates are held as an array over the state
index, next to the index each move leads to; both are built, by array
operations and one key search, and every rate checked, when a
NetworkSpec is constructed, so
no spec reaches a solver or checker with an invalid rate. For the
linear link family 0 -> 1 -> ... -> n -> 0 it provides pointwise
rate-condition checkers, an exhaustive closure verifier,
marching-soldiers couplings with cumulative flow counters, and exact
solvers for stationary and transient questions, so that throughput
orderings between two such models can be certified pathwise or in
expectation. All simulation runs on one Gillespie kernel. A simulated
path keeps its flow counters as one int64 array, read with
EventLog.flows() or PairedEventLog.flows(side): row 0 is the zero start
and row e + 1 the counters after event e.
"""

__version__ = "0.1.0"

from .coupling import (
    A_ONLY,
    B_ONLY,
    JOINT,
    PairedEventLog,
    marching_rates,
    simulate_coupled,
)
from .ctmc import (
    ConvergenceError,
    EventLog,
    Generator,
    ReducibleChainError,
    SolverError,
    ToleranceError,
    build_generator,
    simulate_path,
    stationary_distribution,
    throughput,
    transient_distribution,
    transient_mean_flow,
)
from .expr import ExpressionError, RateExpr, parse_expression
from .model import (
    ModelError,
    NetworkSpec,
    balance_signature,
    linear_links,
    load_model,
    model_digest,
    parse_model,
    serialize_model,
)
from .ordering import (
    ClosureReport,
    ConditionReport,
    MeanOrderReport,
    check_flow_conditions,
    check_population_conditions,
    mean_order_check,
    pathwise_flow_order_check,
    pathwise_population_order_check,
    verify_tight_configurations,
)
from .rng import make_stream, replication_seed
from .tandem import (
    TandemParams,
    build_balanced_tandem,
    build_original_tandem,
    loss_rate,
    product_form_residual,
)

__all__ = [
    "__version__",
    "A_ONLY",
    "B_ONLY",
    "JOINT",
    "ClosureReport",
    "ConditionReport",
    "ConvergenceError",
    "EventLog",
    "ExpressionError",
    "Generator",
    "MeanOrderReport",
    "ModelError",
    "NetworkSpec",
    "PairedEventLog",
    "RateExpr",
    "ReducibleChainError",
    "SolverError",
    "TandemParams",
    "ToleranceError",
    "balance_signature",
    "build_balanced_tandem",
    "build_generator",
    "build_original_tandem",
    "check_flow_conditions",
    "check_population_conditions",
    "linear_links",
    "load_model",
    "loss_rate",
    "make_stream",
    "marching_rates",
    "mean_order_check",
    "model_digest",
    "parse_expression",
    "parse_model",
    "pathwise_flow_order_check",
    "pathwise_population_order_check",
    "product_form_residual",
    "replication_seed",
    "serialize_model",
    "simulate_coupled",
    "simulate_path",
    "stationary_distribution",
    "throughput",
    "transient_distribution",
    "transient_mean_flow",
    "verify_tight_configurations",
]
