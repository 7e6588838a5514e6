"""Every name the package and its modules export resolves."""

import importlib
import pkgutil

import pytest

import floworder

MODULES = ["floworder"] + [
    f"floworder.{info.name}"
    for info in pkgutil.iter_modules(floworder.__path__)
    if info.name != "__main__"  # runs the command line on import
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), "a name is exported twice"
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_reexports_the_modules_objects():
    """A name the package re-exports is the same object as in its module."""
    for name in MODULES[1:]:
        module = importlib.import_module(name)
        for attr in set(module.__all__) & set(floworder.__all__):
            assert getattr(floworder, attr) is getattr(module, attr), attr


# The package's public names, sorted; adding or removing one shows here.
PUBLIC_NAMES = [
    "A_ONLY",
    "B_ONLY",
    "ClosureReport",
    "ConditionReport",
    "ConvergenceError",
    "EventLog",
    "ExpressionError",
    "Generator",
    "JOINT",
    "MeanOrderReport",
    "ModelError",
    "NetworkSpec",
    "PairedEventLog",
    "RateExpr",
    "ReducibleChainError",
    "SolverError",
    "TandemParams",
    "ToleranceError",
    "__version__",
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


def test_package_public_names_are_pinned():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert sorted(floworder.__all__) == PUBLIC_NAMES
