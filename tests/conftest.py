import os
import sys

from hypothesis import HealthCheck, settings

sys.path.insert(0, os.path.dirname(__file__))

# The interpreters the tests start (`python -m floworder`, import probes)
# import the package from this checkout, as the suite does through the
# pythonpath setting in pyproject.toml, so a bare `pytest` needs no install.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

settings.register_profile(
    "suite",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")
