"""Numerical experiments on exponential systems restricted to curved
space-time trajectories: oscillatory pair integrals, index-pair
classification, summation bounds, Gram/Riesz bounds over curves and
measures, low-frequency rigidity, and a fractional Schrodinger solver
with curve traces.

Submodules are imported lazily so the command-line entry point can pin
thread-count environment variables before numpy loads.
"""

__version__ = "0.1.0"
# Seed of every random draw the package makes when the caller gives none.
DEFAULT_SEED = 0x1CEB00DA

_SUBMODULES = ("curves", "classify", "oscint", "sums", "riesz", "rigidity",
               "schrodinger", "tables", "cli", "errors", "quad")


def __getattr__(name):
    if name in _SUBMODULES:
        import importlib
        module = importlib.import_module(f".{name}", __name__)
        globals()[name] = module
        return module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(list(globals()) + list(_SUBMODULES))
