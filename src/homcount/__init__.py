"""Exact counting, enumeration, and verification of homogeneous colored linear orderings.

The package works with the finite encodings of two infinite families:
multicolored models (finite sequences of singly-colored R-points and
set-colored S-points, every color used at most once) and symbolic ordering
descriptions (sequences of singleton blocks and shuffles). Counting formulas,
generating functions, asymptotics, and brute-force enumeration are
cross-validated against each other; everything except the asymptotics module
is exact arbitrary-precision arithmetic.

Importing the package loads none of its modules. Each name in __all__, and
each submodule, is imported on first attribute access (PEP 562), so the CLI
and scripts that use one layer do not pay for the others. Submodules are the
module files found in the package directory, so a new module needs no entry
here; __main__ is never one, since importing it runs the CLI.
"""

from importlib import import_module
from importlib.util import find_spec

# defining module -> the names of __all__ it provides, in __all__ order
_EXPORTS = {
    "combinatorics": ["BigCount", "ExactRational", "binomial", "factorial", "stirling2"],
    "counting": ["SequenceId", "count_I", "closed_form_I", "count_L", "j_surjective", "k1", "k2", "fubini"],
    "kernel": ["BruteForceCapError"],
    "enumeration": [
        "count_by_enumeration",
        "enumerate_models",
        "enumerate_surjective",
        "enumerate_ordered_set_partitions",
    ],
    "correspondence": [
        "expand_model",
        "contract_description",
        "expand_colored",
        "contract_colored",
        "classify_cnm",
        "is_finite_homogeneous",
    ],
    "model": [
        "MulticoloredModel",
        "RPoint",
        "SPoint",
        "OrderingDescription",
        "SingletonBlock",
        "Shuffle",
        "Finite",
        "InfiniteKind",
        "OMEGA",
        "OMEGA_STAR",
        "ZETA",
        "ColoredDescription",
        "ColorPoint",
        "ColorShuffle",
        "FiniteColoredOrdering",
        "validate_model",
        "validate_description",
        "canonical_compare",
    ],
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_ORIGIN)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _ORIGIN:
        value = getattr(import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    elif name.isidentifier() and not name.startswith("__") and find_spec(f"{__name__}.{name}"):
        value = import_module(f"{__name__}.{name}")  # a module file, never __main__: importing that runs the CLI
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    from pkgutil import iter_modules

    submodules = {m.name for m in iter_modules(__path__) if not m.name.startswith("__")}
    return sorted(set(globals()) | _ORIGIN.keys() | submodules)
