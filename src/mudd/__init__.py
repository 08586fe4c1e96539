"""Decision-diagram models of micro-op counter behavior.

Parse a model, enumerate its paths and counter signatures, deduce the
explicit constraints of its counter cone, build correlated confidence
regions from noisy samples, and test the two for intersection.
"""
from importlib import import_module as _import_module
from importlib.resources import files as _files
from pathlib import Path

from .dsl import DslParseError, DslSource, format_diagnostics, format_model, parse, parse_file
from .errors import MuddError
from .geometry import (
    Constraint,
    ConstraintSet,
    cone_membership,
    conic_hull_facets,
    constraints_from_signatures,
    deduce_constraints,
    find_equalities,
    normalize_signatures,
    remove_interior_generators,
)
from .model import (
    DEFAULT_PATH_CAP,
    CounterNamespace,
    CounterSignature,
    MuDD,
    MuPath,
    Node,
    enumerate_mupaths,
    signature_of,
    signatures_of_model,
)

__version__ = "0.1.0"


def bundled_path(*parts: str) -> Path:
    """Path of a bundled example file (models, catalogs)."""
    return Path(str(_files("mudd").joinpath("data", *parts)))


# imported on first use, so that `paths`, `constraints` and `explore` start
# without them; of the three, only `synth` needs numpy
_LAZY = {
    name: module
    for module, names in {
        "feasibility": ("FeasibilityVerdict", "attribute_violations", "batch_check",
                        "check_feasibility", "refinement_candidates"),
        "stats": ("ConfidenceRegion", "ObservationSet", "build_confidence_region",
                  "chi_square_quantile", "eigendecompose", "load_observations",
                  "mean_and_covariance", "point_region", "write_observations"),
        "synth": ("SynthSpec", "exact_counters", "generate"),
    }.items()
    for name in names
}


def __getattr__(name: str):
    if name in _LAZY.values():
        return _import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value
