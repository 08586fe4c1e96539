"""Decision-diagram models of micro-op counter behavior.

Parse a model, enumerate its paths and counter signatures, deduce the
explicit constraints of its counter cone, build correlated confidence
regions from noisy samples, and test the two for intersection.

`import mudd` loads only `mudd.errors`: every other submodule, and every
name re-exported here, is imported on first use.
"""
from .errors import MuddError

__version__ = "0.1.0"


def bundled_path(*parts: str):
    """Path of a bundled example file (models, catalogs)."""
    from importlib.resources import files
    from pathlib import Path

    return Path(str(files("mudd").joinpath("data", *parts)))


_SUBMODULES = frozenset({"cli", "dsl", "errors", "exact", "exploration", "feasibility",
                         "geometry", "hull", "linprog", "model", "stats", "synth"})

# re-exported name -> its module; of these modules only `synth` needs numpy
_LAZY = {
    name: module
    for module, names in {
        "dsl": ("DslParseError", "format_diagnostics", "format_model", "parse",
                "parse_file"),
        "geometry": ("Constraint", "ConstraintSet", "cone_membership",
                     "conic_hull_facets", "constraints_from_signatures",
                     "deduce_constraints", "find_equalities", "normalize_signatures",
                     "remove_interior_generators"),
        "model": ("DEFAULT_PATH_CAP", "CounterNamespace", "CounterSignature", "MuDD",
                  "MuPath", "Node", "enumerate_mupaths", "signature_of",
                  "signatures_of_model"),
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
    if name in _SUBMODULES:
        # through the import statement's machinery, which `-X importtime` sees;
        # importing a submodule binds it here
        __import__(f"{__name__}.{name}")
        return globals()[name]
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__getattr__(_LAZY[name]), name)
    globals()[name] = value
    return value
