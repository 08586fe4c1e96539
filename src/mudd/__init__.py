"""Decision-diagram models of micro-op counter behavior.

Parse a model, enumerate its paths and counter signatures, deduce the
explicit constraints of its counter cone, build correlated confidence
regions from noisy samples, and test the two for intersection.

`import mudd` loads no submodule: each is imported on first use, as
`mudd.<submodule>`. Library names are imported from their own modules
(`from mudd.dsl import parse`); of the modules only `mudd.synth` needs
numpy.
"""
__version__ = "0.1.0"


def bundled_path(*parts: str):
    """Path of a bundled example file (models, catalogs)."""
    from importlib.resources import files
    from pathlib import Path

    return Path(str(files("mudd").joinpath("data", *parts)))


_SUBMODULES = frozenset({"cli", "dsl", "errors", "exact", "exploration", "feasibility",
                         "geometry", "hull", "linprog", "model", "stats", "synth"})


def __getattr__(name: str):
    if name in _SUBMODULES:
        # through the import statement's machinery, which `-X importtime` sees;
        # importing a submodule binds it here
        __import__(f"{__name__}.{name}")
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
