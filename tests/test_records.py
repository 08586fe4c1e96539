"""The package's record classes: plain classes on `mudd.model.Record`, with
no `dataclasses` and no `typing` anywhere in the package."""
import ast
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

import mudd
from mudd import dsl
from mudd.exploration import ModelEntry, load_catalog
from mudd.feasibility import BatchCell, FeasibilityVerdict, _Signatures
from mudd.geometry import Constraint, ConstraintSet
from mudd.model import (
    CausalityEdge,
    CounterNamespace,
    Node,
    enumerate_mupaths,
)
from mudd.stats import ObservationSet


@pytest.fixture
def model(bundled):
    return dsl.parse_file(bundled("walk_init_first.mudd"))


def pool_and_model_records(model):
    """One instance of each record the process pool sends or returns, and of
    each public model type."""
    ns = model.namespace
    path = enumerate_mupaths(model)[1]
    facet = Constraint("inequality", (1, -1), "facet 0")
    verdict = FeasibilityVerdict(True, witness_flow=(Fraction(1, 2), Fraction(0)),
                                 witness_point=(Fraction(1, 2), Fraction(1, 3)))
    return [
        ObservationSet("run", [[1.0, 2.0], [3.0, 4.0]], ns, clamped=1),
        ns,
        ConstraintSet((Constraint("equality", (0, 0)),), (facet,), ns, tuple(range(len(ns)))),
        facet,
        _Signatures(3, ((1, 0), (1, 1)), (0, 2)),
        BatchCell("m", "run", verdict, namespace=ns),
        BatchCell("m", "bad", None, error="boom"),
        verdict,
        FeasibilityVerdict(False, violated_constraints=(facet,)),
        model,
        model.nodes[0],
        model.causality[0],
        path,
    ]


def test_records_survive_a_pickle_round_trip(model):
    for record in pool_and_model_records(model):
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record)
        assert copy == record, type(record).__name__
        assert repr(copy) == repr(record)


def test_catalog_records_are_values(model, bundled):
    # an entry built from lists, and a catalog as `mudd explore` loads it
    entry = ModelEntry("e", ["f", "g"], 1, model=model, parent=["p", "pruning"])
    assert entry == ModelEntry("e", {"g", "f"}, 1, model=model, parent=("p", "pruning"))
    catalog = load_catalog(bundled("catalog", "search_catalog.json"))
    for record in (entry, catalog):
        copy = pickle.loads(pickle.dumps(record))
        assert copy is not record and copy == record, type(record).__name__
        assert hash(copy) == hash(record)
        assert repr(copy) == repr(record)


def test_unpickled_records_keep_their_derived_state(model):
    copy = pickle.loads(pickle.dumps(model))
    assert copy.namespace.position(copy.namespace.names[-1]) == len(copy.namespace) - 1
    assert copy.out_edges == model.out_edges
    assert copy.node(model.entry) == model.node(model.entry)
    path = enumerate_mupaths(model)[1]
    assert dict(pickle.loads(pickle.dumps(path)).property_assignment) == dict(path.property_assignment)


def test_equality_hash_and_repr_read_the_fields():
    edge = CausalityEdge(0, 1)
    assert edge == CausalityEdge(src=0, dst=1, value=None)
    assert hash(edge) == hash(CausalityEdge(0, 1))
    assert edge != CausalityEdge(0, 1, "Hit")
    assert edge != Node(0, "event")  # another class never compares equal
    assert repr(edge) == "CausalityEdge(src=0, dst=1, value=None)"
    assert repr(CounterNamespace(["a", "b"])) == "CounterNamespace(names=('a', 'b'))"


def test_records_refuse_assignment():
    node = Node(0, "done")
    with pytest.raises(AttributeError, match="cannot assign to field 'kind'"):
        node.kind = "event"
    with pytest.raises(AttributeError, match="cannot delete field 'kind'"):
        del node.kind
    assert node.kind == "done"


def test_no_module_imports_dataclasses_or_typing():
    # both cost start-up time: `dataclasses` imports `inspect`, and a
    # dataclass builds its methods at import
    package = Path(mudd.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.partition(".")[0] in ("dataclasses", "typing") for n in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def _raises(node, scope=()):
    """(the dotted name of the enclosing function, the node) for every
    `raise` under `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _raises(child, scope + (child.name,))
            continue
        if isinstance(child, ast.Raise):
            yield ".".join(scope), child
        yield from _raises(child, scope)


def test_every_raise_names_an_exception_of_the_contract():
    # README's contract: MuddError (DslParseError, or the catalog's `bad`
    # factory) refuses a caller's data, TypeError an entry of the wrong type,
    # and ArithmeticError a result that failed mudd's own exact check; any
    # other exception belongs to one place, and a ValueError is a bug
    anywhere = {"MuddError", "DslParseError", "TypeError", "ArithmeticError"}
    bound = {
        ("exploration.py", "load_catalog", "bad"),
        ("cli.py", "entry", "SystemExit"),
        ("model.py", "Record.__setattr__", "AttributeError"),
        ("model.py", "Record.__delattr__", "AttributeError"),
        ("__init__.py", "__getattr__", "AttributeError"),
    }
    package = Path(mudd.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        for scope, node in _raises(ast.parse(path.read_text(encoding="utf-8"))):
            if node.exc is None:  # a bare re-raise
                continue
            raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = getattr(raised, "id", None) or getattr(raised, "attr", "")
            if name not in anywhere and (path.name, scope, name) not in bound:
                offenders.append(f"{path.name}:{node.lineno} {scope} raises {name}")
    assert offenders == []


def _names(tree):
    """Every identifier a module names: variables, attributes, imported
    names, and strings that are one name whole, as the benchmark harness
    wraps a function by its attribute name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_public_function_has_a_caller():
    # a library function that no other module of the package, no script and
    # no benchmark module names has only tests for callers: it is a step of
    # its own module and keeps a private name
    package = Path(mudd.__file__).parent
    root = package.parents[1]
    callers = [*package.glob("*.py"), *root.glob("scripts/*.py"), *root.glob("perfbench/**/*.py")]
    named = {path: set(_names(ast.parse(path.read_text(encoding="utf-8")))) for path in callers}
    uncalled = []
    for path in sorted(package.glob("*.py")):
        if path.name in ("cli.py", "__main__.py"):
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                    and not any(node.name in names for caller, names in named.items()
                                if caller != path)):
                uncalled.append(f"{path.name}:{node.name}")
    assert uncalled == []
