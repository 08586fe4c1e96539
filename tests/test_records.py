"""The package's record classes: plain classes on `mudd.model.Record`, with
no `dataclasses` and no `typing` anywhere in the package."""
import ast
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

import mudd
from mudd import dsl
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
        ConstraintSet((Constraint("equality", (0, 0)),), (facet,), ns),
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
