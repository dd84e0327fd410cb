"""The immutable records: construction, equality, hashing, immutability.

Every record class is checked on a sample and on a second sample of the
same class that differs from it in some field.
"""

import pytest

from helpers import c2_star_c3, hnn_loop
from vfree.classify import ClassificationReport, LargenessReport, classify
from vfree.errors import DivisibilityViolation, NotNormalized
from vfree.gog import GraphOfGroups, build_gog
from vfree.graph import Graph, Record, SpanningTree, build_graph, spanning_tree
from vfree.invariants import TypeVector, type_vector
from vfree.normalize import ContractionStep, NormalizedGog, normalize


def samples():
    """class -> (sample, a record of the same class with other fields)."""
    gog, other_gog = c2_star_c3(), hnn_loop(4, 4)
    ngog, other_ngog = normalize(gog)[0], normalize(hnn_loop(4, 2))[0]
    return {
        Graph: (gog.graph, other_gog.graph),
        SpanningTree: (ngog.tree, spanning_tree(gog.graph, gog.graph.vertices[-1])),
        GraphOfGroups: (gog, other_gog),
        NormalizedGog: (ngog, other_ngog),
        ContractionStep: (ContractionStep("e", "b", "a"), ContractionStep("e", "a", "b")),
        TypeVector: (type_vector(gog), type_vector(other_gog)),
        ClassificationReport: (classify(ngog), classify(other_ngog)),
        LargenessReport: (
            LargenessReport(True, True, True, True),
            LargenessReport(True, True, True, False),
        ),
    }


SAMPLES = samples()
# the classes whose fields are all hashable, as their frozen dataclasses' were
HASHABLE = {ContractionStep, LargenessReport}
records = pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)


def fields_of(rec):
    return [getattr(rec, name) for name in type(rec)._fields]


@records
def test_built_by_position_or_keyword(cls):
    rec, _ = SAMPLES[cls]
    values = fields_of(rec)
    names = cls._fields
    assert cls(*values) == rec
    assert cls(**dict(zip(names, values))) == rec
    assert cls(values[0], **dict(zip(names[1:], values[1:]))) == rec


@records
def test_wrong_fields_are_a_type_error(cls):
    rec, _ = SAMPLES[cls]
    values = fields_of(rec)
    first = cls._fields[0]
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    with pytest.raises(TypeError):
        cls(*values[:-1], no_such_field=values[-1])
    with pytest.raises(TypeError):
        cls(*values, **{first: values[0]})


@records
def test_equality_depends_on_class_and_fields(cls):
    rec, other = SAMPLES[cls]
    values = fields_of(rec)
    twin = type("Twin", (Record,), {"__annotations__": dict.fromkeys(cls._fields)})
    assert rec == cls(*values) and not rec != cls(*values)
    assert rec != other
    assert rec != tuple(values) and tuple(values) != rec
    assert rec != twin(*values) and twin(*values) != rec


@records
def test_hashes_where_a_dataclass_did(cls):
    rec, other = SAMPLES[cls]
    if cls in HASHABLE:
        assert hash(rec) == hash(cls(*fields_of(rec)))
        assert len({rec, cls(*fields_of(rec)), other}) == 2
    else:
        with pytest.raises(TypeError):
            hash(rec)


@records
def test_attributes_cannot_be_set_or_deleted(cls):
    rec, other = SAMPLES[cls]
    before = fields_of(rec)
    for name, value in zip(cls._fields, fields_of(other)):
        with pytest.raises(AttributeError):
            setattr(rec, name, value)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.no_such_field = 1
    assert fields_of(rec) == before


def test_contraction_step_never_equals_a_tuple():
    step = ContractionStep(contracted_edge="e", removed_vertex="b", surviving_vertex="a")
    assert step != ("e", "b", "a")
    assert step == ContractionStep("e", "b", "a")
    assert step.removed_vertex == "b"


def test_contraction_step_repr():
    assert repr(ContractionStep("e", "b", "a")) == (
        "ContractionStep(contracted_edge='e', removed_vertex='b', surviving_vertex='a')"
    )


def test_graph_stores_the_origin_map_only():
    assert Graph._fields == ("vertices", "half_edges", "origin")


def test_graph_adjacency_is_outside_equality():
    used, fresh = (build_graph(["a", "b"], [("e", "a", "b")]) for _ in range(2))
    assert used.out_edges("a") == ("e",)
    assert used.terminus == {"e": "b", "e~": "a"}
    for derived in ("_adjacency", "terminus"):
        assert derived in vars(used) and derived not in vars(fresh)
    assert used == fresh


def test_keyword_construction_validates():
    graph = build_graph(["a", "b"], [("e", "a", "b")])
    with pytest.raises(DivisibilityViolation):
        GraphOfGroups(graph=graph, vertex_order={"a": 2, "b": 3}, edge_order={"e": 2})
    gog = build_gog({"a": 2, "b": 2}, [("e", "a", "b", 2)])
    with pytest.raises(NotNormalized):
        NormalizedGog(gog=gog, tree=spanning_tree(gog.graph, "a"))
