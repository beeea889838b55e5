"""Exact Z/2 presentations and the link-complement homology."""

import itertools
import random

import pytest

from fukaya_flow import errors
from fukaya_flow.homology import F2Presentation, complement_homology
from fukaya_flow.links import (LinkingMatrix, fixture, fixture_names,
                               linking_matrix)
from helpers import reduced


def test_reduce_single_relation():
    # the relation pivots on its last generator: basis {a}, b -> a
    p = F2Presentation(("a", "b"), [("a", "b")])
    assert p.basis == ("a",)
    assert p.canonical_names(("b",)) == ("a",)


def test_reduce_free():
    p = F2Presentation(("a",))
    assert p.basis == ("a",)
    assert p.dim == 1


def test_reduce_dependent_relations():
    # brute-force rank over F2: the three vectors span a 2-dim space
    p = F2Presentation(("a", "b", "c"),
                       [("a", "b"), ("b", "c"), ("a", "c")])
    vectors = [p.vector(r) for r in (("a", "b"), ("b", "c"), ("a", "c"))]
    span = {0}
    for v in vectors:
        span |= {s ^ v for s in span}
    assert len(span) == 4  # rank 2
    assert p.dim == 1
    assert p.basis == ("a",)
    assert p.canonical_names(("b",)) == ("a",)
    assert p.canonical_names(("c",)) == ("a",)


def test_duplicate_generator_name():
    with pytest.raises(errors.DuplicateGeneratorName):
        F2Presentation(("a", "a"))


def test_reduce_idempotent_random():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 12)
        gens = tuple("g%d" % i for i in range(n))
        rels = [rng.getrandbits(n) for _ in range(rng.randint(0, 12))]
        p = F2Presentation(gens, rels)
        r1 = reduced(p)
        r2 = reduced(r1)
        assert r1 == r2
        assert r1.basis == p.basis
        assert r1.dim == p.dim


def test_expression_map_kills_relations_random():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 12)
        gens = tuple("g%d" % i for i in range(n))
        rels = [rng.getrandbits(n) for _ in range(rng.randint(1, 12))]
        p = F2Presentation(gens, rels)
        expr = {g: p.canonical_names((g,)) for g in p.generators}
        for rel in p.relations:
            acc = 0
            for name in p.names(rel):
                acc ^= p.vector(expr[name])
            assert acc == 0
        assert p.dim + len(reduced(p).relations) == len(p.generators)


def test_unknot_complement():
    # solid-torus homology: the longitude class dies, the meridian spans
    matrix = linking_matrix(fixture("unknot", (5,)))
    hom = complement_homology(matrix)
    assert hom.betti == (1, 1, 0, 0)
    deg1 = hom[1]
    assert deg1.canonical_names(("lambda^1",)) == ()
    assert deg1.basis == ("mu^1",)


def test_hopf_complement():
    # Mayer-Vietoris for the Hopf complement: lambda_j = mu_other
    hom = complement_homology(linking_matrix(fixture("hopf")))
    assert hom.betti == (1, 2, 1, 0)
    deg1 = hom[1]
    assert deg1.canonical_names(("lambda^1",)) == ("mu^2",)
    assert deg1.canonical_names(("lambda^2",)) == ("mu^1",)


def test_unlink_complement():
    hom = complement_homology(linking_matrix(fixture("2-unlink")))
    assert hom.betti == (1, 2, 1, 0)
    deg1 = hom[1]
    assert deg1.canonical_names(("lambda^1",)) == ()
    assert deg1.canonical_names(("lambda^2",)) == ()


def test_framings_do_not_change_complement():
    for framings in itertools.product((-1, 0, 1, 2), repeat=2):
        hom = complement_homology(linking_matrix(fixture("hopf", framings)))
        assert hom.betti == (1, 2, 1, 0)


def test_betti_profile_all_fixtures():
    for name in fixture_names():
        fl = fixture(name)
        k = fl.diagram.component_count
        hom = complement_homology(linking_matrix(fl))
        assert hom.betti == (1, k, k - 1, 0)


def test_degree_two_relation():
    hom = complement_homology(linking_matrix(fixture("3-unlink")))
    deg2 = hom[2]
    assert deg2.canonical_names(("dU^1", "dU^2", "dU^3")) == ()
    assert deg2.dim == 2


def test_degree_zero_identification():
    hom = complement_homology(linking_matrix(fixture("3-chain")))
    deg0 = hom[0]
    assert deg0.canonical_names(("q^1",)) == deg0.canonical_names(("q^3",))
    assert deg0.dim == 1


def test_json_schema_fields():
    hom = complement_homology(linking_matrix(fixture("hopf")))
    blob = hom[1].to_json()
    assert set(blob) == {"generators", "relations", "basis", "betti"}
    assert blob["betti"] == 2


def test_empty_linking_matrix_is_a_malformed_link():
    with pytest.raises(errors.FukayaFlowError,
                       match="at least one component") as info:
        complement_homology(LinkingMatrix(()))
    assert isinstance(info.value, errors.MalformedLink)


@pytest.mark.parametrize("relations,message", [
    ([0b10], "relation 2 names bit 1, not a generator"),
    ([0b1001], "relation 9 names bit 3, not a generator"),
    ([-1], "relation -1 names bit 1, not a generator"),
    ([0b1, -4], "relation -4 names bit 2, not a generator"),
    ([("a", "zz")], r"relation \('a', 'zz'\) names zz, not a generator"),
], ids=("bit-past-end", "high-bit", "minus-one", "negative", "name"))
def test_relation_outside_the_generators_is_refused(relations, message):
    """A relation whose bit or name is no generator's is refused when
    the presentation is built, not accepted with a dimension that
    disagrees with its basis."""
    with pytest.raises(errors.UnknownGenerator, match=message):
        F2Presentation(("a",), relations)
    # vector() still raises KeyError, which the category layer reads
    with pytest.raises(KeyError):
        F2Presentation(("a",)).vector(["zz"])
    p = F2Presentation(("a", "b"), [0b11, ("b",)])
    assert (p.dim, p.basis) == (0, ())
