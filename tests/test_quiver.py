"""Quivers with relations and F2 representations."""

import itertools
import random

import pytest

from fukaya_flow import errors, quiver
from fukaya_flow.flow import (DirectedCategoryPresentation,
                              build_flow_category, rp2_category)
from fukaya_flow.homology import F2Presentation
from fukaya_flow.links import fixture
from fukaya_flow.quiver import (QuiverPresentation, QuiverRepresentation,
                                check_relations, cp2_quiver,
                                cp2_standard_representation, from_category,
                                isomorphic, orbit, regular_representation,
                                rep_key, transform)


def test_standard_representation_satisfies_relations():
    ok, violations = check_relations(cp2_quiver(),
                                     cp2_standard_representation())
    assert ok and violations == []


def test_flipped_map_violates_named_relation():
    rep = cp2_standard_representation()
    mats = dict(rep.matrices)
    mats["a_0"] = ((0,),)
    broken = QuiverRepresentation(rep.dims, mats)
    ok, violations = check_relations(cp2_quiver(), broken)
    assert not ok
    assert violations == ["a_0.b_0 + c_0"]


def test_zero_representation_satisfies_relations():
    rep = cp2_standard_representation()
    zero = QuiverRepresentation(rep.dims,
                                {k: ((0,),) for k in rep.matrices})
    ok, _ = check_relations(cp2_quiver(), zero)
    assert ok


def test_shape_mismatch():
    rep = cp2_standard_representation()
    mats = dict(rep.matrices)
    mats["a_0"] = ((1, 0),)
    with pytest.raises(errors.ShapeMismatch):
        check_relations(cp2_quiver(), QuiverRepresentation(rep.dims, mats))
    with pytest.raises(errors.ShapeMismatch):
        check_relations(cp2_quiver(),
                        QuiverRepresentation(rep.dims,
                                             {"a_0": ((1,),)}))


def test_isomorphic_identity_and_zero():
    q = cp2_quiver()
    std = cp2_standard_representation()
    zero = QuiverRepresentation(std.dims,
                                {k: ((0,),) for k in std.matrices})
    assert isomorphic(q, std, std)
    assert not isomorphic(q, std, zero)


def test_isomorphic_dimension_cap():
    q = cp2_quiver()
    dims = {"x_4": 4, "x_2": 1, "x_0": 1}
    big = QuiverRepresentation(dims, {
        "a_0": ((1, 0, 0, 0),), "a_1": ((0, 0, 0, 0),),
        "b_0": ((1,),), "b_1": ((0,),),
        "c_0": ((1, 0, 0, 0),), "c_1": ((0, 0, 0, 0),)})
    with pytest.raises(errors.DimensionTooLarge):
        isomorphic(q, big, big)


def _random_rep(q, dims, rng):
    mats = {}
    for name, s, t in q.arrows:
        mats[name] = tuple(tuple(rng.randint(0, 1)
                                 for _ in range(dims[s]))
                           for _ in range(dims[t]))
    return QuiverRepresentation(dict(dims), mats)


def test_isomorphic_matches_orbit_oracle():
    rng = random.Random(23)
    q = QuiverPresentation(("u", "v"), (("a", "u", "v"), ("b", "u", "v")),
                           ())
    dims = {"u": 2, "v": 1}
    for _ in range(50):
        r1 = _random_rep(q, dims, rng)
        r2 = _random_rep(q, dims, rng)
        assert isomorphic(q, r1, r2) == (rep_key(q, r2) in orbit(q, r1))


def test_isomorphic_is_equivalence_relation():
    rng = random.Random(31)
    q = QuiverPresentation(("u", "v"), (("a", "u", "v"),), ())
    dims = {"u": 2, "v": 2}
    reps = [_random_rep(q, dims, rng) for _ in range(6)]
    for r in reps:
        assert isomorphic(q, r, r)
    for r1, r2 in itertools.combinations(reps, 2):
        assert isomorphic(q, r1, r2) == isomorphic(q, r2, r1)
    for r1, r2, r3 in itertools.permutations(reps, 3):
        if isomorphic(q, r1, r2) and isomorphic(q, r2, r3):
            assert isomorphic(q, r1, r3)


def test_gl_inverse():
    for n, order in ((1, 1), (2, 6), (3, 168)):
        group = quiver._gl(n)
        assert len(group) == order
        for g in group:
            inv = quiver._inverse(g)
            assert quiver._mul(inv, g) == quiver._identity(n)
            assert quiver._mul(g, inv) == quiver._identity(n)


def test_check_relations_invariant_under_isomorphism():
    rng = random.Random(37)
    q = cp2_quiver()
    dims = {"x_4": 2, "x_2": 2, "x_0": 2}
    gl2 = quiver._gl(2)
    for _ in range(20):
        rep = _random_rep(q, dims, rng)
        maps = {v: gl2[rng.randrange(len(gl2))] for v in q.vertices}
        moved = transform(q, rep, maps)
        assert check_relations(q, rep)[0] == check_relations(q, moved)[0]
        assert isomorphic(q, rep, moved)


def test_from_category_unknot():
    cat = build_flow_category(fixture("unknot", (1,)))
    q = from_category(cat)
    assert q.vertices == ("x_4", "x_2^1", "x_0")
    assert len(q.arrows) == 6
    assert len(q.relations) == 4
    by_first = {rel[0]: rel for rel in q.relations}
    assert by_first[("K+^1", "K-^1")] == ((("K+^1", "K-^1"),))
    assert set(by_first[("p+^1", "K-^1")]) == {("p+^1", "K-^1"), ("mu^1",)}


def test_from_category_rp2():
    q = from_category(rp2_category())
    rels = {frozenset(rel) for rel in q.relations}
    assert rels == {
        frozenset({("A_2", "B_2"), ("C_1",)}),
        frozenset({("A_1", "B_1"), ("C_1",)}),
        frozenset({("A_2", "B_1"), ("C_2",)}),
        frozenset({("A_1", "B_2"), ("C_2",)}),
    }


def test_from_category_empty_middle():
    cat = DirectedCategoryPresentation(
        top="t", middles=(), bottom="b",
        hom_top_mid=(), hom_mid_bottom=(),
        hom_top_bottom=F2Presentation(("g1", "g2")), table={})
    q = from_category(cat)
    assert q.vertices == ("t", "b")
    assert len(q.arrows) == 2
    assert q.relations == ()


def test_regular_representation_satisfies_relations():
    for name, framings in (("unknot", (1,)), ("hopf", (0, 1)),
                           ("3-chain", (1, 1, 0))):
        cat = build_flow_category(fixture(name, framings))
        q = from_category(cat)
        rep = regular_representation(cat)
        ok, violations = check_relations(q, rep)
        assert ok, violations


def test_regular_representation_rp2():
    cat = rp2_category()
    ok, violations = check_relations(from_category(cat),
                                     regular_representation(cat))
    assert ok, violations


def test_relation_endpoints_validated():
    with pytest.raises(ValueError):
        QuiverPresentation(("u", "v"),
                           (("a", "u", "v"), ("b", "v", "u")),
                           ((("a",), ("b",)),))


def test_dot_export():
    dot = cp2_quiver().to_dot()
    assert '"x_4" -> "x_2" [label="a_0"];' in dot


def test_representation_json():
    blob = cp2_standard_representation().to_json()
    assert blob["dims"] == {"x_0": 1, "x_2": 1, "x_4": 1}
    assert blob["matrices"]["a_0"] == [[1]]
