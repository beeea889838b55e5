"""Quivers with relations and F2 representations."""

import itertools
import random
import time

import pytest

from fukaya_flow import errors, f2, quiver
from fukaya_flow.flow import (DirectedCategoryPresentation,
                              build_flow_category, rp2_category)
from fukaya_flow.fukaya import build_fukaya_category, generator_dictionary
from fukaya_flow.homology import F2Presentation
from fukaya_flow.links import fixture, fixture_names
from fukaya_flow.quiver import (QuiverPresentation, QuiverRepresentation,
                                check_relations, cp2_quiver, from_category,
                                isomorphic, regular_representation)
from helpers import (cp2_standard_representation, dense_check_relations, gl,
                     inverse, matrix, mul, orbit, rep_key,
                     representation_json, transform)
from test_morse import CATALOG


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
    dims = {v: d for v, d in rep.dims.items() if v != "x_2"}
    with pytest.raises(errors.ShapeMismatch, match="vertex 'x_2'"):
        isomorphic(cp2_quiver(), rep, QuiverRepresentation(dims, rep.matrices))


def test_isomorphic_identity_and_zero():
    q = cp2_quiver()
    std = cp2_standard_representation()
    zero = QuiverRepresentation(std.dims,
                                {k: ((0,),) for k in std.matrices})
    assert isomorphic(q, std, std)
    assert not isomorphic(q, std, zero)


def test_isomorphic_hom_dimension_bound():
    # the zero representation's Hom space is every triple of 3x3 maps
    q = cp2_quiver()
    dims = {v: 3 for v in q.vertices}
    zero = QuiverRepresentation(dims, {
        name: ((0, 0, 0),) * 3 for name, _, _ in q.arrows})
    assert 27 > quiver.HOM_DIM_BOUND
    with pytest.raises(errors.DimensionTooLarge,
                       match=r"dim Hom is 27\b.*= %d$" % quiver.HOM_DIM_BOUND):
        isomorphic(q, zero, zero)


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
        group = gl(n)
        assert len(group) == order
        identity = tuple(1 << i for i in range(n))
        for g in group:
            inv = inverse(g)
            assert mul(inv, g) == identity
            assert mul(g, inv) == identity


def test_check_relations_invariant_under_isomorphism():
    rng = random.Random(37)
    q = cp2_quiver()
    dims = {"x_4": 2, "x_2": 2, "x_0": 2}
    gl2 = gl(2)
    for _ in range(20):
        rep = _random_rep(q, dims, rng)
        maps = {v: gl2[rng.randrange(len(gl2))] for v in q.vertices}
        moved = transform(q, rep, maps)
        assert check_relations(q, rep)[0] == check_relations(q, moved)[0]
        assert isomorphic(q, rep, moved)


def _random_invertible(rng, n):
    while True:
        g = tuple(rng.randrange(1 << n) for _ in range(n))
        if f2.rank(g) == n:
            return g


def _arrow_ranks(q, rep):
    return [f2.rank(matrix(rep, name)) for name, _, _ in q.arrows]


def test_isomorphic_matches_orbit_oracle_on_cp2_pairs():
    """Seeded cp2_quiver pairs, zero-dimensional vertices and (2, 3, 2)
    included: odd pairs are base changes, even pairs random with equal
    arrow ranks.  Every verdict matches the orbit oracle, and the pairs
    that pass both rejections, so that the Gray-code walk decides them,
    are counted by verdict."""
    rng = random.Random(41)
    q = cp2_quiver()
    shapes = ([(0, 0, 0), (0, 0, 0), (0, 2, 1), (0, 2, 1)]
              + [tuple(rng.randint(0, 2) for _ in range(3))
                 for _ in range(400)]
              + [(2, 3, 2)] * 2)
    walked = {True: 0, False: 0}
    for n, shape in enumerate(shapes):
        dims = dict(zip(q.vertices, shape))
        r1 = _random_rep(q, dims, rng)
        if n % 2:
            r2 = transform(q, r1, {v: _random_invertible(rng, dims[v])
                                   for v in q.vertices})
        else:
            r2 = _random_rep(q, dims, rng)
            while _arrow_ranks(q, r2) != _arrow_ranks(q, r1):
                r2 = _random_rep(q, dims, rng)
        verdict = isomorphic(q, r1, r2)
        assert verdict == (rep_key(q, r2) in orbit(q, r1)), (n, shape)
        # equal dims and dim Hom = dim End pass both rejections
        cols1, cols2 = quiver._columns(q, r1), quiver._columns(q, r2)
        if len(quiver._hom_basis(q, dims, cols1, cols2)) == \
                len(quiver._hom_basis(q, dims, cols1, cols1)):
            walked[verdict] += 1
    assert walked == {True: 333, False: 12}


def test_isomorphic_past_the_oracle_on_catalog_categories():
    # bottom dimension 2k, up to 6, beyond the oracle's GL(3, F2)
    rng = random.Random(43)
    bottoms = []
    for name in fixture_names():
        cat = build_flow_category(fixture(name))
        q, rep = from_category(cat), regular_representation(cat)
        bottoms.append(rep.dims[cat.bottom])
        moved = transform(q, rep, {v: _random_invertible(rng, rep.dims[v])
                                   for v in q.vertices})
        assert isomorphic(q, rep, rep) and isomorphic(q, rep, moved), name
        arrow = rng.choice([a for a, _, _ in q.arrows
                            if f2.rank(matrix(rep, a))])
        mats = dict(rep.matrices)
        mats[arrow] = tuple((0,) * len(row) for row in mats[arrow])
        cut = QuiverRepresentation(rep.dims, mats)
        assert _arrow_ranks(q, cut) != _arrow_ranks(q, rep)
        assert not isomorphic(q, rep, cut), (name, arrow)
        assert not isomorphic(q, cut, moved), (name, arrow)
    assert max(bottoms) == 6


def test_isomorphic_333_pair_within_a_tenth_of_a_second():
    rng = random.Random(47)
    q = cp2_quiver()
    dims = {v: 3 for v in q.vertices}
    r1 = _random_rep(q, dims, rng)
    r2 = _random_rep(q, dims, rng)
    while _arrow_ranks(q, r2) == _arrow_ranks(q, r1):
        r2 = _random_rep(q, dims, rng)
    moved = transform(q, r1, {v: _random_invertible(rng, 3)
                              for v in q.vertices})
    start = time.perf_counter()
    apart = isomorphic(q, r1, r2)
    elapsed = time.perf_counter() - start
    # a rank difference proves the pair apart
    assert not apart and elapsed < 0.1
    start = time.perf_counter()
    same = isomorphic(q, r1, moved)
    elapsed = time.perf_counter() - start
    assert same and elapsed < 0.1


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


@pytest.mark.parametrize("arrows,relations,message", [
    ((("a", "u", "w"),), (), "arrow 'a': 'w' is not a vertex"),
    ((("a", "w", "u"),), (), "arrow 'a': 'w' is not a vertex"),
    ((("a", "u", "v"), ("a", "v", "u")), (), "arrow 'a' is named twice"),
    ((("a", "u", "v"),), ((("a",), ("b",)),), "no arrow named 'b'"),
    ((("a", "u", "v"),), (((),),), "empty path"),
    ((("a", "u", "v"), ("b", "u", "v")), ((("a", "b"),),),
     r"path \('a', 'b'\) is not composable at arrow 'b'"),
])
def test_malformed_quiver_names_the_fault(arrows, relations, message):
    with pytest.raises(errors.MalformedQuiver, match=message) as info:
        QuiverPresentation(("u", "v"), arrows, relations)
    assert isinstance(info.value, errors.FukayaFlowError)
    assert isinstance(info.value, ValueError)


def _random_quiver(rng):
    """A quiver on 2-4 vertices with loops and parallel arrows allowed,
    and relations among its paths of length 1-3 that share endpoints;
    some relations repeat a path, so that they hold in every
    representation."""
    vertices = tuple("v%d" % i for i in range(rng.randint(2, 4)))
    arrows = tuple(("a%d" % i, rng.choice(vertices), rng.choice(vertices))
                   for i in range(rng.randint(2, 6)))
    ends = {a: (s, t) for a, s, t in arrows}
    paths = frontier = [(a,) for a in ends]
    for _ in range(2):
        frontier = [p + (a,) for p in frontier for a in ends
                    if ends[a][0] == ends[p[-1]][1]]
        paths = paths + frontier
    by_ends = {}
    for p in paths:
        by_ends.setdefault((ends[p[0]][0], ends[p[-1]][1]), []).append(p)
    groups = list(by_ends.values())
    relations = []
    for _ in range(rng.randint(1, 4)):
        group = rng.choice(groups)
        rel = rng.sample(group, rng.randint(1, min(3, len(group))))
        if rng.random() < 0.2:
            rel.append(rel[0])
        relations.append(tuple(rel))
    return QuiverPresentation(vertices, arrows, tuple(relations))


def test_check_relations_matches_dense_oracle_on_random_quivers():
    # entries 2 and -1 exercise the reduction mod 2; sources of
    # dimension above 1 exercise every unit vector
    rng = random.Random(61)
    verdicts = {True: 0, False: 0}
    for _ in range(400):
        q = _random_quiver(rng)
        dims = {v: rng.randint(0, 3) for v in q.vertices}
        entries = rng.choice([(0, 1), (0, 2), (0, 1, 2, -1), (0, 0, 0, 3)])
        rep = QuiverRepresentation(dims, {
            name: tuple(tuple(rng.choice(entries) for _ in range(dims[s]))
                        for _ in range(dims[t]))
            for name, s, t in q.arrows})
        got = check_relations(q, rep)
        assert got == dense_check_relations(q, rep)
        verdicts[got[0]] += 1
    assert min(verdicts.values()) > 50, verdicts


def _catalog_links():
    for name in CATALOG:
        k = fixture(name).diagram.component_count
        for framings in itertools.product((-1, 0, 1, 2), repeat=k):
            yield fixture(name, framings)


def test_check_relations_matches_dense_oracle_on_catalog_flips():
    # every framed catalog link, each mid -> bottom arrow with one entry
    # of its regular representation flipped
    rng = random.Random(67)
    count = 0
    for fl in _catalog_links():
        cat = build_flow_category(fl)
        q, rep = from_category(cat), regular_representation(cat)
        assert check_relations(q, rep) == dense_check_relations(q, rep) \
            == (True, [])
        for j, mid in enumerate(cat.middles):
            for v in cat.hom_mid_bottom[j]:
                rows = [list(row) for row in rep.matrices[v]]
                i, c = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
                rows[i][c] ^= 1
                mats = dict(rep.matrices)
                mats[v] = tuple(map(tuple, rows))
                flipped = QuiverRepresentation(rep.dims, mats)
                got = check_relations(q, flipped)
                assert not got[0]
                assert got == dense_check_relations(q, flipped)
        count += 1
    assert count == 188


def test_flow_and_fukaya_regular_representations_isomorphic():
    # the Fukaya category's regular representation, arrows renamed by
    # the generator dictionary and moved by a random base change, is
    # isomorphic to the flow category's; zeroing one arrow of nonzero
    # rank breaks the isomorphism
    rng = random.Random(71)
    moved_apart = 0
    for fl in _catalog_links():
        flow_cat, fukaya_cat = build_flow_category(fl), \
            build_fukaya_category(fl)
        q, rep = from_category(flow_cat), regular_representation(flow_cat)
        names = generator_dictionary(len(flow_cat.middles))
        objects = dict(zip(fukaya_cat.objects, flow_cat.objects))
        fuk = regular_representation(fukaya_cat)
        renamed = QuiverRepresentation(
            {objects[v]: d for v, d in fuk.dims.items()},
            {names[a]: rows for a, rows in fuk.matrices.items()})
        moved = transform(q, renamed, {
            v: _random_invertible(rng, rep.dims[v]) for v in q.vertices})
        assert isomorphic(q, rep, moved), fl.framings
        moved_apart += moved != rep
        arrow = rng.choice([a for a, _, _ in q.arrows
                            if f2.rank(matrix(moved, a))])
        mats = dict(moved.matrices)
        mats[arrow] = tuple((0,) * len(row) for row in mats[arrow])
        cut = QuiverRepresentation(moved.dims, mats)
        assert not isomorphic(q, rep, cut), (fl.framings, arrow)
    # without the base change the renamed representation equals the
    # flow one; with it, most pairs differ entry by entry
    assert moved_apart > 150, moved_apart


def test_representation_json():
    blob = representation_json(cp2_standard_representation())
    assert blob["dims"] == {"x_0": 1, "x_2": 1, "x_4": 1}
    assert blob["matrices"]["a_0"] == [[1]]


def test_cp2_quiver_does_not_present_the_pipeline_cp2_category():
    # hom(x_4, x_0) of the path algebra: the four two-step paths and the
    # two long arrows, less the span of the relations
    q = cp2_quiver()
    paths = [(a, b) for a in ("a_0", "a_1") for b in ("b_0", "b_1")] + [
        ("c_0",), ("c_1",)]
    rows = [sum(1 << paths.index(p) for p in rel) for rel in q.relations]
    assert len(paths) - f2.rank(rows) == 3
    cat = build_flow_category(fixture("unknot", (1,)))
    assert regular_representation(cat).dims[cat.bottom] == 2
