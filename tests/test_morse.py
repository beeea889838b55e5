"""Cascade complexes, the case-I engine, and the handle decomposition."""

import functools
import itertools
import math
import operator
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

from fukaya_flow import errors, f2, morse
from fukaya_flow.homology import complement_homology
from fukaya_flow.links import FramedLink, fixture, linking_matrix, parse_pd
from fukaya_flow.morse import (AffineMap, CascadeComplex, CascadeData,
                               CircleProfile, Correspondence,
                               CriticalComponent, FlatModel,
                               IntegerReducer, IntersectionDescription,
                               cascade_moduli, differential_case_I,
                               handle_complex_from_link, identity_map,
                               intersect_cell_groups, projection_map,
                               square_torus, standard_lower_pair,
                               standard_upper_pair, two_point_profile)
from helpers import (complex_from_names, reference_betti_by_degree,
                     reference_handle_complex, reference_homology_basis)
from test_links import braid_closure_pd, over_count

CATALOG = ("unknot", "2-unlink", "3-unlink", "hopf", "trefoil", "3-chain",
           "unknot-kink", "hopf-kink")


def test_case_one_upper_differentials():
    upper, lower, corr = standard_upper_pair()
    cx = differential_case_I(upper, lower, corr)
    assert cx.boundary("x2") == ()
    assert cx.boundary("x1") == ()
    assert cx.boundary("x1'") == ("a1",)
    assert cx.boundary("x0") == ("a0",)
    assert set(cx.homology_basis()) == {"x2", "x1"}


def test_case_one_lower_differentials():
    upper, lower, corr = standard_lower_pair()
    cx = differential_case_I(upper, lower, corr)
    assert cx.boundary("y2") == ()
    assert cx.boundary("y1'") == ()
    assert cx.boundary("y1") == ("b1",)
    assert cx.boundary("y0") == ("b0",)
    assert set(cx.homology_basis()) == {"y2", "y1'"}


def test_empty_correspondence_block_differential():
    upper, lower, _ = standard_upper_pair()
    cx = differential_case_I(upper, lower, None)
    for g in cx.generators:
        assert cx.boundary(g) == ()
    assert len(cx.homology_basis()) == 6


def test_zero_differential_rank():
    cx = CascadeComplex(("a", "b", "c"), (0, 0, 0))
    assert len(cx.homology_basis()) == 3
    assert set(cx.homology_basis()) == {"a", "b", "c"}


def test_square_zero_enforced():
    with pytest.raises(errors.DifferentialNotSquareZero,
                       match=r"d\(d a\) = \['c'\]"):
        CascadeComplex(("a", "b", "c"), (0b010, 0b100, 0))


def test_unknown_generators_in_complex_named():
    # d g with a bit past the generators, and a column for no generator
    with pytest.raises(errors.MalformedComplex,
                       match="column of g is 2, not a bitmask over 1 "):
        CascadeComplex(("g",), (0b10,))
    with pytest.raises(errors.MalformedComplex,
                       match="2 columns for 1 generators"):
        CascadeComplex(("g",), (0, 0))
    # a degree or a component on a name that is no generator
    with pytest.raises(errors.UnknownGenerator,
                       match="degree given on zz, not a generator"):
        CascadeComplex(("a",), (0,), {"a": 0, "zz": 3})
    with pytest.raises(errors.UnknownGenerator,
                       match="component given on zz, not a generator"):
        CascadeComplex(("a",), (0,), {"a": 0}, {"zz": "c"})
    cx = CascadeComplex(("g", "h"), (0b10, 0), {"g": 1})
    with pytest.raises(errors.UnknownGenerator, match="h has no degree"):
        cx.betti_by_degree()
    with pytest.raises(errors.UnknownGenerator, match="zz is not a gen"):
        cx.boundary("zz")


@pytest.mark.parametrize("build,message", [
    (lambda: CascadeComplex(("a",), (0,)).betti_by_degree(),
     "complex carries no degrees"),
    # d a = b keeps the degree of a
    (lambda: CascadeComplex(("a", "b"), (0b10, 0),
                            {"a": 1, "b": 1}).betti_by_degree(),
     "differential does not drop degree"),
    # d a lands in degree 0, and no generator has degree 1
    (lambda: CascadeComplex(("a", "b"), (0b10, 0),
                            {"a": 2, "b": 0}).betti_by_degree(),
     "differential does not drop degree"),
    (lambda: CascadeComplex(("a",), (0,), {"a": -1}).betti_by_degree(),
     "generator a has degree -1, not an int >= 0"),
    (lambda: CascadeComplex(("a",), (0,), {"a": "x"}).betti_by_degree(),
     "generator a has degree 'x', not an int >= 0"),
    (lambda: CascadeComplex(("a",), (0,), {"a": 1.5}).betti_by_degree(),
     "generator a has degree 1.5, not an int >= 0"),
    (lambda: AffineMap(((1, 0),), (F(0), F(0))), "one offset per row"),
], ids=("no-degrees", "degree-kept", "empty-degree", "negative-degree",
        "str-degree", "float-degree", "offset-count"))
def test_malformed_complex_is_a_package_error(build, message):
    with pytest.raises(errors.FukayaFlowError, match=message) as info:
        build()
    assert isinstance(info.value, errors.MalformedComplex)
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("args,message", [
    ((("a", "b"), (0,)), "1 columns for 2 generators"),
    ((("a", "b"), (0b10, "a")), "column of b is 'a', not a bitmask"),
    ((("a", "b"), (2.0, 0)), "column of a is 2.0, not a bitmask"),
    ((("a", "b"), (-1, 0)), "column of a is -1, not a bitmask over 2 gen"),
    # the name-based form of the constructor is gone
    ((("a", "b"), {"a": ("b",)}), "1 columns for 2 generators"),
    ((("a",), {"a": ("b",)}), "column of a is 'a', not a bitmask"),
], ids=("too-few-columns", "str-column", "float-column", "negative-column",
        "name-mapping", "name-mapping-one"))
def test_columns_are_checked_when_built(args, message):
    """One int bitmask over the generators per generator, or a
    MalformedComplex naming the column; the other checks of the one
    constructor are in the tests of unknown generators, repeated names
    and d o d = 0."""
    with pytest.raises(errors.MalformedComplex, match=message) as info:
        CascadeComplex(*args)
    assert isinstance(info.value, errors.FukayaFlowError)


def test_boundary_and_json_name_the_columns():
    # columns over (z, y, x): d x = z + y and d y = d z = 0; names come
    # out sorted, whatever the bit order
    cx = CascadeComplex(("z", "y", "x"), (0, 0, 0b011), {"x": 1},
                        {"x": "c"})
    assert [cx.boundary(g) for g in cx.generators] == [(), (), ("y", "z")]
    assert cx.to_json() == {
        "generators": [{"name": "z", "degree": None, "component": None},
                       {"name": "y", "degree": None, "component": None},
                       {"name": "x", "degree": 1, "component": "c"}],
        "differential": [["x", ["y", "z"]]]}
    assert not hasattr(cx, "differential") and not hasattr(cx, "_cols")


def test_translation_invariance_of_marked_points():
    base = {}
    upper, lower, corr = standard_upper_pair()
    cx = differential_case_I(upper, lower, corr)
    base = {g: cx.boundary(g) for g in cx.generators}
    for shift in (F(1, 16), F(1, 5), F(3, 7), F(9, 11)):
        upper, lower, corr = standard_upper_pair(shift)
        shifted = differential_case_I(upper, lower, corr)
        renamed = {g: shifted.boundary(g) for g in shifted.generators}
        assert renamed == base


def test_degenerate_marked_points_raise():
    # shifting by 1/4 parks a circle critical point on a torus cell wall
    upper, lower, corr = standard_upper_pair(F(1, 4))
    with pytest.raises(errors.NonTransverse):
        differential_case_I(upper, lower, corr)


def test_action_order_enforced():
    upper, lower, corr = standard_upper_pair()
    swapped = Correspondence("K+", "Sigma42", 2, identity_map(2),
                             projection_map(2, 0))
    with pytest.raises(errors.ActionOrderViolation):
        differential_case_I(lower, upper, swapped)


def _random_case_one_complexes():
    """Case-I complexes of random transverse correspondences from a
    torus onto a circle: 25 of them, from at most 200 trials."""
    rng = random.Random(5)
    denominators = (16, 5, 7, 11, 13)
    count = 0
    trials = 0
    while count < 25 and trials < 200:
        trials += 1
        d1, d2 = rng.choice(denominators), rng.choice(denominators)
        s1 = F(rng.randrange(1, d1), d1)
        s2 = F(rng.randrange(1, d2), d2)
        prof = two_point_profile(s1, F(1, 2) + s1)
        torus = FlatModel((prof, prof), {
            (0, 0): "t00", (0, 1): "t01", (1, 0): "t10", (1, 1): "t11"})
        circle = FlatModel((two_point_profile(s2, F(1, 2) + s2),),
                           _names_for(s2))
        upper = CriticalComponent("T", torus, F(1))
        lower = CriticalComponent("C", circle, F(0))
        ev_plus = rng.choice((projection_map(2, 0), projection_map(2, 1),
                              AffineMap(((1, 1),), (F(0),)),
                              AffineMap(((1, -1),), (F(1, 3),))))
        corr = Correspondence("T", "C", 2, identity_map(2), ev_plus)
        try:
            cx = differential_case_I(upper, lower, corr)
        except errors.NonTransverse:
            continue
        count += 1
        yield cx
    assert count >= 25


def test_random_correspondences_square_zero():
    for cx in _random_case_one_complexes():
        # constructor already verifies d^2 = 0; double-check ranks add
        # up: dim H = dim C - 2 rank d
        index = {g: i for i, g in enumerate(cx.generators)}
        rank = f2.rank([functools.reduce(
            operator.xor, (1 << index[h] for h in cx.boundary(g)), 0)
            for g in cx.generators])
        assert len(cx.homology_basis()) == len(cx.generators) - 2 * rank


def _names_for(min_pos):
    from fukaya_flow.morse import _mod1
    if _mod1(min_pos) < _mod1(min_pos + F(1, 2)):
        return {(0,): "c_min", (1,): "c_max"}
    return {(0,): "c_max", (1,): "c_min"}


def test_triangle_product_local_table():
    # triple intersections in the flat model derive the local products
    table = morse.triangle_product_table()
    assert table[("x2", "y2")] == ("z2",)
    assert table[("x1", "y2")] == ("z1",)
    assert table[("x2", "y1'")] == ("z1'",)
    assert table[("x1", "y1'")] == ("z0",)
    # all products of the surviving generators are single classes
    for x in ("x1", "x2"):
        for y in ("y2", "y1'"):
            assert len(table[(x, y)]) == 1


def test_cascade_moduli_k0_same_component():
    upper, lower, corr = standard_upper_pair()
    data = CascadeData((upper, lower), (corr,))
    configs = cascade_moduli(data, "x2", "x0", 0)
    assert configs == [{"cascades": 0, "component": "Sigma42", "dim": 2,
                        "points": []}]
    assert cascade_moduli(data, "x2", "a0", 0) == []


def test_cascade_moduli_k1_matches_case_one():
    upper, lower, corr = standard_upper_pair()
    data = CascadeData((upper, lower), (corr,))
    cx = differential_case_I(upper, lower, corr)
    for x in upper.generator_names():
        for y in lower.generator_names():
            configs = cascade_moduli(data, x, y, 1)
            zero_dim_points = sum(len(c["points"]) for c in configs
                                  if c["dim"] == 0)
            expected = 1 if y in cx.boundary(x) else 0
            assert zero_dim_points % 2 == expected


@pytest.mark.parametrize("pair,x,y,k", [
    ("upper", "x1", "x1'", 0), ("upper", "x1'", "x1", 0),
    ("upper", "x1", "a1", 1),
    ("lower", "y1", "y1'", 0), ("lower", "y1'", "y1", 0),
    ("lower", "y1'", "b1", 1)])
def test_cascade_moduli_drops_empty_positive_dimensional(pair, x, y, k):
    # one coordinate is pinned twice: in the upper pair U(x1) needs
    # w0 = 0, S(x1') needs w0 = 1/2 and S(a1) pulls back to w0 = 3/4, and
    # the lower pair pins a coordinate the same way.  The equations have
    # rank 1 < 2 and no solution: no moduli space, where the consistent
    # rank-1 overlaps from the top generator are 1-dimensional
    upper, lower, corr = getattr(morse, "standard_%s_pair" % pair)()
    data = CascadeData((upper, lower), (corr,))
    assert cascade_moduli(data, x, y, k) == []
    top = upper.generator_names()[-1]
    assert [c["dim"] for c in cascade_moduli(data, top, y, k)] == [1]


def test_cascade_moduli_k2_empty():
    upper, lower, corr = standard_upper_pair()
    data = CascadeData((upper, lower), (corr,))
    assert cascade_moduli(data, "x2", "a0", 2) == []


def test_cascade_moduli_bounded_by_action_levels():
    # a chain of k correspondences passes k + 1 distinct action levels,
    # so k = 30 over two levels is empty without trying 6^30 chains
    upper, lower, corr = standard_upper_pair()
    data = CascadeData((upper, lower), (corr,) * 6)
    assert cascade_moduli(data, "x2", "a0", 30) == []


def test_unsupported_model_error():
    with pytest.raises(errors.UnsupportedModel):
        two_point_profile(F(0), F(0))
    with pytest.raises(errors.UnsupportedModel):
        CriticalComponent("bad", object(), F(0))
    with pytest.raises(errors.UnsupportedModel, match="integer linear"):
        AffineMap(((F(1, 2),),), (F(0),))


def test_point_component_over_circle():
    # an isolated critical point flowing onto a circle: the strip cell
    # is a single point evaluating at q, and the boundary picks up the
    # minimum whose stable arc contains q
    point = CriticalComponent("p*", FlatModel((), {(): "p"}, index=1), F(1))
    circle = CriticalComponent(
        "C", FlatModel((two_point_profile(F(1, 4), F(3, 4)),),
                       {(0,): "m", (1,): "M"}), F(0))
    corr = Correspondence("p*", "C", 0,
                          AffineMap((), ()),
                          AffineMap(((),), (F(0),)))
    cx = differential_case_I(point, circle, corr)
    assert cx.boundary("p") == ("m",)
    # evaluating exactly at the maximum lands on the stable-cell
    # boundary of the minimum
    corr = Correspondence("p*", "C", 0,
                          AffineMap((), ()),
                          AffineMap(((),), (F(3, 4),)))
    with pytest.raises(errors.NonTransverse):
        differential_case_I(point, circle, corr)


def _four_point_circle(start):
    # minima at start and start + 1/2, a maximum a quarter turn after each
    return CircleProfile(tuple((start + F(i, 4), i % 2) for i in range(4)))


def test_multi_point_profiles():
    # Morse homology does not depend on the number of critical points:
    # a 4-point circle times a 2-point circle is still a torus
    four = _four_point_circle(F(0))
    torus = FlatModel((four, two_point_profile(F(1, 8), F(5, 8))),
                      {(i, j): "t%d%d" % (i, j)
                       for i in range(4) for j in range(2)})
    circle = FlatModel((two_point_profile(F(1, 4), F(3, 4)),),
                       {(0,): "c0", (1,): "c1"})
    cx = differential_case_I(CriticalComponent("T", torus, F(1)),
                             CriticalComponent("C", circle, F(0)), None)
    # each maximum of the 4-point factor bounds two distinct minima
    assert cx.boundary("t10") == ("t00", "t20")
    assert len(cx.homology_basis()) == 6
    assert cx.betti_by_degree() == (2, 3, 1)


def test_square_torus_over_four_point_circle():
    # stable cells of the 4-point circle's minima are arcs; the surviving
    # classes match the 2-point standard upper pair
    four = FlatModel((_four_point_circle(F(1, 8)),),
                     {(i,): "c%d" % i for i in range(4)})
    upper = CriticalComponent("T", square_torus("x", F(0)), F(1))
    lower = CriticalComponent("C", four, F(0))
    for coord, basis in ((0, {"x1", "x2"}), (1, {"x1'", "x2"})):
        corr = Correspondence("T", "C", 2, identity_map(2),
                              projection_map(2, coord))
        cx = differential_case_I(upper, lower, corr)
        assert set(cx.homology_basis()) == basis


def test_flat_model_names_checked():
    prof = two_point_profile(F(0), F(1, 2))
    with pytest.raises(errors.UnsupportedModel, match="distinct"):
        FlatModel((prof,), {(0,): "a", (1,): "a"})
    with pytest.raises(errors.UnsupportedModel, match="grid"):
        FlatModel((prof,), {(0,): "a"})
    with pytest.raises(errors.UnsupportedModel):
        FlatModel((prof,) * 3, {})


def _point(name, action):
    return CriticalComponent(name, FlatModel((), {(): name}), F(action))


def test_cascade_moduli_chain_of_two_unsupported():
    upper, lower, corr = standard_upper_pair()
    below = Correspondence("K+", "p", 0, AffineMap(((),), (F(1, 2),)),
                           AffineMap((), ()))
    data = CascadeData((upper, lower, _point("p", -1)), (corr, below))
    assert cascade_moduli(data, "x2", "p", 1) == []
    with pytest.raises(errors.UnsupportedModel, match="chains of 2"):
        cascade_moduli(data, "x2", "p", 2)
    assert cascade_moduli(data, "x2", "p", 3) == []


def test_cascade_moduli_negative_count():
    upper, lower, corr = standard_upper_pair()
    data = CascadeData((upper, lower), (corr,))
    with pytest.raises(errors.NegativeCascadeCount, match="-1"):
        cascade_moduli(data, "x2", "a0", -1)


def test_cascade_moduli_walks_chains():
    # 8 levels, 6 parallel correspondences per step: 42^7 tuples of
    # correspondences, but the walk visits one set of ends per step
    points = tuple(_point("p%d" % i, 7 - i) for i in range(8))
    corrs = tuple(Correspondence("p%d" % i, "p%d" % (i + 1), 0,
                                 AffineMap((), ()), AffineMap((), ()))
                  for i in range(7) for _ in range(6))
    data = CascadeData(points, corrs)
    with pytest.raises(errors.UnsupportedModel, match="chains of 7"):
        cascade_moduli(data, "p0", "p7", 7)
    assert cascade_moduli(data, "p0", "p7", 6) == []
    assert len(cascade_moduli(data, "p6", "p7", 1)) == 6


def test_cascade_data_names_missing_component():
    upper, lower, _ = standard_upper_pair()
    corr = Correspondence("Sigma42", "nope", 2, identity_map(2),
                          projection_map(2, 0))
    with pytest.raises(errors.UnknownComponent,
                       match="Sigma42 -> nope: no component named 'nope'"):
        CascadeData((upper, lower), (corr,))


def test_evaluation_map_shapes_checked():
    upper, lower, _ = standard_upper_pair()
    # rows must have one column per coordinate of the cell
    with pytest.raises(errors.ShapeMismatch, match="ev_minus needs 1 col"):
        Correspondence("Sigma42", "K+", 1, identity_map(2),
                       projection_map(2, 0))
    # one row per coordinate of the model mapped into: the circle K+ and
    # the torus Sigma42
    for corr, side in (
            (Correspondence("Sigma42", "K+", 2, identity_map(2),
                            identity_map(2)), "ev_plus has 2 rows"),
            (Correspondence("Sigma42", "K+", 2, projection_map(2, 0),
                            projection_map(2, 0)), "ev_minus has 1 rows")):
        with pytest.raises(errors.ShapeMismatch, match=side):
            CascadeData((upper, lower), (corr,))
        with pytest.raises(errors.ShapeMismatch, match=side):
            differential_case_I(upper, lower, corr)
    other = Correspondence("Sigma20", "K-", 2, identity_map(2),
                           projection_map(2, 1))
    with pytest.raises(errors.UnknownComponent, match="does not join"):
        differential_case_I(upper, lower, other)


def test_repeated_generator_names_rejected():
    upper, _, _ = standard_upper_pair()
    twin = CriticalComponent("T2", square_torus("x", F(1, 8)), F(0))
    with pytest.raises(errors.DuplicateGeneratorName, match="x0 occurs"):
        differential_case_I(upper, twin, None)
    with pytest.raises(errors.DuplicateGeneratorName, match="g occurs"):
        CascadeComplex(("g", "h", "g"), (0, 0, 0))


def test_two_point_circle_cell_is_arc_of_length_one():
    # the unstable cell of the maximum is the circle minus the minimum
    prof = two_point_profile(F(1, 4), F(3, 4))
    assert prof.cell(1, False) == ("arc", F(1, 4), F(1))
    assert prof.cell(0, True) == ("arc", F(3, 4), F(1))


# --- exact intersections ----------------------------------------------------


def _overlap(last_rhs):
    # the last two equations' rows sum to zero, so they can both hold
    # only if their right-hand sides sum to an integer
    return [([((0, -3), 2), ((0, 2), 4)], []),
            ([((-2, 1), 0), ((-1, -3), 13)], []),
            ([((1, 3), last_rhs)], [])]


def test_inconsistent_rank_deficient_overlap_is_empty():
    # 13 + 1/4 is not an integer; a Q-basis of the dependencies scaled
    # to primitive vectors can miss the combination that shows it
    assert intersect_cell_groups(2, _overlap(F(1, 4))) == \
        IntersectionDescription(dim=0, empty=True)


def test_consistent_rank_deficient_overlap_raises():
    # w = (0, 0) solves every equation
    with pytest.raises(errors.NonTransverse, match="rank-deficient"):
        intersect_cell_groups(2, _overlap(F(0)))


def test_non_transverse_names_what_is_at_fault():
    # the dependencies of _overlap combine rows of all three cell groups
    with pytest.raises(errors.NonTransverse,
                       match="overlap of cell groups 0, 1, 2;"):
        intersect_cell_groups(2, _overlap(F(0)))
    # the point x = 1/4 of group 0 is the start of group 1's open arc
    groups = [([((1,), F(1, 4))], []), ([], [((1,), 0, F(1, 4), F(1, 2))])]
    with pytest.raises(errors.NonTransverse) as info:
        intersect_cell_groups(1, groups)
    assert "point (1/4) lies on the boundary of cell group 1's open " \
        "condition 0 < (1).w + 0 - 1/4 < 1/2 mod 1" in str(info.value)


def test_contradictory_equations_in_one_cell_are_empty():
    # x = 0 and x = 1/2 together, and 0 = 1/2 alone, have no solution
    assert intersect_cell_groups(2, [([((1, 0), 0), ((1, 0), F(1, 2))],
                                      [])]) == \
        IntersectionDescription(dim=1, empty=True)
    assert intersect_cell_groups(2, [([((0, 0), F(1, 2))], [])]) == \
        IntersectionDescription(dim=2, empty=True)
    # one equation stated twice still leaves a line
    assert intersect_cell_groups(2, [([((1, 0), F(1, 3)),
                                       ((1, 0), F(1, 3))], [])]) == \
        IntersectionDescription(dim=1)


def test_integer_reducer_combinations():
    rng = random.Random(11)
    for _ in range(200):
        m = rng.randint(1, 4)
        rows, known_dependent = [], set()
        for n in range(rng.randint(1, 6)):
            if rows and rng.random() < 0.3:
                # a known integer combination of the rows so far
                coeffs = [rng.randint(-2, 2) for _ in rows]
                rows.append(tuple(sum(k * r[c] for k, r in zip(coeffs, rows))
                                  for c in range(m)))
                known_dependent.add(n)
            else:
                rows.append(tuple(rng.randint(-3, 3) for _ in range(m)))
        red = IntegerReducer()
        independent = 0
        for n, row in enumerate(rows):
            residual, combo, scale = red.add(row)
            assert set(combo) <= set(range(n))
            assert scale > 0
            assert residual == [scale * row[c] - sum(x * rows[i][c]
                                                     for i, x in combo.items())
                                for c in range(m)]
            if n in known_dependent:
                assert not any(residual)
            independent += any(residual)
        assert red.rank == independent
        # the pivot combinations reproduce the pivot rows: the pivot
        # scale at each pivot and a 0 at every other pivot
        pivots = [([sum(x * rows[i][c] for i, x in combo.items())
                    for c in range(m)], scale)
                  for combo, scale in red.pivots()]
        lead = [next(c for c, a in enumerate(p) if a) for p, _ in pivots]
        assert lead == sorted(lead)
        for p, scale in pivots:
            assert [p[c] for c in lead] == [scale if p is q else 0
                                             for q, _ in pivots]
        # each combination is primitive
        for combo, _ in red.pivots():
            assert math.gcd(*combo.values()) == 1


def _random_flat_system(rng, m):
    dens = (1, 2, 3, 4, 8)

    def frac():
        d = rng.choice(dens)
        return F(rng.randrange(d), d)

    def row():
        return tuple(rng.randint(-2, 2) for _ in range(m))

    groups = []
    for _ in range(rng.randint(1, 3)):
        eqs = [(row(), frac()) for _ in range(rng.randint(0, m))]
        opens = []
        for _ in range(rng.randint(0, 2)):
            if rng.random() < 0.5:
                d = rng.choice(dens)
                opens.append((row(), frac(), frac(),
                              F(rng.randint(1, d), d)))
            else:
                # the circle minus one point
                opens.append((row(), frac(), frac(), F(1)))
        groups.append((eqs, opens))
    return groups


def test_intersection_points_satisfy_every_condition():
    rng = random.Random(23)
    found = 0
    for _ in range(2000):
        m = rng.choice((0, 1, 2))
        groups = _random_flat_system(rng, m)
        try:
            desc = intersect_cell_groups(m, groups)
        except errors.NonTransverse:
            continue
        if desc.dim:
            continue
        for w in desc.points:
            found += 1
            assert all(0 <= x < 1 for x in w)
            for eqs, opens in groups:
                for row, rhs in eqs:
                    assert (sum(a * x for a, x in zip(row, w)) - rhs
                            ).denominator == 1
                for row, off, start, length in opens:
                    val = morse._mod1(sum(a * x for a, x in zip(row, w))
                                      + off)
                    assert 0 < morse._mod1(val - start) < length
    assert found > 500


def test_intersection_finds_planted_points():
    # right-hand sides read off a chosen point w: the search must return
    # w among the points, also where the rows span a proper sublattice
    rng = random.Random(29)
    sublattice = 0
    for _ in range(500):
        m = rng.choice((1, 2))
        w = tuple(F(rng.randrange(d), d)
                  for d in (rng.choice((1, 2, 3, 4, 8)) for _ in range(m)))
        rows = [tuple(rng.randint(-2, 2) for _ in range(m))
                for _ in range(rng.randint(m, m + 2))]
        eqs = [(row, morse._mod1(sum(a * x for a, x in zip(row, w))))
               for row in rows]
        desc = intersect_cell_groups(m, [(eqs, [])])
        assert not desc.empty
        if desc.dim == 0:
            assert w in desc.points
            sublattice += len(desc.points) > 1
    assert sublattice > 50


def _independent_rows(m, groups):
    """The first m linearly independent equation rows, or None."""
    rows = [row for eqs, _ in groups for row, _ in eqs]
    if m == 1:
        return next(([r] for r in rows if r[0]), None)
    return next(([r, s] for r, s in itertools.combinations(rows, 2)
                 if r[0] * s[1] - r[1] * s[0]), None)


def _grid_oracle(m, rows, groups):
    """Brute force over the grid (1/G) Z^m in [0, 1)^m with G = L |det A|,
    for L the common denominator and A the m independent rows: A w = rhs
    mod 1 puts every solution w in A^-1 (1/L) Z^m, inside the grid.
    Returns G, the solutions w of the equations as rows G w, and per
    open condition and solution whether the solution is strictly inside
    and whether it is on the boundary."""
    lcd = math.lcm(*(x.denominator for eqs, opens in groups
                     for x in [b for _, b in eqs]
                     + [y for op in opens for y in op[1:]]))
    det = rows[0][0] if m == 1 else \
        rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    g = lcd * abs(det)
    grid = np.indices((g,) * m).reshape(m, -1)

    def value(row):
        return sum(a * grid[j] for j, a in enumerate(row))

    solves = np.ones(grid.shape[1], dtype=bool)
    for eqs, _ in groups:
        for row, rhs in eqs:
            solves &= (value(row) - int(rhs * g)) % g == 0
    opens = [op for _, group_opens in groups for op in group_opens]
    t = np.zeros((len(opens), grid.shape[1]), dtype=int)
    top = np.zeros((len(opens), 1), dtype=int)
    for k, (row, off, start, length) in enumerate(opens):
        t[k] = (value(row) + int((off - start) * g)) % g
        top[k] = int(length * g)
    inside = (0 < t) & (t < top)
    on = (t == 0) | (t == top)
    return g, grid[:, solves].T, inside[:, solves], on[:, solves]


def test_intersection_matches_grid_oracle():
    # completeness: every grid point that satisfies the conditions
    # strictly is returned, and a solution on a cell wall raises
    rng = random.Random(31)
    outcomes = {"points": 0, "empty": 0, "boundary": 0, "overlap": 0}
    systems = 0
    while systems < 320:
        m = rng.choice((1, 2))
        groups = _random_flat_system(rng, m)
        rows = _independent_rows(m, groups)
        if rows is None:
            continue
        systems += 1
        g, solutions, inside, on = _grid_oracle(m, rows, groups)
        strict = {tuple(F(int(x), g) for x in w)
                  for w, ok in zip(solutions, inside.all(axis=0)) if ok}
        walls = (inside | on).all(axis=0) & on.any(axis=0)
        try:
            desc = intersect_cell_groups(m, groups)
        except errors.NonTransverse as exc:
            if "rank-deficient" in str(exc):
                outcomes["overlap"] += 1
                assert len(solutions)
            else:
                outcomes["boundary"] += 1
                assert on.any()
            continue
        assert desc.dim == 0
        assert not walls.any()
        assert set(desc.points) == strict
        assert len(desc.points) == len(strict)
        outcomes["points" if strict else "empty"] += 1
    assert min(outcomes.values()) > 20, outcomes


def test_translate_search_is_bounded():
    # the rows (1000, 0), (0, 1000) need 1000^2 = 10^6 translates
    groups = [([((1000, 0), F(1, 3)), ((0, 1000), 0)], [])]
    start = time.perf_counter()
    with pytest.raises(errors.TooManyTranslates) as info:
        intersect_cell_groups(2, groups)
    assert time.perf_counter() - start < 0.1
    assert "D^r = 1000^2" in str(info.value)
    assert "TRANSLATE_BOUND = %d" % morse.TRANSLATE_BOUND in str(info.value)
    assert 1000 ** 2 > morse.TRANSLATE_BOUND >= 8 ** 2


# --- handle decomposition -------------------------------------------------


def _vector(cx, names):
    index = {g: i for i, g in enumerate(cx.generators)}
    v = 0
    for name in names:
        v ^= 1 << index[name]
    return v


def longitude_classes(cx, k):
    """The class of each z1^j in H1 of a handle complex, written in the
    meridians: the set of i with z1'^i in it.  Asserts that z1^j and
    z1'^i are cycles and that the meridians are independent modulo
    im d2, so the classes are well defined."""
    image = [_vector(cx, cx.boundary(g)) for g in cx.generators
             if cx.degrees[g] == 2]
    meridians = [_vector(cx, ["z1'^%d" % i]) for i in range(1, k + 1)]
    span = f2.Reducer(image + meridians)
    assert span.rank == f2.rank(image) + k
    classes = []
    for j in range(1, k + 1):
        assert cx.boundary("z1^%d" % j) == cx.boundary("z1'^%d" % j) == ()
        combo = span.express(_vector(cx, ["z1^%d" % j]))
        assert combo is not None
        classes.append({i for i in range(1, k + 1)
                        if combo >> (len(image) + i - 1) & 1})
    return classes


def _framed_longitudes(fl):
    """z1^j = f_j z1'^j + sum over i != j of lk_ij z1'^i mod 2, with
    lk_ij counted from the crossings where K_i passes over K_j."""
    d = fl.diagram
    k = d.component_count
    return [{i + 1 for i in range(k)
             if (fl.framings[j] if i == j else over_count(d, i, j)) % 2}
            for j in range(k)]


def _assert_classes(fl):
    """Ranks (1, k, k-1, 0), the framed longitudes in H1, and H2 spanned
    by the z2^j with the one relation sum z2^j = 0."""
    cx = handle_complex_from_link(fl)
    k = fl.diagram.component_count
    assert cx.betti_by_degree() == (1, k, k - 1, 0)
    assert longitude_classes(cx, k) == _framed_longitudes(fl)
    image = [_vector(cx, cx.boundary(g)) for g in cx.generators
             if cx.degrees[g] == 3]
    tori = ["z2^%d" % j for j in range(1, k + 1)]
    assert all(cx.boundary(t) == () for t in tori)
    assert (f2.rank(image + [_vector(cx, [t]) for t in tori])
            == f2.rank(image) + k - 1)
    assert f2.Reducer(image).express(_vector(cx, tori)) is not None


@pytest.mark.parametrize("name", CATALOG)
def test_handle_complex_matches_oracle(name):
    k = fixture(name).diagram.component_count
    for framings in itertools.product((-1, 0, 1, 2), repeat=k):
        _assert_classes(fixture(name, framings))


@pytest.mark.parametrize("name", CATALOG[:6])
def test_handle_complex_framings_grid(name):
    # ranks against the independent linking-matrix oracle
    k = fixture(name).diagram.component_count
    grid = list(itertools.product((-1, 0, 1, 2), repeat=k))
    if len(grid) > 16:
        grid = grid[::4]
    for framings in grid:
        fl = fixture(name, framings)
        cx = handle_complex_from_link(fl)
        betti = cx.betti_by_degree() + (0,) * (4 - len(cx.betti_by_degree()))
        assert betti == complement_homology(linking_matrix(fl)).betti


@pytest.mark.parametrize("strands", (2, 3, 4, 5))
def test_handle_complex_matches_oracle_on_braid_closures(strands):
    rng = random.Random(strands)
    for _ in range(60):
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(0, 12))]
        d = parse_pd(braid_closure_pd(strands, word))
        framings = tuple(rng.randint(-2, 3)
                         for _ in range(d.component_count))
        _assert_classes(FramedLink(d, framings))


def test_homology_basis_matches_the_reference():
    """The stop at dim H changes no basis: equal tuples with the full
    reference on both case-I complexes, the random case-I complexes,
    every framed catalog handle complex and 100 seeded braid closures
    of 100-400 crossings.  On the handle complexes the basis counted by
    degree also equals the Betti numbers of one rank per degree."""
    cases = [differential_case_I(*standard_upper_pair()),
             differential_case_I(*standard_lower_pair()),
             *_random_case_one_complexes()]
    for name in CATALOG:
        k = fixture(name).diagram.component_count
        cases += [handle_complex_from_link(fixture(name, framings))
                  for framings in itertools.product((-1, 0, 1, 2),
                                                    repeat=k)]
    assert len(cases) == 2 + 25 + 188
    rng = random.Random(29)
    for _ in range(100):
        strands = rng.randint(2, 5)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(100, 400))]
        d = parse_pd(braid_closure_pd(strands, word))
        cases.append(handle_complex_from_link(FramedLink(
            d, tuple(rng.randint(-2, 3) for _ in range(d.component_count)))))
    for cx in cases:
        assert cx.homology_basis() == reference_homology_basis(cx)
    for cx in cases[27:]:
        assert cx.betti_by_degree() == reference_betti_by_degree(cx)


def test_handle_complex_matches_the_name_based_reference():
    """The column builder and the name-based reference agree on the
    generators, degrees, components and every boundary, over the 188
    framed catalog links and 300 seeded braid closures of 2-5 strands
    and 100-400 crossings, framings in -2..3.  Over equal generators,
    equal columns are equal boundaries, generator by generator; the
    catalog links also compare the boundary() names."""
    links = [fixture(name, framings) for name in CATALOG
             for framings in itertools.product(
                 (-1, 0, 1, 2), repeat=fixture(name).diagram.component_count)]
    assert len(links) == 188
    rng = random.Random(41)
    for _ in range(300):
        strands = rng.randint(2, 5)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(100, 400))]
        d = parse_pd(braid_closure_pd(strands, word))
        links.append(FramedLink(d, tuple(rng.randint(-2, 3)
                                         for _ in range(d.component_count))))
    for n, fl in enumerate(links):
        cx, ref = handle_complex_from_link(fl), reference_handle_complex(fl)
        assert cx.generators == ref.generators
        assert cx.degrees == ref.degrees
        assert cx.components == ref.components
        assert cx.columns == ref.columns
        if n < 188:
            assert ([cx.boundary(g) for g in cx.generators]
                    == [ref.boundary(g) for g in ref.generators])


def _outcome(query, cx):
    """A query's value, or the class of the package error it raises."""
    try:
        return query(cx)
    except errors.FukayaFlowError as exc:
        return type(exc)


def _random_graded_complex(rng):
    """Degrees 0-4 with 0-6 generators each, d_d's columns drawn from
    ker d_(d-1), generator order shuffled."""
    sizes = [rng.choice((0, rng.randint(1, 6))) for _ in range(5)]
    names = [["g%d_%d" % (d, i) for i in range(n)]
             for d, n in enumerate(sizes)]
    # cols[d][i]: d of the i-th generator of degree d, over degree d - 1
    cols = [[0] * sizes[0]]
    for d in range(1, 5):
        # the cycles of degree d - 1, found by trying every subset
        cycles = [m for m in range(1 << sizes[d - 1])
                  if not functools.reduce(operator.xor, (
                      cols[d - 1][i] for i in f2.bits(m)), 0)]
        cols.append([rng.choice(cycles) for _ in range(sizes[d])])
    diff = {names[d][i]: tuple(names[d - 1][j] for j in f2.bits(col))
            for d in range(1, 5) for i, col in enumerate(cols[d])}
    generators = [g for layer in names for g in layer]
    rng.shuffle(generators)
    degrees = {g: d for d, layer in enumerate(names) for g in layer}
    return complex_from_names(generators, diff, degrees)


def test_betti_numbers_match_the_reference_on_random_complexes():
    """On 600 seeded graded complexes, and on each with one degree
    dropped, moved by one or made negative, or with no degrees at all,
    betti_by_degree gives the reference's value or raises its error
    class, and the homology basis has sum(betti) elements."""
    rng = random.Random(37)
    seen = {errors.MalformedComplex: 0, errors.UnknownGenerator: 0}
    mixed = 0  # complexes with classes that are no single generator
    for _ in range(600):
        cx = _random_graded_complex(rng)
        betti = _outcome(CascadeComplex.betti_by_degree, cx)
        assert betti == _outcome(reference_betti_by_degree, cx)
        assert cx.homology_basis() == reference_homology_basis(cx)
        if cx.generators:
            assert len(cx.homology_basis()) == sum(betti)
            mixed += any("+" in rep for rep in cx.homology_basis())
        g = rng.choice(cx.generators or ("",))
        degrees = dict(cx.degrees)
        variants = [{}]
        if g:
            shifted = dict(degrees, **{g: degrees[g] + rng.choice((-1, 1))})
            dropped = {h: d for h, d in degrees.items() if h != g}
            variants += [shifted, dropped, dict(degrees, **{g: -1})]
        for degs in variants:
            bad = CascadeComplex(cx.generators, cx.columns, degs)
            got = _outcome(CascadeComplex.betti_by_degree, bad)
            assert got == _outcome(reference_betti_by_degree, bad)
            if got in seen:
                seen[got] += 1
    assert min(seen.values()) >= 100 and mixed >= 50, (seen, mixed)


def test_one_elimination_answers_both_homology_calls(monkeypatch):
    """On the handle complex of T(2, 301) the first homology call runs
    the one elimination and the second adds no row to any Reducer,
    whichever comes first."""
    fl = FramedLink(parse_pd(braid_closure_pd(2, [1] * 301)), (0,))
    added = []
    add = f2.Reducer.add
    monkeypatch.setattr(f2.Reducer, "add",
                        lambda self, v: added.append(v) or add(self, v))
    cx = handle_complex_from_link(fl)
    betti = cx.betti_by_degree()
    first = len(added)
    basis = cx.homology_basis()
    assert first > 0 and len(added) == first
    assert len(basis) == sum(betti)
    assert betti == complement_homology(linking_matrix(fl)).betti
    cx = handle_complex_from_link(fl)
    assert cx.homology_basis() == basis
    first = len(added)
    assert cx.betti_by_degree() == betti and len(added) == first


def test_handle_complex_extra_diagrams():
    # an alternating knot with mixed crossing signs and an even-linking
    # two-component link, neither in the catalog
    figure_eight = parse_pd("X(4,2,5,1),X(8,6,1,5),X(6,3,7,4),X(2,7,3,8)")
    _assert_classes(FramedLink(figure_eight, (1,)))
    solomon = parse_pd("X(1,5,2,8),X(5,3,6,2),X(3,7,4,6),X(7,1,8,4)")
    for framings in ((0, 1), (1, 1)):
        _assert_classes(FramedLink(solomon, framings))


def test_handle_complex_structure_unknot():
    # one over-arc and no under-crossing: its junction cell bounds 0
    cx = handle_complex_from_link(fixture("unknot", (1,)))
    assert cx.boundary("A^1") == cx.boundary("J^1") == ()
    assert cx.boundary("M^1") == ("A^1", "z1'^1")
    assert cx.boundary("L^1") == ("z1'^1", "z1^1")
    assert cx.boundary("D^1") == ("J^1", "z2^1")
    assert cx.boundary("p''") == ("z2^1",)
    assert cx.boundary("z1^1") == ()


def test_handle_complex_crossing_handles():
    # each Hopf component passes under the other once: one over-arc
    # each, and each longitude picks up the other's over-arc
    cx = handle_complex_from_link(fixture("hopf"))
    assert cx.boundary("J^1") == cx.boundary("J^2") == ()
    assert cx.boundary("L^1") == ("A^2", "z1^1")
    assert cx.boundary("L^2") == ("A^1", "z1^2")
    # three under-crossings cut the trefoil into three over-arcs; its
    # writhe 3 is odd, so the framing-0 longitude picks up z1'
    cx = handle_complex_from_link(fixture("trefoil"))
    assert [cx.boundary("J^%d" % n) for n in (1, 2, 3)] == [
        ("A^1", "A^2"), ("A^2", "A^3"), ("A^1", "A^3")]
    assert cx.boundary("L^1") == ("A^1", "A^2", "A^3", "z1'^1", "z1^1")
    assert cx.boundary("D^1") == ("J^1", "J^2", "J^3", "z2^1")


def test_handle_complex_connecting_handles():
    cx = handle_complex_from_link(fixture("3-unlink"))
    assert cx.boundary("Q^1") == ("z0^1", "z0^2")
    assert cx.boundary("Q^2") == ("z0^2", "z0^3")
    assert cx.boundary("p''") == ("z2^1", "z2^2", "z2^3")
    for j in (1, 2, 3):
        assert cx.boundary("M^%d" % j) == ("A^%d" % j, "z1'^%d" % j)
        assert cx.boundary("L^%d" % j) == ("z1^%d" % j,)


def test_handle_complex_mixed_split_diagram():
    # a Hopf pair split from two bare circles: k = 4
    diagram = parse_pd("O(7),O(2),X(3,5,4,6),X(5,3,6,4)")
    fl = FramedLink(diagram, (1, 0, -1, 2))
    assert handle_complex_from_link(fl).betti_by_degree() == (1, 4, 3, 0)
    _assert_classes(fl)


def test_handle_complex_json():
    cx = handle_complex_from_link(fixture("unknot"))
    blob = cx.to_json()
    names = {g["name"] for g in blob["generators"]}
    assert names == {"z0^1", "z1^1", "z1'^1", "z2^1", "A^1", "J^1", "M^1",
                     "L^1", "D^1", "p''"}
