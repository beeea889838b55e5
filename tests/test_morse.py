"""Cascade complexes, the case-I engine, and the handle decomposition."""

import itertools
import random
from fractions import Fraction as F

import pytest

from fukaya_flow import errors, morse
from fukaya_flow.homology import complement_homology
from fukaya_flow.links import FramedLink, fixture, linking_matrix, parse_pd
from fukaya_flow.morse import (AffineMap, CascadeComplex, CascadeData,
                               CircleModel, Correspondence,
                               CriticalComponent, IntersectionDescription,
                               RationalReducer, TorusModel, cascade_moduli,
                               differential_case_I, handle_complex_from_link,
                               identity_map, intersect_cell_groups,
                               projection_map, standard_lower_pair,
                               standard_upper_pair, two_point_profile)

FIXTURES = ("unknot", "2-unlink", "3-unlink", "hopf", "trefoil", "3-chain")


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
    assert cx.betti() == 6


def test_zero_differential_rank():
    cx = CascadeComplex(("a", "b", "c"), {})
    assert cx.betti() == 3
    assert set(cx.homology_basis()) == {"a", "b", "c"}


def test_square_zero_enforced():
    with pytest.raises(errors.DifferentialNotSquareZero):
        CascadeComplex(("a", "b", "c"), {"a": ("b",), "b": ("c",)})


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


def test_random_correspondences_square_zero():
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
        torus = TorusModel(prof, prof, {
            (0, 0): "t00", (0, 1): "t01", (1, 0): "t10", (1, 1): "t11"})
        circle = CircleModel(two_point_profile(s2, F(1, 2) + s2),
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
        # constructor already verifies d^2 = 0; double-check ranks add up
        assert cx.betti() >= 0
    assert count >= 25


def _names_for(min_pos):
    from fukaya_flow.morse import _mod1
    if _mod1(min_pos) < _mod1(min_pos + F(1, 2)):
        return ("c_min", "c_max")
    return ("c_max", "c_min")


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


def test_cascade_moduli_k2_empty():
    upper, lower, corr = standard_upper_pair()
    data = CascadeData((upper, lower), (corr,))
    assert cascade_moduli(data, "x2", "a0", 2) == []


def test_unsupported_model_error():
    with pytest.raises(errors.UnsupportedModel):
        two_point_profile(F(0), F(0))
    with pytest.raises(errors.UnsupportedModel):
        CriticalComponent("bad", object(), F(0))


def test_point_component_over_circle():
    # an isolated critical point flowing onto a circle: the strip cell
    # is a single point evaluating at q, and the boundary picks up the
    # minimum whose stable arc contains q
    from fukaya_flow.morse import PointModel
    point = CriticalComponent("p*", PointModel("p", index=1), F(1))
    circle = CriticalComponent(
        "C", CircleModel(two_point_profile(F(1, 4), F(3, 4)),
                         ("m", "M")), F(0))
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


def test_rational_reducer_combinations():
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
        red = RationalReducer()
        independent = 0
        for n, row in enumerate(rows):
            residual, combo = red.add(row)
            assert set(combo) <= set(range(n))
            assert residual == [row[c] - sum(x * rows[i][c]
                                             for i, x in combo.items())
                                for c in range(m)]
            if n in known_dependent:
                assert not any(residual)
            independent += any(residual)
        assert red.rank == independent
        # the pivot combinations reproduce the reduced pivot rows: a 1
        # at each pivot and a 0 at every other pivot
        pivots = [[sum(x * rows[i][c] for i, x in combo.items())
                   for c in range(m)] for combo in red.pivot_combos()]
        lead = [next(c for c, a in enumerate(p) if a) for p in pivots]
        assert lead == sorted(lead)
        for p in pivots:
            assert [p[c] for c in lead] == [int(p is q) for q in pivots]


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
                opens.append((row(), frac(), "arc", frac(),
                              F(rng.randint(1, d), d)))
            else:
                opens.append((row(), frac(), "copt", frac()))
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
                for row, off, kind, *cell in opens:
                    val = morse._mod1(sum(a * x for a, x in zip(row, w))
                                      + off)
                    if kind == "arc":
                        start, length = cell
                        assert 0 < morse._mod1(val - start) < length
                    else:
                        assert val != cell[0]
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


# --- handle decomposition -------------------------------------------------


@pytest.mark.parametrize("name", FIXTURES)
def test_handle_complex_matches_oracle(name):
    fl = fixture(name)
    cx = handle_complex_from_link(fl)
    betti = cx.betti_by_degree() + (0,) * (4 - len(cx.betti_by_degree()))
    assert betti == complement_homology(linking_matrix(fl)).betti


@pytest.mark.parametrize("name", FIXTURES)
def test_handle_complex_framings_grid(name):
    k = fixture(name).diagram.component_count
    grid = list(itertools.product((-1, 0, 1, 2), repeat=k))
    if len(grid) > 16:
        grid = grid[::4]
    for framings in grid:
        fl = fixture(name, framings)
        cx = handle_complex_from_link(fl)
        betti = cx.betti_by_degree() + (0,) * (4 - len(cx.betti_by_degree()))
        assert betti == complement_homology(linking_matrix(fl)).betti


def test_handle_complex_extra_diagrams():
    # an alternating knot with mixed crossing signs and an even-linking
    # two-component link, neither in the catalog
    figure_eight = parse_pd("X(4,2,5,1),X(8,6,1,5),X(6,3,7,4),X(2,7,3,8)")
    fl = FramedLink(figure_eight, (1,))
    assert handle_complex_from_link(fl).betti_by_degree() == (1, 1, 0, 0)
    solomon = parse_pd("X(1,5,2,8),X(5,3,6,2),X(3,7,4,6),X(7,1,8,4)")
    fl = FramedLink(solomon, (0, 1))
    betti = handle_complex_from_link(fl).betti_by_degree()
    assert betti == (1, 2, 1, 0)


def test_handle_complex_kinked_diagrams():
    for name in ("unknot-kink", "hopf-kink"):
        fl = fixture(name, tuple(1 for _ in fixture(name).framings))
        cx = handle_complex_from_link(fl)
        betti = cx.betti_by_degree() + (0,) * (4 - len(cx.betti_by_degree()))
        assert betti == complement_homology(linking_matrix(fl)).betti


def test_handle_complex_structure_unknot():
    cx = handle_complex_from_link(fixture("unknot", (1,)))
    assert cx.boundary("p''") == ("z2^1",)
    assert cx.boundary("F^1") == ("z1'^1", "z1^1")
    assert cx.boundary("z1^1") == ()


def test_handle_complex_crossing_handles():
    cx = handle_complex_from_link(fixture("hopf"))
    assert cx.boundary("P^1") == ("z0^1", "z0^2")
    assert cx.boundary("P^2") == ("z0^1", "z0^2")
    # self-crossings bound nothing
    cx = handle_complex_from_link(fixture("trefoil"))
    for c in (1, 2, 3):
        assert cx.boundary("P^%d" % c) == ()


def test_handle_complex_connecting_handles():
    cx = handle_complex_from_link(fixture("3-unlink"))
    assert cx.boundary("Q^1") == ("z0^1", "z0^2")
    assert cx.boundary("Q^2") == ("z0^2", "z0^3")
    assert cx.boundary("p''") == ("z2^1", "z2^2", "z2^3")


def test_handle_complex_mixed_split_diagram():
    # a Hopf pair split from two bare circles: three pieces, k = 4
    diagram = parse_pd("O(7),O(2),X(3,5,4,6),X(5,3,6,4)")
    fl = FramedLink(diagram, (1, 0, -1, 2))
    cx = handle_complex_from_link(fl)
    assert cx.betti_by_degree() == (1, 4, 3, 0)
    want = complement_homology(linking_matrix(fl)).betti
    assert cx.betti_by_degree() == want


def test_nonplanar_pd_rejected():
    diagram = parse_pd("X(1,3,2,4),X(2,4,3,1)")
    with pytest.raises(errors.NonPlanarPD):
        handle_complex_from_link(FramedLink(diagram, (0,)))


def test_handle_complex_json():
    cx = handle_complex_from_link(fixture("unknot"))
    blob = cx.to_json()
    names = {g["name"] for g in blob["generators"]}
    assert {"z0^1", "z1^1", "z1'^1", "z2^1", "F^1", "p''"} <= names
