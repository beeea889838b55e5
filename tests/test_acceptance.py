"""Acceptance suite: one test per criterion, each printing a pass line.

Every tolerance is pinned here; the categorical and combinatorial
criteria are exact over F2 and the numeric criterion holds to 1e-10
(grid and round trips) and 1e-6 (finite differences).
"""

import itertools
import math
import random
from fractions import Fraction as F

import numpy as np

from fukaya_flow import geometry
from fukaya_flow.flow import build_flow_category, rp2_category
from fukaya_flow.fukaya import verify_theorem_b
from fukaya_flow.homology import complement_homology
from fukaya_flow.links import fixture, linking_matrix
from fukaya_flow.maslov import (LagrangianLineLoop, maslov_of_loop,
                                solve_triangle_system,
                                vanishing_triangle_index)
from fukaya_flow.morse import (differential_case_I, handle_complex_from_link,
                               standard_lower_pair, standard_upper_pair)
from fukaya_flow.quiver import (QuiverPresentation, check_relations,
                                cp2_quiver, isomorphic)
from helpers import cp2_standard_representation, orbit, rep_key

FIXTURES = ("unknot", "2-unlink", "3-unlink", "hopf", "trefoil", "3-chain")


def _report(criterion, ok, detail=""):
    line = "%s criterion %s%s" % ("PASS" if ok else "FAIL", criterion,
                                  " (%s)" % detail if detail else "")
    print(line)
    assert ok, line


def _framings_grid(k):
    return itertools.product((-1, 0, 1, 2), repeat=k)


def test_criterion_1_category_isomorphism():
    """Both category builders agree under the generator dictionary for
    every fixture and every framing vector in {-1,0,1,2}^k."""
    checked = 0
    for name in FIXTURES:
        k = fixture(name).diagram.component_count
        for framings in _framings_grid(k):
            report = verify_theorem_b(fixture(name, framings))
            if not report.isomorphic:
                _report(1, False, "%s %s: %s" % (name, framings,
                                                 report.mismatches[:1]))
            checked += 1
    _report(1, True, "%d fixture/framing pairs, exact over F2" % checked)


def test_criterion_2_unknot_product_table():
    """Unknot with framing one: the four products are mu, mu, 0, q."""
    cat = build_flow_category(fixture("unknot", (1,)))
    ok = (cat.compose(0, "K+^1", "p-^1") == ("mu^1",)
          and cat.compose(0, "p+^1", "K-^1") == ("mu^1",)
          and cat.compose(0, "K+^1", "K-^1") == ()
          and cat.compose(0, "p+^1", "p-^1") == ("q^1",))
    _report(2, ok, "exact")


def test_criterion_3_homology_oracle_equivalence():
    """Handle-complex homology ranks equal the complement homology
    ranks (1, k, k-1, 0) on every fixture; d^2 = 0 is enforced by
    construction on every complex built."""
    for name in FIXTURES:
        k = fixture(name).diagram.component_count
        grid = list(_framings_grid(k))
        if len(grid) > 16:
            grid = grid[::4]
        for framings in grid:
            fl = fixture(name, framings)
            cx = handle_complex_from_link(fl)  # validates d^2 = 0
            betti = cx.betti_by_degree()
            betti = tuple(betti) + (0,) * (4 - len(betti))
            want = complement_homology(linking_matrix(fl)).betti
            if betti != want or want != (1, k, k - 1, 0):
                _report(3, False, "%s %s: %s vs %s" % (name, framings,
                                                       betti, want))
    _report(3, True, "exact rank equality")


def test_criterion_4_case_one_differentials():
    """The case-I engine reproduces all eight stated differentials and
    the free homology bases."""
    upper, lower, corr = standard_upper_pair()
    cx = differential_case_I(upper, lower, corr)
    ok = (cx.boundary("x2") == () and cx.boundary("x1") == ()
          and cx.boundary("x1'") == ("a1",)
          and cx.boundary("x0") == ("a0",)
          and set(cx.homology_basis()) == {"x2", "x1"})
    upper, lower, corr = standard_lower_pair()
    cx = differential_case_I(upper, lower, corr)
    ok = ok and (cx.boundary("y2") == () and cx.boundary("y1'") == ()
                 and cx.boundary("y1") == ("b1",)
                 and cx.boundary("y0") == ("b0",)
                 and set(cx.homology_basis()) == {"y2", "y1'"})
    _report(4, ok, "all eight values exact")


def test_criterion_5_index_arithmetic():
    """Maslov index of the counter-clockwise loop is -1 for dy^dx; the
    gluing system gives index_H = index_V = 2 at n = 3 and 2k - 2 in
    base dimension 2k."""
    loop = LagrangianLineLoop(((0.0, 0.0), (1.0, 2.0 * math.pi)), "dy^dx")
    ok = maslov_of_loop(loop) == -1
    ok = ok and solve_triangle_system(3, -1, -1) == (2, 2)
    for k in range(1, 7):
        ok = ok and vanishing_triangle_index(2 * k)["index_V"] == 2 * k - 2
    _report(5, ok, "exact integers")


def test_criterion_6_numeric_identities():
    """Ellipse identity on a 48 x 21 grid with 100 random (e, f) pairs,
    round trips below 1e-10, finite-difference pullback below 1e-6."""
    rng = np.random.default_rng(0)
    grid_err = geometry.p_image_errors(rng, grid_thetas=48, lam_max=2.0,
                                       lam_steps=21, ef_samples=100)
    z_err, p_err = geometry.roundtrip_errors(rng, 200)
    fd_err = geometry.symplectic_pullback_error(rng, samples=100)
    ok = (grid_err < 1e-10 and z_err < 1e-10 and p_err < 1e-10
          and fd_err < 1e-6)
    _report(6, ok, "grid %.2e, roundtrips %.2e/%.2e, pullback %.2e"
            % (grid_err, z_err, p_err, fd_err))


def test_criterion_7_rp2_table():
    """The hardcoded two-dimensional category reproduces the four-entry
    product table exactly."""
    cat = rp2_category()
    ok = (cat.compose(0, "A_2", "B_2") == ("C_1",)
          and cat.compose(0, "A_1", "B_1") == ("C_1",)
          and cat.compose(0, "A_1", "B_2") == ("C_2",)
          and cat.compose(0, "A_2", "B_1") == ("C_2",))
    _report(7, ok, "exact")


def test_criterion_8_quiver_suite():
    """The standard representation satisfies the fixture quiver's
    relations, and the Hom-space isomorphism test agrees with the orbit
    enumeration oracle on 50 random pairs with dims (2, 2, 2)."""
    ok, _ = check_relations(cp2_quiver(), cp2_standard_representation())
    q = QuiverPresentation(
        ("x_4", "x_2", "x_0"),
        (("a", "x_4", "x_2"), ("b", "x_2", "x_0"), ("c", "x_4", "x_0")),
        ())
    dims = {"x_4": 2, "x_2": 2, "x_0": 2}
    rng = random.Random(2024)

    def rand_rep():
        from fukaya_flow.quiver import QuiverRepresentation
        mats = {}
        for name, s, t in q.arrows:
            mats[name] = tuple(tuple(rng.randint(0, 1)
                                     for _ in range(dims[s]))
                               for _ in range(dims[t]))
        return QuiverRepresentation(dict(dims), mats)

    agreements = 0
    for _ in range(50):
        r1, r2 = rand_rep(), rand_rep()
        fast = isomorphic(q, r1, r2)
        oracle = rep_key(q, r2) in orbit(q, r1)
        if fast != oracle:
            _report(8, False, "oracle disagreement")
        agreements += 1
    _report(8, ok and agreements == 50,
            "standard representation + 50 double-oracle pairs")
