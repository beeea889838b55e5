"""Numeric verification of the quadric geometry closed forms."""

import cmath
import itertools
import math

import numpy as np
import pytest

from fukaya_flow import errors, geometry as g

RNG = lambda seed=0: np.random.default_rng(seed)


def test_cotangent_point_invariants():
    # mu_inv checks |u| = 1 and u.v = 0 on its point (u, v)
    u = np.array([1.0, 0.0, 0.0, 0.0])
    g.mu_inv(u, np.array([0.0, 2.0, 0.0, 0.0]))
    with pytest.raises(errors.DomainViolation):
        g.mu_inv(np.array([1.1, 0.0, 0.0, 0.0]), np.zeros(4))
    with pytest.raises(errors.DomainViolation):
        g.mu_inv(u, np.array([1e-6, 0.0, 0.0, 0.0]))


def test_quadric_point_invariant():
    # mu checks sum z_j^2 = 1 on its point z
    g.mu(np.array([1.0, 0.0, 0.0, 0.0], dtype=complex))
    with pytest.raises(errors.DomainViolation):
        g.mu(np.array([1.0, 1.0, 0.0, 0.0], dtype=complex))


def test_mu_on_real_unit_vector():
    u, v = g.mu(np.array([0.0, 1.0, 0.0, 0.0], dtype=complex))
    assert u.tolist() == [0.0, 1.0, 0.0, 0.0]
    assert all(x == 0 for x in v)


def test_mu_inv_on_zero_section():
    z = g.mu_inv(np.array([0.0, 0.0, 1.0, 0.0]), np.zeros(4))
    assert np.allclose(z, np.array([0, 0, 1, 0], dtype=complex), atol=1e-15)


def test_roundtrips_random():
    z_err, p_err = g.roundtrip_errors(RNG(42), 500)
    assert z_err < g.ROUNDTRIP_TOL
    assert p_err < g.ROUNDTRIP_TOL


def test_roundtrips_ten_thousand_samples():
    z_err, p_err = g.roundtrip_errors(RNG(1234), 10_000)
    assert z_err < g.ROUNDTRIP_TOL
    assert p_err < g.ROUNDTRIP_TOL


# --- an independent per-point reference: math and cmath only -----------


def _ref_f(s):
    return math.sqrt((1.0 + math.sqrt(1.0 + 4.0 * s * s)) / 2.0)


def _ref_mu(z):
    x = [w.real for w in z]
    n = math.sqrt(sum(a * a for a in x))
    return [a / n for a in x], [-n * w.imag for w in z]


def _ref_mu_inv(u, v):
    fv = _ref_f(math.sqrt(sum(b * b for b in v)))
    return [complex(fv * a, -b / fv) for a, b in zip(u, v)]


def _ref_roundtrip_errors(rng, samples):
    worst_z = worst_p = 0.0
    for _ in range(samples):
        while True:
            re, im = rng.standard_normal(4), rng.standard_normal(4)
            p = [complex(a, b) for a, b in zip(re, im)]
            s = sum(w * w for w in p)
            if abs(s) > 1e-3:
                break
        z = [w / cmath.sqrt(s) for w in p]
        back = _ref_mu_inv(*_ref_mu(z))
        worst_z = max([worst_z] + [abs(a - b) for a, b in zip(back, z)])
        u = [float(a) for a in rng.standard_normal(4)]
        n = math.sqrt(sum(a * a for a in u))
        u = [a / n for a in u]
        v = [2.0 * float(b) for b in rng.standard_normal(4)]
        d = sum(a * b for a, b in zip(u, v))
        v = [b - d * a for a, b in zip(u, v)]
        u1, v1 = _ref_mu(_ref_mu_inv(u, v))
        worst_p = max([worst_p]
                      + [abs(a - b) for a, b in zip(u1 + v1, u + v)])
    return worst_z, worst_p


def _ref_p_image_errors(rng, grid_thetas, lam_max, lam_steps, ef_samples):
    pairs = []
    for _ in range(ef_samples):
        a, b = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
        pairs.append(((math.cos(a), math.sin(a)), (math.cos(b), math.sin(b))))
    worst = 0.0
    for it in range(grid_thetas):
        theta = 2 * math.pi * it / grid_thetas
        c, s = math.cos(theta), math.sin(theta)
        for il in range(lam_steps):
            lam = -lam_max + 2 * lam_max * il / (lam_steps - 1)
            expected = complex(
                math.sqrt(1 + 4 * lam * lam) * math.cos(2 * theta),
                2 * lam * math.sin(2 * theta))
            for e, f in pairs:
                u = [c * e[0], c * e[1], s * f[0], s * f[1]]
                v = [-lam * s * e[0], -lam * s * e[1], lam * c * f[0],
                     lam * c * f[1]]
                z = _ref_mu_inv(u, v)
                p = z[0] ** 2 + z[1] ** 2 - z[2] ** 2 - z[3] ** 2
                worst = max(worst,
                            abs(p - expected) / max(1.0, abs(expected)))
    return worst


@pytest.mark.parametrize("seed", range(20))
def test_batched_checks_match_per_point_reference(seed):
    grid = dict(grid_thetas=16, lam_max=2.0, lam_steps=5, ef_samples=20)
    rng, ref = RNG(seed), RNG(seed)
    got = g.roundtrip_errors(rng, 40)
    want = _ref_roundtrip_errors(ref, 40)
    assert all(abs(a - b) <= 1e-14 for a, b in zip(got, want))
    # the batched draws leave the generator where per-point draws do
    assert rng.random() == ref.random()
    got = g.p_image_errors(rng, **grid)
    want = _ref_p_image_errors(ref, **grid)
    assert abs(got - want) <= 1e-14
    assert rng.random() == ref.random()


def test_unit_pairs_follow_per_pair_draws():
    # pairs (e, f) come from the draws in the order e, f, e, f, ...
    rng, ref = RNG(3), RNG(3)
    e, f = g._unit_pairs(rng, 50)

    def unit2():
        ang = ref.uniform(0.0, 2.0 * math.pi)
        return np.array([math.cos(ang), math.sin(ang)])

    want = [(unit2(), unit2()) for _ in range(50)]
    assert np.max(np.abs(e - [p[0] for p in want])) < 1e-15
    assert np.max(np.abs(f - [p[1] for p in want])) < 1e-15
    assert rng.random() == ref.random()


def test_sigma_zero_section_points():
    e = np.array([1.0, 0.0])
    f = np.array([0.0, 1.0])
    u, v = g.sigma(e, f, 0.0, 0.0)
    assert u.tolist() == [1.0, 0.0, 0.0, 0.0]
    assert all(x == 0 for x in v)
    u, _ = g.sigma(e, f, math.pi / 2, 0.0)
    assert abs(u[0]) < 1e-15 and abs(u[2]) < 1e-16 and u[3] == 1.0


def test_sigma_requires_unit_vectors():
    with pytest.raises(errors.DomainViolation):
        g.sigma((2.0, 0.0), (0.0, 1.0), 0.1, 0.1)


def _batch(rng, n):
    """n points of each kind as arrays, all inside the domains."""
    z = np.array([g._quadric_draw(rng) for _ in range(n)])
    return (z, *g.mu(z))


def test_batch_domain_violation_names_the_point():
    z, u, v = _batch(RNG(5), 40)
    bad_u = u.copy()
    bad_u[17] *= 1.0 + 3e-12
    with pytest.raises(errors.DomainViolation,
                       match=r"^point 17: \|u\| differs from 1 by 3\.0e-12$"):
        g.mu_inv(bad_u, v)
    bad_v = v.copy()
    bad_v[23] += 1e-6 * u[23]
    with pytest.raises(errors.DomainViolation,
                       match=r"^point 23: u\.v differs from 0 by 1\.0e-06$"):
        g.mu_inv(u, bad_v)
    bad_z = z.copy()
    bad_z[31] *= 1.0 + 1e-9
    with pytest.raises(errors.DomainViolation,
                       match=(r"^point 31: sum z_j\^2 differs from 1 "
                              r"by 2\.0e-09$")):
        g.mu(bad_z)
    e = np.tile([1.0, 0.0], (40, 1))
    f = np.tile([0.0, 1.0], (40, 1))
    f[9] = (0.0, 1.5)
    with pytest.raises(errors.DomainViolation,
                       match=r"^point 9: \|f\| differs from 1 by 5\.0e-01$"):
        g.sigma(e, f, np.zeros(40), np.zeros(40))
    # the first offending point is named, not a later or larger one
    bad_u[30] *= 2.0
    with pytest.raises(errors.DomainViolation, match=r"^point 17: "):
        g.mu_inv(bad_u, v)


def test_sigma_invariance_under_ef():
    # P(mu_inv(sigma(e, f, theta, lam))) is the same for 100 random (e, f)
    rng = RNG(7)
    for theta, lam in ((0.3, 0.5), (1.2, -0.7), (2.5, 1.5)):
        e, f = g._unit_pairs(rng, 100)
        values = g.quadratic(g.mu_inv(*g.sigma(e, f, theta, lam)))
        assert np.max(np.abs(values - values[0])) < 1e-10


def _kernel_cases():
    """(name, batch arguments, one bad point's arguments, its message):
    the batch holds 12 points; the messages are the deviations alone,
    with no point index."""
    z, u, v = _batch(RNG(5), 12)
    e, f = g._unit_pairs(RNG(6), 12)
    theta, lam = np.linspace(0.0, 6.0, 12), np.linspace(-3.0, 3.0, 12)
    one = np.array([1.0, 0.0, 0.0, 0.0])
    return [
        ("mu", (z,), (np.array([1.0, 1.0, 0.0, 0.0], dtype=complex),),
         r"sum z_j\^2 differs from 1 by 1\.0e\+00"),
        ("mu_inv", (u, v), (1.1 * one, np.zeros(4)),
         r"\|u\| differs from 1 by 1\.0e-01"),
        ("mu_inv", (u, v), (one, 1e-6 * one),
         r"u\.v differs from 0 by 1\.0e-06"),
        ("sigma", (e, f, theta, lam), ((2.0, 0.0), (0.0, 1.0), 0.1, 0.1),
         r"\|e\| differs from 1 by 1\.0e\+00"),
        ("sigma", (e, f, theta, lam), ((1.0, 0.0), (0.0, 0.5), 0.1, 0.1),
         r"\|f\| differs from 1 by 5\.0e-01"),
        ("quadratic", (z,), None, None),
    ]


@pytest.mark.parametrize("name,batch,bad,message", _kernel_cases(),
                         ids=("mu", "mu_inv-u", "mu_inv-uv", "sigma-e",
                              "sigma-f", "quadratic"))
def test_kernel_on_a_point_matches_its_row(name, batch, bad, message):
    """Each kernel maps a (4,) point (a (2,) e and f and scalar theta
    and lam for sigma) to the values of that point's row in a batch,
    and refuses one bad point with the message of a single point."""
    kernel = getattr(g, name)

    def outputs(*args):
        out = kernel(*args)
        return out if isinstance(out, tuple) else (out,)

    rows = outputs(*batch)
    for i in range(12):
        for one, row in zip(outputs(*(a[i] for a in batch)), rows,
                            strict=True):
            assert np.shape(one) == np.shape(row[i])
            assert np.array_equal(one, row[i])
    if bad is not None:
        with pytest.raises(errors.DomainViolation, match="^%s$" % message):
            kernel(*bad)


def test_trivialization_and_rho_refuse_off_quadric_points():
    # trivialization checks its input, rho its output: a non-unit e
    # leaves the quadric
    with pytest.raises(errors.DomainViolation,
                       match=r"^sum z_j\^2 differs from 1 by 1\.0e\+00$"):
        g.trivialization(np.array([1.0, 1.0, 0.0, 0.0], dtype=complex))
    with pytest.raises(errors.DomainViolation,
                       match=r"^sum z_j\^2 differs from 1 by 3\.0e\+00$"):
        g.rho((2.0, 0.0), (0.0, 1.0), 1.0)


_C5 = np.array([1.0, 0.0, 0.0, 0.0, 0.0], dtype=complex)
_E1 = np.array([1.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("call,message", [
    (lambda: g.mu(_C5), r"z must have a trailing axis of length 4, "
                        r"got shape \(5,\)"),
    (lambda: g.mu(np.tile(_C5, (3, 1))), r"z .* got shape \(3, 5\)"),
    (lambda: g.mu(np.array(1.0 + 0j)), r"z .* got shape \(\)"),
    (lambda: g.mu_inv(_E1[:3], np.zeros(3)), r"u .* got shape \(3,\)"),
    (lambda: g.mu_inv(_E1, np.zeros(5)), r"v .* got shape \(5,\)"),
    (lambda: g.quadratic(_C5), r"z .* got shape \(5,\)"),
    (lambda: g.quadratic(np.ones((2, 3))), r"z .* got shape \(2, 3\)"),
    (lambda: g.sigma((1.0, 0.0, 0.0), (0.0, 1.0), 0.1, 0.1),
     r"e must have a trailing axis of length 2, got shape \(3,\)"),
    (lambda: g.trivialization(np.array([[1, 0, 0, 0], [0, 1, 0, 0]],
                                       dtype=complex)),
     r"trivialization takes one point of shape \(4,\), "
     r"got shape \(2, 4\)"),
    (lambda: g.trivialization(np.array(1.0 + 0j)),
     r"trivialization .* got shape \(\)"),
], ids=("mu-5", "mu-batch-5", "mu-scalar", "mu_inv-u-3", "mu_inv-v-5",
        "quadratic-5", "quadratic-batch-3", "sigma-e-3",
        "trivialization-batch", "trivialization-scalar"))
def test_maps_refuse_a_point_of_the_wrong_shape(call, message):
    """A kernel's trailing axis must have length 4 (2 for e and f), and
    trivialization takes one (4,) point; a shape that is not refused
    would be summed or broadcast into a wrong answer or a bare error."""
    with pytest.raises(errors.DomainViolation, match="^%s$" % message):
        call()


def test_p_image_values():
    assert g.p_image(0.0, 0.0) == 1.0 + 0.0j
    val = g.p_image(math.pi / 4, 1.0)
    assert abs(val - 2.0j) < 1e-15
    a, b = g.ellipse_axes(0.5)
    assert abs(a - math.sqrt(2.0)) < 1e-15
    assert b == 1.0


def test_p_image_matches_composition_on_grid():
    err = g.p_image_errors(RNG(1), grid_thetas=48, lam_max=2.0,
                           lam_steps=21, ef_samples=100)
    assert err < g.ROUNDTRIP_TOL


def test_confocal_family():
    # a(lam)^2 - b(lam)^2 = 1: the images are confocal ellipses
    for lam in (0.25, 0.5, 1.0, 2.0):
        a, b = g.ellipse_axes(lam)
        assert abs(a * a - b * b - 1.0) < 1e-12


def test_axes_monotone():
    lams = [0.1 * i for i in range(1, 30)]
    axes = [g.ellipse_axes(lam) for lam in lams]
    for (a1, b1), (a2, b2) in zip(axes, axes[1:]):
        assert a1 < a2 and b1 < b2


def test_nested_ellipses():
    lams = (0.3, 0.6, 0.9)
    for small, large in zip(lams, lams[1:]):
        a_s, b_s = g.ellipse_axes(small)
        a_l, b_l = g.ellipse_axes(large)
        for i in range(64):
            theta = 2.0 * math.pi * i / 64
            p = g.p_image(theta, small)
            assert (p.real / a_l) ** 2 + (p.imag / b_l) ** 2 < 1.0


def test_trivialization_unit_outputs():
    rng = RNG(3)
    for _ in range(50):
        z = g._quadric_draw(rng)
        try:
            lam, first, second = g.trivialization(z, region_check=False,
                                                  allow_any_branch=True)
        except errors.BranchCutProximity:
            continue
        assert abs(first[0] ** 2 + first[1] ** 2 - 1.0) < g.ROUNDTRIP_TOL
        assert abs(second[0] ** 2 + second[1] ** 2 - 1.0) < g.ROUNDTRIP_TOL


def test_trivialization_alpha_beta_at_zero():
    # lam = 0: alpha = beta = sqrt(2); take e = (1,0), f = (0,1), theta=pi/4
    e = np.array([1.0, 0.0])
    f = np.array([0.0, 1.0])
    z = g.mu_inv(*g.sigma(e, f, math.pi / 4, 0.0))
    lam, first, second = g.trivialization(z, region_check=False)
    assert abs(lam) < 1e-12
    root2 = math.sqrt(2.0)
    assert abs(first[0] - root2 * z[0]) < 1e-12


def test_trivialization_slice_recovers_e_f():
    for e, f in zip(*g._unit_pairs(RNG(11), 25)):
        # theta = pi/4 maps to lam = 2i lam' on the positive imaginary axis
        z = g.mu_inv(*g.sigma(e, f, math.pi / 4, 0.8))
        lam, w1, w2 = g.trivialization(z)
        assert min(np.max(np.abs(w1 - e)), np.max(np.abs(w1 + e))) < 1e-10
        assert np.max(np.abs(w1.imag)) < 1e-10
        assert min(np.max(np.abs(w2 - f)), np.max(np.abs(w2 + f))) < 1e-10


def test_trivialization_inverts():
    # z is recovered from (lam, w1, w2) as (w1 / alpha, w2 / beta)
    rng = RNG(29)
    recovered = 0
    while recovered < 25:
        z = g._quadric_draw(rng)
        try:
            lam, first, second = g.trivialization(z, region_check=False,
                                                  allow_any_branch=True)
        except errors.BranchCutProximity:
            continue
        alpha = (2.0 / (1.0 + lam)) ** 0.5
        beta = (2.0 / (1.0 - lam)) ** 0.5
        back = np.concatenate((first / alpha, second / beta))
        assert np.max(np.abs(back - z)) < g.ROUNDTRIP_TOL
        recovered += 1


def test_branch_cut_guards():
    e = np.array([1.0, 0.0])
    f = np.array([0.0, 1.0])
    # theta = 0, lam = 1: P = sqrt(5) > 1 real: on the beta cut
    z = g.mu_inv(*g.sigma(e, f, 0.0, 1.0))
    with pytest.raises(errors.BranchCutProximity):
        g.trivialization(z, region_check=False)
    lam, first, second = g.trivialization(z, region_check=False,
                                          allow_any_branch=True)
    assert abs(second[0] ** 2 + second[1] ** 2 - 1.0) < 1e-10
    # P = 1 exactly: the zero section point at theta = 0
    z = g.mu_inv(*g.sigma(e, f, 0.0, 0.0))
    with pytest.raises(errors.BranchCutProximity):
        g.trivialization(z, region_check=False, allow_any_branch=True)


def test_rho_special_values():
    e = (1.0, 0.0)
    f = (0.0, 1.0)
    z = g.rho(e, f, 1.0)
    assert np.allclose(z, [1, 0, 0, 0], atol=1e-15)
    z = g.rho(e, f, 1j)
    assert np.allclose(z, [0, 0, 0, 1], atol=1e-15)


def test_rho_unit_circle_identity():
    rng = RNG(13)
    for _ in range(200):
        ang = rng.uniform(0, 2 * math.pi)
        zeta = complex(math.cos(ang), math.sin(ang))
        (e,), (f,) = g._unit_pairs(rng, 1)
        z = g.rho(e, f, zeta)
        assert abs(np.sum(z * z) - 1.0) < g.CONSTRUCTION_TOL


def test_rho_zero_argument():
    with pytest.raises(errors.ZeroArgument):
        g.rho((1.0, 0.0), (0.0, 1.0), 0.0)


def test_symplectic_pullback():
    err = g.symplectic_pullback_error(RNG(17), samples=100)
    assert err < g.FD_TOL


def test_symplectic_pullback_all_seeds():
    # seed 78 gave 1.67e-6 with the two-point stencil: truncation error
    # O(h^2) at h = 1e-5, above the 1e-6 tolerance
    assert g.symplectic_pullback_error(RNG(78), samples=40) < g.FD_TOL
    worst = max(g.symplectic_pullback_error(RNG(seed), samples=40)
                for seed in range(200))
    assert worst < g.FD_TOL


def test_geometry_report_passes():
    report = g.geometry_report(seed=0, samples=100, ef_samples=25)
    assert all(entry["ok"] for entry in report.values())


def test_lam_steps_below_two_rejected():
    # one step divides by zero and none reports an empty grid as PASS
    for steps in (1, 0):
        with pytest.raises(errors.GridTooSmall, match="got %d" % steps):
            g.geometry_report(samples=5, grid_thetas=4, lam_steps=steps)


def test_nan_error_fails_the_check(monkeypatch):
    nan = float("nan")
    assert math.isnan(g.p_image_errors(RNG(0), grid_thetas=2, lam_max=nan,
                                       lam_steps=3, ef_samples=2))
    report = g.geometry_report(seed=0, samples=5, grid_thetas=2,
                               lam_max=nan, ef_samples=2)
    assert math.isnan(report["p_image_grid"]["error"])
    assert not report["p_image_grid"]["ok"]
    # a NaN error in the middle of the samples is kept to the end: the
    # first mu_inv call is the quadric roundtrip, and its row 1 the
    # second sample's
    calls = itertools.count()
    real = g.mu_inv

    def nan_in_second_sample(u, v):
        z = real(u, v)
        if next(calls) == 0:
            z[1] = nan
        return z

    monkeypatch.setattr(g, "mu_inv", nan_in_second_sample)
    worst_z, worst_p = g.roundtrip_errors(RNG(0), 4)
    assert math.isnan(worst_z) and worst_p < g.ROUNDTRIP_TOL


def test_zero_section_curve_is_segment():
    pts = [g.p_image(2 * math.pi * i / 100, 0.0) for i in range(101)]
    assert all(abs(p.imag) == 0.0 for p in pts)
    assert min(p.real for p in pts) >= -1.0 - 1e-12
    assert max(p.real for p in pts) <= 1.0 + 1e-12


def _axis_touches(pts):
    touches = 0
    for a, b in zip(pts, pts[1:]):
        if a.imag == 0.0 or (a.imag > 0) != (b.imag > 0):
            touches += 1
    return touches


def test_default_figure_qualitative_shape():
    curves = g.default_figure_curves(400)
    imgs = {name: [g.p_image(t, l) for t, l in pts]
            for name, pts in curves.items()}
    # one triangle above the real axis: the two loop images cross once
    # with positive imaginary part
    crossings_above = _loop_crossings(imgs["upper_sheet"],
                                      imgs["lower_sheet"], above=True)
    assert len(crossings_above) == 1
    assert crossings_above[0].imag > 0.1
    # each loop dips below the axis (the bigons) and returns
    for name in ("upper_sheet", "lower_sheet"):
        assert min(v.imag for v in imgs[name]) < -0.1
        assert max(v.imag for v in imgs[name]) > 0.1
        assert _axis_touches(imgs[name]) == 2


def _loop_crossings(p1, p2, above):
    out = []
    for a, b in zip(p1, p1[1:]):
        for c, d in zip(p2, p2[1:]):
            def cross(o, u, v):
                return ((u.real - o.real) * (v.imag - o.imag)
                        - (u.imag - o.imag) * (v.real - o.real))
            d1, d2 = cross(a, b, c), cross(a, b, d)
            d3, d4 = cross(c, d, a), cross(c, d, b)
            if (d1 > 0) != (d2 > 0) and (d3 > 0) != (d4 > 0):
                t = d3 / (d3 - d4)
                p = a + (b - a) * t
                if (p.imag > 1e-9) == above and abs(p.imag) > 1e-9:
                    out.append(p)
    return out


def test_figure_rows_and_svg():
    curves = g.default_figure_curves(32)
    rows = g.figure_rows(curves)
    assert rows[0][0] == "lower_sheet"
    assert len(rows[0]) == 5
    svg = g.figure_svg(curves)
    assert svg.startswith("<svg")
    assert svg.count("<path") == 3
