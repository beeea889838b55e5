"""Floating-point verification of the closed-form quadric geometry.

The affine quadric Z = {z in C^4 : sum z_j^2 = 1} is identified with
T*S^3 = {(u, v) : |u| = 1, u.v = 0} by

    mu(x + iy) = (x/|x|, -|x| y),
    mu_inv(u, v) = f(|v|) u - i f(|v|)^{-1} v,
    f(s) = sqrt((1 + sqrt(1 + 4 s^2)) / 2),

which pulls the canonical one-form sum(-v_j du_j) back to sum(y_j dx_j).
The great-circle slices are parameterized by

    sigma(e, f, theta, lam)
        = ((cos(theta) e, sin(theta) f), lam (-sin(theta) e, cos(theta) f))

and the quadratic P(z) = z1^2 + z2^2 - z3^2 - z4^2 maps the slice to the
confocal ellipse

    P(mu_inv(sigma(e, f, theta, lam)))
        = sqrt(1 + 4 lam^2) cos(2 theta) + 2 i lam sin(2 theta)

independently of e, f.  Over a simply connected region avoiding +-1
the fibration P trivializes holomorphically via

    Phi(z) = (lam, alpha(lam) (z1, z2), beta(lam) (z3, z4)),
    alpha = sqrt(2/(1 + lam)), beta = sqrt(2/(1 - lam)),

with principal square roots on the plane slit along lam <= -1 and
lam >= 1 respectively.

This module is strictly segregated from the exact category pipeline:
no numeric value flows into any presentation.

Batches.  mu, mu_inv, sigma and quadratic are the formulas above as
array kernels over a trailing axis of length 4 (2 for e and f): a
point is an array of shape (4,), a batch of N points has shape (N, 4),
and there are no point classes.  trivialization and rho take and return
arrays.  Every construction check runs on every point, on the inputs
and the outputs of each map; a DomainViolation gives the deviation,
after the index of the first offending point for a batch.  The
randomized checks draw their points, then make one pass of each map
over them; the default geometry_report (100,800 grid points, 200
round-trip samples, 100 curves) takes about 0.07 s on a 2-core x86_64,
against 2.5 s for the same checks made one point at a time.

Tolerances: 1e-12 for construction invariants, 1e-10 for round trips
and the P-image grid, 1e-6 for finite-difference checks with step 1e-5.
Identities whose terms grow with lambda are held relative to the size
of those terms, at least 1: sum |z_j|^2, |v| and |p_image|.  Derivatives
use the four-point central difference: its O(h^4) truncation error
stays far below that tolerance, where the O(h^2) error of a two-point
stencil reaches it on some random curves.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import (BranchCutProximity, DomainViolation, GridTooSmall,
                     ZeroArgument)

CONSTRUCTION_TOL = 1e-12
ROUNDTRIP_TOL = 1e-10
FD_TOL = 1e-6
FD_STEP = 1e-5
BRANCH_TOL = 1e-8
# The P-image grid is checked in batches of whole theta rows holding at
# most this many points (or one row, if longer): a 16 x 5 x 20 grid is
# one batch, while the default 48 x 21 x 100 grid in one batch would
# raise peak memory by 38 MB.
BATCH_POINTS = 4096


def _require(deviation, what: str, size=None) -> None:
    """Raise DomainViolation at the first point whose deviation exceeds
    CONSTRUCTION_TOL times max(1, size()), the size of the terms its
    identity sums (1 without size; size runs only past the absolute
    bound), naming its absolute deviation, after its index in a batch.
    A NaN deviation passes, so a NaN input reaches the error checks,
    which report it as FAIL."""
    bad = deviation > CONSTRUCTION_TOL
    if size is not None and bad.any():
        bad = deviation > CONSTRUCTION_TOL * np.maximum(1.0, size())
    if not bad.any():
        return
    if np.ndim(deviation) == 0:
        raise DomainViolation("%s by %.1e" % (what, deviation))
    i = int(np.argmax(bad))
    raise DomainViolation("point %d: %s by %.1e" % (i, what, deviation[i]))


def _norm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(a * a, axis=-1))


def _check_axis(a, name: str, length: int = 4) -> None:
    """Refuse an array whose trailing axis is not of the given length."""
    if np.shape(a)[-1:] != (length,):
        raise DomainViolation("%s must have a trailing axis of length %d, "
                              "got shape %s" % (name, length, np.shape(a)))


def _check_cotangent(u: np.ndarray, v: np.ndarray) -> None:
    _check_axis(u, "u")
    _check_axis(v, "v")
    _require(np.abs(_norm(u) - 1.0), "|u| differs from 1")
    _require(np.abs(np.sum(u * v, axis=-1)), "u.v differs from 0",
             lambda: _norm(v))


def _check_quadric(z: np.ndarray) -> None:
    _check_axis(z, "z")
    _require(np.abs(np.sum(z * z, axis=-1) - 1.0),
             "sum z_j^2 differs from 1",
             lambda: np.sum(np.abs(z) ** 2, axis=-1))


def _f(s):
    return np.sqrt((1.0 + np.sqrt(1.0 + 4.0 * s * s)) / 2.0)


def mu(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """mu on quadric points z of shape (4,) or (N, 4); returns (u, v)."""
    _check_quadric(z)
    x = z.real
    y = z.imag
    norm_x = _norm(x)[..., None]
    u, v = x / norm_x, -norm_x * y
    _check_cotangent(u, v)
    return u, v


def mu_inv(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """mu_inv on cotangent points (u, v) of shape (4,) or (N, 4)."""
    _check_cotangent(u, v)
    fv = _f(_norm(v))[..., None]
    z = fv * u - 1j * (v / fv)
    _check_quadric(z)
    return z


def sigma(e, f, theta, lam) -> tuple[np.ndarray, np.ndarray]:
    """Slice points for unit vectors e, f of shape (2,) or (N, 2) and
    angles theta and heights lam of shape () or (N,); returns (u, v)."""
    e, f = np.asarray(e, dtype=float), np.asarray(f, dtype=float)
    for w, name in ((e, "e"), (f, "f")):
        _check_axis(w, name, 2)
        _require(np.abs(_norm(w) - 1.0), "|%s| differs from 1" % name)
    c = np.cos(theta)[..., None]
    s = np.sin(theta)[..., None]
    lam = np.asarray(lam)[..., None]
    u = np.concatenate((c * e, s * f), axis=-1)
    v = np.concatenate((-lam * s * e, lam * c * f), axis=-1)
    _check_cotangent(u, v)
    return u, v


def quadratic(z: np.ndarray):
    """P(z) = z1^2 + z2^2 - z3^2 - z4^2 over the last axis of z: one
    complex for a point, shape (N,) for a batch."""
    _check_axis(z, "z")
    return z[..., 0] ** 2 + z[..., 1] ** 2 - z[..., 2] ** 2 - z[..., 3] ** 2


def p_image(theta: float, lam: float) -> complex:
    """Closed form of P(mu_inv(sigma(e, f, theta, lam)))."""
    return (math.sqrt(1.0 + 4.0 * lam * lam) * math.cos(2.0 * theta)
            + 2j * lam * math.sin(2.0 * theta))


def ellipse_axes(lam: float) -> tuple[float, float]:
    """Semi-axes (sqrt(1 + 4 lam^2), 2 lam) of the constant-lam image."""
    return math.sqrt(1.0 + 4.0 * lam * lam), 2.0 * lam


def trivialization(z: np.ndarray, region_check: bool = True,
                   allow_any_branch: bool = False
                   ) -> tuple[complex, np.ndarray, np.ndarray]:
    """Fiberwise splitting (lam, alpha (z1, z2), beta (z3, z4)) of a
    quadric point z of shape (4,).

    Both output pairs satisfy w1^2 + w2^2 = 1.  Raises
    BranchCutProximity within 1e-8 of the branch points +-1 or on the
    slit rays unless allow_any_branch is set; region_check additionally
    insists on Im(lam) >= -1e-8 (the trivialized region lies in the
    closed upper half-plane).
    """
    if np.shape(z) != (4,):
        raise DomainViolation("trivialization takes one point of shape "
                              "(4,), got shape %s" % (np.shape(z),))
    _check_quadric(z)
    lam = complex(quadratic(z))
    if abs(lam - 1.0) < BRANCH_TOL or abs(lam + 1.0) < BRANCH_TOL:
        raise BranchCutProximity("lam = %r is within 1e-8 of a branch point"
                                 % (lam,))
    if not allow_any_branch:
        if abs(lam.imag) < BRANCH_TOL and abs(lam.real) > 1.0:
            raise BranchCutProximity(
                "lam = %r lies on a square-root branch cut; pass "
                "allow_any_branch to override" % (lam,))
    if region_check and lam.imag < -BRANCH_TOL:
        raise BranchCutProximity(
            "lam = %r is outside the upper half-plane region" % (lam,))
    alpha = cmath.sqrt(2.0 / (1.0 + lam))
    beta = cmath.sqrt(2.0 / (1.0 - lam))
    return lam, alpha * z[:2], beta * z[2:]


def rho(e, f, zeta: complex) -> np.ndarray:
    """Cylinder parameterization of the slice quadric, normalized so the
    defining equation holds exactly:

        z1 = (zeta + 1/zeta)/2,  z2 = -i (zeta - 1/zeta)/2,
        rho(e, f, zeta) = (z1 e, z2 f).
    """
    if abs(zeta) < 1e-300:
        raise ZeroArgument("rho is undefined at zeta = 0")
    e = np.asarray(e, dtype=float)
    f = np.asarray(f, dtype=float)
    z1 = (zeta + 1.0 / zeta) / 2.0
    z2 = -1j * (zeta - 1.0 / zeta) / 2.0
    z = np.concatenate((z1 * e, z2 * f))
    _check_quadric(z)
    return z


# --------------------------------------------------------------------------
# randomized checks
# --------------------------------------------------------------------------

def _cotangent_draw(rng: np.random.Generator
                    ) -> tuple[np.ndarray, np.ndarray]:
    """A random cotangent point, v drawn at scale 2."""
    u = rng.standard_normal(4)
    u /= np.linalg.norm(u)
    v = rng.standard_normal(4) * 2.0
    v -= (v @ u) * u
    return u, v


def _quadric_draw(rng: np.random.Generator) -> np.ndarray:
    """A random quadric point: a complex Gaussian 4-vector, redrawn
    while sum p_j^2 is within 1e-3 of 0, over a square root of it."""
    while True:
        p = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        s = np.sum(p * p)
        if abs(s) > 1e-3:
            return p / np.sqrt(s)


def _unit_pairs(rng: np.random.Generator, count: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """count unit pairs (e, f) as two (count, 2) arrays: the angles of
    e and f are drawn uniformly in [0, 2*pi), in the order e, f, e, f."""
    ang = rng.uniform(0.0, 2.0 * math.pi, size=(count, 2))
    unit = np.stack((np.cos(ang), np.sin(ang)), axis=-1)
    return unit[:, 0], unit[:, 1]


def _worst(errors: np.ndarray) -> float:
    """The largest error, 0.0 for none.  np.max keeps a NaN where the
    builtin max drops it (nan > worst is False), so a NaN error is
    reported, never read as no error."""
    return float(np.max(errors, initial=0.0))


def roundtrip_errors(rng: np.random.Generator, samples: int
                     ) -> tuple[float, float]:
    """Max componentwise errors of mu_inv(mu(z)) and mu(mu_inv(p)).

    Each sample draws its quadric point, then its cotangent point; the
    rejection loop of the quadric draw keeps the draws per sample."""
    z = np.empty((samples, 4), dtype=complex)
    u = np.empty((samples, 4))
    v = np.empty((samples, 4))
    for i in range(samples):
        z[i] = _quadric_draw(rng)
        u[i], v[i] = _cotangent_draw(rng)
    worst_z = _worst(np.abs(mu_inv(*mu(z)) - z))
    u1, v1 = mu(mu_inv(u, v))
    worst_p = _worst(np.maximum(np.abs(u1 - u), np.abs(v1 - v)))
    return worst_z, worst_p


def p_image_errors(rng: np.random.Generator, grid_thetas: int = 48,
                   lam_max: float = 2.0, lam_steps: int = 21,
                   ef_samples: int = 100) -> float:
    """Max |P(mu_inv(sigma(e,f,theta,lam))) - p_image(theta,lam)| /
    max(1, |p_image|) over a grid crossed with random unit pairs (e, f).

    Whole theta rows of lam_steps * ef_samples points go into one batch,
    as many as fit in BATCH_POINTS.  Raises GridTooSmall for fewer than
    two lambda steps, which cannot span [-lam_max, lam_max]."""
    if lam_steps < 2:
        raise GridTooSmall("lam_steps must be at least 2, got %r"
                           % (lam_steps,))
    e, f = _unit_pairs(rng, ef_samples)
    thetas = [2.0 * math.pi * it / grid_thetas for it in range(grid_thetas)]
    lams = [-lam_max + 2.0 * lam_max * il / (lam_steps - 1)
            for il in range(lam_steps)]
    row = lam_steps * ef_samples
    rows = max(1, BATCH_POINTS // max(1, row))
    lam = np.tile(np.repeat(lams, ef_samples), rows)
    e = np.tile(e, (lam_steps * rows, 1))
    f = np.tile(f, (lam_steps * rows, 1))
    worst = 0.0
    for start in range(0, grid_thetas, rows):
        batch = thetas[start:start + rows]
        n = len(batch) * row
        expected = np.repeat([p_image(t, h) for t in batch for h in lams],
                             ef_samples)
        z = mu_inv(*sigma(e[:n], f[:n], np.repeat(batch, row), lam[:n]))
        worst = np.maximum(worst, _worst(
            np.abs(quadratic(z) - expected)
            / np.maximum(1.0, np.abs(expected))))
    return float(worst)


def _tangent_line(rng: np.random.Generator
                  ) -> tuple[np.ndarray, np.ndarray]:
    """A random affine line p0 + t dp that normalizes to a curve on the
    quadric near t = 0."""
    p0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    dp = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    if abs(np.sum(p0 * p0)) < 1e-2:
        return _tangent_line(rng)
    return p0, dp


def _derivative(f) -> np.ndarray:
    """Four-point central difference of f at 0 with step h = FD_STEP;
    truncation error O(h^4)."""
    h = FD_STEP
    return (8.0 * (f(h) - f(-h)) - (f(2.0 * h) - f(-2.0 * h))) / (12.0 * h)


def symplectic_pullback_error(rng: np.random.Generator,
                              samples: int = 100) -> float:
    """Finite-difference check that mu pulls sum(-v_j du_j) back to
    sum(y_j dx_j); returns the worst relative error.  The curves are
    drawn one sample at a time, then each stencil point is one batch."""
    lines = [_tangent_line(rng) for _ in range(samples)]
    p0 = np.array([p for p, _ in lines], dtype=complex).reshape(-1, 4)
    dp = np.array([d for _, d in lines], dtype=complex).reshape(-1, 4)

    def curve(t: float) -> np.ndarray:
        p = p0 + t * dp
        return p / np.sqrt(np.sum(p * p, axis=-1))[..., None]

    z0 = curve(0.0)
    _, v0 = mu(z0)
    du = _derivative(lambda t: mu(curve(t))[0])
    lhs = -np.sum(v0 * du, axis=-1)
    dx = _derivative(lambda t: curve(t).real)
    rhs = np.sum(z0.imag * dx, axis=-1)
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    return _worst(np.abs(lhs - rhs) / scale)


def geometry_report(seed: int = 0, samples: int = 200,
                    grid_thetas: int = 48, lam_steps: int = 21,
                    lam_max: float = 2.0, ef_samples: int = 100) -> dict:
    """Run the numeric identity suite; every entry reports the worst
    error and the tolerance it is held to."""
    rng = np.random.default_rng(seed)
    z_err, p_err = roundtrip_errors(rng, samples)
    grid_err = p_image_errors(rng, grid_thetas, lam_max, lam_steps,
                              ef_samples)
    pull_err = symplectic_pullback_error(rng)
    checks = {
        "roundtrip_quadric": (z_err, ROUNDTRIP_TOL),
        "roundtrip_cotangent": (p_err, ROUNDTRIP_TOL),
        "p_image_grid": (grid_err, ROUNDTRIP_TOL),
        "symplectic_pullback": (pull_err, FD_TOL),
    }
    return {
        name: {"error": err, "tolerance": tol, "ok": err < tol}
        for name, (err, tol) in checks.items()
    }


# --------------------------------------------------------------------------
# figure emission
# --------------------------------------------------------------------------

def default_figure_curves(loop_points: int = 200) -> dict[str, list]:
    """Three boundary curves whose images qualitatively reproduce the
    triangle-and-bigons figure: the zero section maps onto the segment
    [-1, 1]; two loops centered on either side of theta = pi/4 map to
    closed curves crossing the segment, meeting once above the real
    axis and each cutting a bigon below it."""
    curves: dict[str, list] = {}
    curves["zero_section"] = [(2.0 * math.pi * i / loop_points, 0.0)
                              for i in range(loop_points + 1)]

    def loop(center: float, r_theta: float, r_lam: float):
        pts = []
        for i in range(loop_points + 1):
            t = 2.0 * math.pi * i / loop_points
            pts.append((center + r_theta * math.cos(t),
                        r_lam * math.sin(t)))
        return pts

    curves["upper_sheet"] = loop(math.pi / 4 - 0.12, 0.30, 0.25)
    curves["lower_sheet"] = loop(math.pi / 4 + 0.12, 0.30, 0.25)
    return curves


def figure_rows(curves: dict[str, list]) -> list[tuple]:
    """CSV rows (curve_id, theta, lam, re, im) for the curve images."""
    rows = []
    for name in sorted(curves):
        for theta, lam in curves[name]:
            val = p_image(theta, lam)
            rows.append((name, theta, lam, val.real, val.imag))
    return rows


def figure_svg(curves: dict[str, list]) -> str:
    """A 640 x 480 viewBox SVG with one path per curve image."""
    all_pts = {name: [p_image(t, l) for t, l in pts]
               for name, pts in curves.items()}
    xs = [v.real for pts in all_pts.values() for v in pts]
    ys = [v.imag for pts in all_pts.values() for v in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    pad = 0.05 * max(x1 - x0, y1 - y0, 1e-9)
    x0, x1, y0, y1 = x0 - pad, x1 + pad, y0 - pad, y1 + pad

    def to_px(v: complex) -> tuple[float, float]:
        px = (v.real - x0) / (x1 - x0) * 640
        py = 480 - (v.imag - y0) / (y1 - y0) * 480
        return px, py

    colors = {"zero_section": "#2a7", "upper_sheet": "#c33",
              "lower_sheet": "#36c"}
    paths = []
    for i, name in enumerate(sorted(all_pts)):
        pts = [to_px(v) for v in all_pts[name]]
        d = "M " + " L ".join("%.2f %.2f" % p for p in pts)
        color = colors.get(name, "#%02x%02x%02x" % (40 * i % 256, 60, 120))
        paths.append('<path d="%s" fill="none" stroke="%s" '
                     'stroke-width="1.5"/>' % (d, color))
    return ('<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 640 480">\n'
            '%s\n</svg>\n' % "\n".join(paths))
