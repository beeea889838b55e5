"""Winding numbers of line loops, Maslov indices, and Fredholm index
gluing arithmetic.

Loops of lines in the plane are recorded through the squaring
identification of the line space with a circle: a breakpoint angle phi
is the position of the loop on that circle, in radians, so a half-turn
of the line advances phi by 2*pi and the degree of a closed loop is its
total phi change divided by 2*pi.  Every angle is an exact rational
multiple of pi: an int or Fraction as given, a float in radians as the
exact value of the float angle / pi.  All arithmetic on angles is exact.
Where an end angle is a float, a closure tolerance snaps a loop's total
to a multiple of pi, and an arc set's jumps must clear it to count as
transverse.  Only a non-finite float angle raises AngleOutOfRange.

The short homotopy inserted at a puncture between transverse asymptotic
lines changes the line angle by sigma in (-pi, 0) by default (an
experimentation flag allows (0, pi)); it therefore contributes
sigma / pi, a value in (-1, 0), to the degree.

The gluing formula for Fredholm indices of boundary-punctured operators
is index(d1 # d2) = index(d1) + index(d2) - k, where k is the dimension
of the intersection of the asymptotic boundary conditions at the glued
puncture.  solve_triangle_system recovers the triangle and half-plane
indices from the two gluing equations

    index_V + 3 index_H - 3(n - 1) = n + mu
    2 index_H - (n - 1) = n + mu'

and vanishing_triangle_index specializes to mu = mu' = -1 with
n = base_dim - 1 (a base of dimension 2k gives index 2k - 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import (AngleOutOfRange, InvalidIndexProblem,
                     MismatchedPuncture, NotClosed, UnknownConvention)

Angle = Union[Fraction, float, int]

_CLOSURE_TOL = 1e-9


@dataclass(frozen=True)
class LagrangianLineLoop:
    """Piecewise-linear loop of lines, as (parameter, angle) breakpoints.

    Angles are positions on the line circle through the squaring
    identification (one half-turn of the line = 2*pi).  An int or
    Fraction is an exact multiple of pi, a float an angle in radians.
    convention is the orientation of the plane: "dx^dy" or "dy^dx".
    """

    breakpoints: tuple[tuple[Angle, Angle], ...]
    convention: str = "dx^dy"

    def __post_init__(self):
        if self.convention not in ("dx^dy", "dy^dx"):
            raise UnknownConvention("convention must be dx^dy or dy^dx, "
                                    "got %r" % (self.convention,))
        if len(self.breakpoints) < 2:
            raise NotClosed("a loop needs at least two breakpoints")

    def _angles_over_pi(self, at: str = "") -> list[Fraction]:
        """The angles as exact multiples of pi: an int or Fraction as
        given, a float in radians as the exact value of the float
        a / pi; at prefixes the breakpoint that AngleOutOfRange names."""
        angles = []
        for i, (_, a) in enumerate(self.breakpoints):
            if not isinstance(a, (Fraction, int)):
                if not math.isfinite(a):
                    raise AngleOutOfRange("%sbreakpoint %d: the angle %r is "
                                          "not finite" % (at, i, a))
                a = a / math.pi
            angles.append(Fraction(a))
        return angles

    @property
    def _snapped(self) -> bool:
        """Whether an end angle is a float, so that the loop's angle
        change is snapped to a multiple of pi with _CLOSURE_TOL."""
        return not all(isinstance(b[1], (Fraction, int))
                       for b in (self.breakpoints[0], self.breakpoints[-1]))

    def total_over_pi(self) -> Fraction:
        """The angle change over pi."""
        angles = self._angles_over_pi()
        return angles[-1] - angles[0]


def _shown(x: Fraction | int, snapped: bool = False) -> str:
    """x for a message, to 12 digits if snapped, or its magnitude past
    the float range (snapped) or the int-to-str limit."""
    try:
        return "%.12g" % x if snapped else str(x)
    except (OverflowError, ValueError):
        n, d = Fraction(x).as_integer_ratio()
        return "about %s10^%d" % ("-" * (n < 0), math.log10(abs(n))
                                  - math.log10(d))


def loop_degree(loop: LagrangianLineLoop) -> int:
    """Degree of the closed loop on the line circle (signed, for the
    dx^dy orientation).  The angle change must be a multiple of pi,
    within _CLOSURE_TOL where an end angle is a float."""
    total = loop.total_over_pi()
    halfturns = round(total)
    if abs(total - halfturns) > (_CLOSURE_TOL if loop._snapped else 0):
        raise NotClosed("total angle change %s*pi is not a multiple of pi"
                        % _shown(total, loop._snapped))
    if halfturns % 2 != 0:
        raise NotClosed("loop does not close: angle change %s*pi"
                        % _shown(halfturns))
    return halfturns // 2


def maslov_of_loop(loop: LagrangianLineLoop) -> int:
    """Maslov index; the sign flips with the orientation convention."""
    degree = loop_degree(loop)
    return degree if loop.convention == "dx^dy" else -degree


@dataclass(frozen=True)
class BoundaryData:
    """Puncture conventions for loops built from boundary arcs.

    For each puncture the short homotopy between the two transverse
    asymptotic lines changes the line angle by sigma in (-pi, 0); with
    positive_range the experimentation convention (0, pi) is used.
    """

    punctures: int
    positive_range: bool = False


def winding_number(arcs: Sequence[LagrangianLineLoop],
                   boundary: BoundaryData) -> int:
    """Degree in the line circle of the loop obtained from the given
    arcs by inserting the short puncture homotopy between consecutive
    arc endpoints (arc i ends, arc i+1 starts; the last arc closes up
    to the first)."""
    if boundary.punctures != len(arcs):
        raise MismatchedPuncture(
            "%d arcs but %d punctures" % (len(arcs), boundary.punctures))
    tol = _CLOSURE_TOL if any(a._snapped for a in arcs) else 0
    angles = [a._angles_over_pi("arc %d " % i) for i, a in enumerate(arcs)]
    # The arcs' angle changes and the jumps between them sum to 0, and
    # the homotopy at a jump turns by jump % 2 (less 2 for sigma in
    # (-pi, 0)), all in units of pi: the total is -2 (jump // 2) per
    # puncture, less 2 each for sigma < 0, and always closes.
    degree = 0 if boundary.positive_range else -len(arcs)
    for i, arc in enumerate(angles):
        jump = angles[(i + 1) % len(arcs)][0] - arc[-1]
        if min(jump % 2, -jump % 2) <= tol:
            raise NotClosed(
                "asymptotic lines at puncture %d are not transverse" % i)
        degree -= jump // 2
    return degree


def figure_boundary_arcs() -> tuple[list, BoundaryData]:
    """The boundary pattern of the triangle-image figure: one arc going
    once counter-clockwise around the line circle, one flat arc, one
    quarter-turn arc, and three punctures at sigma = -pi/2; the total
    winding number is zero.
    """
    arcs = [
        LagrangianLineLoop(((Fraction(0), Fraction(0)),
                            (Fraction(1), Fraction(2)))),   # + full circle
        LagrangianLineLoop(((Fraction(0), Fraction(1)),
                            (Fraction(1), Fraction(1)))),   # flat
        LagrangianLineLoop(((Fraction(0), Fraction(0)),
                            (Fraction(1), Fraction(1)))),   # + half circle
    ]
    return arcs, BoundaryData(punctures=3)


# --------------------------------------------------------------------------
# index gluing
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class OperatorPart:
    """A boundary-punctured operator with an index and named punctures
    carrying the dimension of the asymptotic boundary intersection."""

    name: str
    index: int
    punctures: dict[str, int]


def glued_index(parts: Sequence[OperatorPart],
                gluings: Sequence[tuple[str, str, str, str]]) -> int:
    """Total index of parts glued along matched punctures of a tree.

    Each gluing is (part_a, puncture_a, part_b, puncture_b); the
    punctures must exist, be used once, agree in dimension, and the
    gluing graph must be a tree on the parts.
    """
    by_name = {p.name: p for p in parts}
    if len(by_name) != len(parts):
        raise MismatchedPuncture("part names must be distinct")
    if len(gluings) != len(parts) - 1:
        raise MismatchedPuncture(
            "a tree on %d parts needs %d gluings, got %d"
            % (len(parts), len(parts) - 1, len(gluings)))
    used: set[tuple[str, str]] = set()
    parent = {p.name: p.name for p in parts}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    total = sum(p.index for p in parts)
    for pa, qa, pb, qb in gluings:
        for part, punct in ((pa, qa), (pb, qb)):
            if part not in by_name or punct not in by_name[part].punctures:
                raise MismatchedPuncture(
                    "no puncture %r on part %r" % (punct, part))
            if (part, punct) in used:
                raise MismatchedPuncture(
                    "puncture %r of %r glued twice" % (punct, part))
            used.add((part, punct))
        ka = by_name[pa].punctures[qa]
        kb = by_name[pb].punctures[qb]
        if ka != kb:
            raise MismatchedPuncture(
                "boundary intersection dimensions differ: %d vs %d"
                % (ka, kb))
        ra, rb = find(pa), find(pb)
        if ra == rb:
            raise MismatchedPuncture("gluing graph has a cycle")
        parent[ra] = rb
        total -= ka
    return total


def _require_ints(**values) -> None:
    for name, x in values.items():
        if not isinstance(x, int):
            raise InvalidIndexProblem("%s must be an int, got %r" % (name, x))


def solve_triangle_system(n: int, mu: int, mu_prime: int
                          ) -> tuple[int, int]:
    """Solve the pair of gluing equations for the half-plane and
    triangle indices; returns (index_H, index_V)."""
    _require_ints(n=n, mu=mu, mu_prime=mu_prime)
    double_h = 2 * n - 1 + mu_prime
    if double_h % 2 != 0:
        raise InvalidIndexProblem("system has no integer solution for "
                                  "mu'=%d" % mu_prime)
    index_h = double_h // 2
    index_v = (n + mu) + 3 * (n - 1) - 3 * index_h
    return index_h, index_v


def vanishing_triangle_index(base_dim: int) -> dict[str, int]:
    """Indices of the triangle problem over a base of even dimension
    base_dim = 2k: both Maslov inputs are -1, the fiber half-dimension
    is n = base_dim - 1, and the triangle index comes out 2k - 2."""
    _require_ints(base_dim=base_dim)
    if base_dim < 2 or base_dim % 2 != 0:
        raise InvalidIndexProblem("base dimension must be even and >= 2")
    n = base_dim - 1
    index_h, index_v = solve_triangle_system(n, -1, -1)
    return {"n": n, "index_H": index_h, "index_V": index_v}
