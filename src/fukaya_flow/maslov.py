"""Winding numbers of line loops, Maslov indices, and Fredholm index
gluing arithmetic.

Loops of lines in the plane are recorded through the squaring
identification of the line space with a circle: a breakpoint angle phi
is the position of the loop on that circle, in radians, so a half-turn
of the line advances phi by 2*pi and the degree of a closed loop is its
total phi change divided by 2*pi.  Angles are kept as exact rational
multiples of pi whenever they are supplied that way; float input is
accepted and snapped with a closure tolerance.

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
    identification (one half-turn of the line = 2*pi).  Fractions are
    interpreted as exact multiples of pi; floats as radians.
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

    def _angles_over_pi(self, at: str = "") -> list[Fraction | float]:
        angles = [Fraction(a) if isinstance(a, (Fraction, int))
                  else a / math.pi for _, a in self.breakpoints]
        for i, a in enumerate(angles):
            if isinstance(a, float) and not math.isfinite(a):
                raise AngleOutOfRange("%sbreakpoint %d: the angle %r is not "
                                      "finite" % (at, i, a * math.pi))
        return angles

    def total_over_pi(self, at: str = "") -> Fraction | float:
        """The angle change over pi; at prefixes the breakpoints that
        an AngleOutOfRange names."""
        angles = self._angles_over_pi(at)
        return _minus(angles[-1], angles[0],
                      "%sbreakpoint %d" % (at, len(angles) - 1),
                      at + "breakpoint 0")


def _float(angle: Fraction | float, where: str) -> float:
    """An angle over pi as a float, for arithmetic with float angles; an
    exact angle beyond the float range raises AngleOutOfRange."""
    try:
        return float(angle)
    except OverflowError:
        raise AngleOutOfRange("%s: an exact angle beyond the float range "
                              "meets a float angle" % where) from None


def _minus(later: Fraction | float, earlier: Fraction | float,
           later_at: str, earlier_at: str) -> Fraction | float:
    """later - earlier, exact when both angles are, else in floats."""
    if isinstance(later, float) or isinstance(earlier, float):
        later, earlier = _float(later, later_at), _float(earlier, earlier_at)
    return later - earlier


def _shown(x: Fraction | int) -> str:
    """x for a message, or its magnitude past the int-to-str limit."""
    try:
        return str(x)
    except ValueError:
        n, d = Fraction(x).as_integer_ratio()
        return "about %s10^%d" % ("-" * (n < 0), math.log10(abs(n))
                                  - math.log10(d))


def _halfturns(total_over_pi) -> int:
    """Exact or tolerance-snapped conversion of an angle change
    (in units of pi) to twice the degree."""
    if isinstance(total_over_pi, Fraction):
        if total_over_pi.denominator != 1:
            raise NotClosed("total angle change %s*pi is not a multiple "
                            "of pi" % _shown(total_over_pi))
        return int(total_over_pi)
    if not math.isfinite(total_over_pi):
        raise AngleOutOfRange("the total angle change is not finite")
    nearest = round(total_over_pi)
    if abs(total_over_pi - nearest) > _CLOSURE_TOL:
        raise NotClosed("total angle change %.12g*pi is not a multiple "
                        "of pi" % total_over_pi)
    return int(nearest)


def loop_degree(loop: LagrangianLineLoop) -> int:
    """Degree of the closed loop on the line circle (signed, for the
    dx^dy orientation)."""
    halfturns = _halfturns(loop.total_over_pi())
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
    changes = [a.total_over_pi("arc %d " % i) for i, a in enumerate(arcs)]
    exact = all(isinstance(c, Fraction) for c in changes)

    total = Fraction(0) if exact else 0.0
    for i, change in enumerate(changes):
        total += change if exact else _float(
            change, "the angle change of arc %d" % i)
    for i, arc in enumerate(arcs):
        j = (i + 1) % len(arcs)
        # in units of pi, i.e. of 2*sigma
        jump = _minus(arcs[j]._angles_over_pi()[0],
                      arc._angles_over_pi()[-1], "arc %d breakpoint 0" % j,
                      "arc %d breakpoint %d" % (i, len(arc.breakpoints) - 1))
        if exact:
            frac = jump % 2
            transverse = frac != 0
        else:
            frac = _float(jump, "the jump at puncture %d" % i) % 2.0
            if math.isnan(frac):  # the jump is infinite
                raise AngleOutOfRange("the jump at puncture %d is not "
                                      "finite" % i)
            transverse = min(frac, 2.0 - frac) >= _CLOSURE_TOL
        if not transverse:
            raise NotClosed(
                "asymptotic lines at puncture %d are not transverse" % i)
        total += frac if boundary.positive_range else frac - 2
    halfturns = _halfturns(total)
    if halfturns % 2 != 0:
        raise NotClosed("arcs plus homotopies do not close")
    return halfturns // 2


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
