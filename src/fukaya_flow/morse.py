"""Combinatorial Morse-Bott cascade complexes on flat models.

A critical component carries one product flat model (FlatModel): a
point, a circle R/Z or a torus (R/Z)^2 is the product of zero, one or
two circle Morse functions.  All coordinates are rational, unstable and
stable sets are axis-aligned product cells, and every intersection of
cells pulled back along evaluation maps is decided exactly, in integer
arithmetic: the rational data are scaled by their common denominator,
one fraction-free eliminator (IntegerReducer) reduces the equations,
and a search over the D^r lattice translates, at most TRANSLATE_BOUND
of them, finds the points (see intersect_cell_groups).  Every cell
factor is a point or an open arc; the circle minus one point is the arc
of length 1.  NonTransverse is raised only for a rank-deficient overlap
that is consistent and for a point on a cell boundary; an inconsistent
overlap is empty.  No floating point enters this module.

A correspondence packages the strip moduli between two components: a
product cell (R/Z)^m with two affine evaluation maps into the source
(higher action) and target (lower action) flat models.  The cascade
differential adds, to the internal Morse differential of each
component, cross terms counting zero-dimensional transverse
intersections of ev_-^{-1}(U(x)) with ev_+^{-1}(S(y)) mod 2.

A CascadeComplex is its columns: column i is d of generator i, a bitmask
over generator indices, checked once, by its constructor; boundary() and
to_json() derive sorted names.  differential_case_I and, for a framed
link complement, handle_complex_from_link write the columns directly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Optional

from . import f2
from .errors import (ActionOrderViolation, DifferentialNotSquareZero,
                     DuplicateGeneratorName, MalformedComplex,
                     NegativeCascadeCount, NonTransverse, ShapeMismatch,
                     TooManyTranslates, UnknownComponent, UnknownGenerator,
                     UnsupportedModel)
from .links import FramedLink

Frac = Fraction


def _mod1(x: Frac) -> Frac:
    return x - (x.numerator // x.denominator)


# --------------------------------------------------------------------------
# flat models
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CircleProfile:
    """Morse function on R/Z given by its critical points.

    points: (position, index) pairs, positions in [0,1), sorted,
    alternating index 0 (minimum) / 1 (maximum) around the circle.
    """

    points: tuple[tuple[Frac, int], ...]

    def __post_init__(self):
        pts = self.points
        if len(pts) < 2 or len(pts) % 2 != 0:
            raise UnsupportedModel(
                "a circle Morse function needs an even number >= 2 of "
                "critical points")
        for (p, i), (q, j) in zip(pts, pts[1:]):
            if not (0 <= p < q < 1):
                raise UnsupportedModel("positions must be sorted in [0,1)")
            if i == j:
                raise UnsupportedModel("indices must alternate")
        if pts[0][1] == pts[-1][1]:
            raise UnsupportedModel("indices must alternate around the circle")

    def neighbors(self, i: int) -> tuple[int, int]:
        n = len(self.points)
        return (i - 1) % n, (i + 1) % n

    def cell(self, i: int, stable: bool):
        """The stable (else unstable) cell of point i: the point itself
        at a maximum (else minimum), otherwise the open arc between its
        neighbors, which is the circle minus the other point, an arc of
        length 1, if there are two."""
        pos, idx = self.points[i]
        if idx == stable:
            return ("pt", pos)
        left, right = self.neighbors(i)
        a = self.points[left][0]
        b = self.points[right][0]
        return ("arc", a, _mod1(b - a) if b != a else Frac(1))

    def boundary(self, i: int) -> tuple[int, ...]:
        """Morse differential: a maximum bounds its two neighbor minima."""
        if self.points[i][1] == 0:
            return ()
        left, right = self.neighbors(i)
        if left == right:
            return ()
        return (left, right)


def two_point_profile(min_pos: Frac, max_pos: Frac) -> CircleProfile:
    a, b = Frac(min_pos), Frac(max_pos)
    pts = sorted([(_mod1(a), 0), (_mod1(b), 1)])
    return CircleProfile(tuple(pts))


@dataclass(frozen=True)
class FlatModel:
    """Product Morse data on (R/Z)^dim, one CircleProfile per factor:
    no factor is a point, one a circle and two a torus.

    A critical point is keyed by its tuple of positions in the factor
    profiles, names maps every key of the point grid to a distinct
    generator name, and its degree is index plus the Morse indices of
    its factors."""

    profiles: tuple[CircleProfile, ...]
    names: Mapping[tuple[int, ...], str]
    index: int = 0

    def __post_init__(self):
        if len(self.profiles) > 2:
            raise UnsupportedModel("flat models up to (R/Z)^2 only")
        grid = itertools.product(*(range(len(p.points))
                                   for p in self.profiles))
        if set(self.names) != set(grid):
            raise UnsupportedModel("names must cover the point grid")
        keys = {name: key for key, name in sorted(self.names.items())}
        if len(keys) != len(self.names):
            raise UnsupportedModel("generator names must be distinct")
        object.__setattr__(self, "_keys", keys)

    @property
    def dim(self) -> int:
        return len(self.profiles)

    def generator_names(self) -> tuple[str, ...]:
        return tuple(self._keys)  # in key order

    def degrees(self) -> tuple[int, ...]:
        return tuple(self.index + sum(p.points[i][1]
                                      for p, i in zip(self.profiles, key))
                     for key in self._keys.values())

    def cells(self, name: str, stable: bool) -> tuple:
        """The stable (else unstable) cell of a critical point: the
        product of its factors' cells."""
        return tuple(p.cell(i, stable)
                     for p, i in zip(self.profiles, self._keys[name]))

    def boundary(self, name: str) -> tuple[str, ...]:
        """Morse differential: move one factor at a time, mod 2."""
        key = self._keys[name]
        out: set[str] = set()
        for f, p in enumerate(self.profiles):
            for b in p.boundary(key[f]):
                out ^= {self.names[key[:f] + (b,) + key[f + 1:]]}
        return tuple(sorted(out))


def _by_indices(profiles: tuple[CircleProfile, ...],
                names: Mapping[tuple[int, ...], str]) -> FlatModel:
    """The flat model naming each critical point names[the Morse indices
    of its factors]."""
    return FlatModel(profiles, {
        tuple(i for i, _ in pts): names[tuple(idx for _, (_, idx) in pts)]
        for pts in itertools.product(*(enumerate(p.points)
                                       for p in profiles))})


@dataclass(frozen=True)
class CriticalComponent:
    """A named critical component with flat Morse data and an action level."""

    name: str
    model: FlatModel
    action: Frac

    def __post_init__(self):
        if not isinstance(self.model, FlatModel):
            raise UnsupportedModel("component model must be a FlatModel")

    def generator_names(self):
        return self.model.generator_names()


@dataclass(frozen=True)
class AffineMap:
    """w -> rows @ w + offsets from (R/Z)^m to (R/Z)^n, integer linear part."""

    rows: tuple[tuple[int, ...], ...]
    offsets: tuple[Frac, ...]

    def __post_init__(self):
        if len(self.rows) != len(self.offsets):
            raise MalformedComplex("one offset per row")
        # the intersection kernel's lattice search needs integer rows
        if not all(isinstance(a, int) for row in self.rows for a in row):
            raise UnsupportedModel("an evaluation map needs an integer "
                                   "linear part")

    @property
    def target_dim(self):
        return len(self.rows)


def identity_map(n: int) -> AffineMap:
    return AffineMap(tuple(tuple(1 if i == j else 0 for j in range(n))
                           for i in range(n)),
                     tuple(Frac(0) for _ in range(n)))


def projection_map(m: int, coord: int) -> AffineMap:
    return AffineMap((tuple(1 if j == coord else 0 for j in range(m)),),
                     (Frac(0),))


@dataclass(frozen=True)
class Correspondence:
    """Strip moduli between two components: a cell (R/Z)^dim with
    evaluation maps onto the source (higher action) and target."""

    source: str
    target: str
    dim: int
    ev_minus: AffineMap
    ev_plus: AffineMap

    def __post_init__(self):
        if self.dim not in (0, 1, 2):
            raise UnsupportedModel("correspondence cells up to (R/Z)^2 only")
        for side in ("ev_minus", "ev_plus"):
            if any(len(row) != self.dim for row in getattr(self, side).rows):
                raise ShapeMismatch("correspondence %s -> %s: %s needs %d "
                                    "columns" % (self.source, self.target,
                                                 side, self.dim))


def _check_correspondence(corr: Correspondence,
                          components: Mapping[str, CriticalComponent]
                          ) -> None:
    """Raise unless corr joins two of the named components, strictly
    down in action, with one evaluation-map row per coordinate of each
    model."""
    missing = [n for n in (corr.source, corr.target) if n not in components]
    if missing:
        raise UnknownComponent(
            "correspondence %s -> %s: no component named %s"
            % (corr.source, corr.target, ", ".join(map(repr, missing))))
    source, target = components[corr.source], components[corr.target]
    if not source.action > target.action:
        raise ActionOrderViolation(
            "correspondence %s -> %s does not decrease the action"
            % (corr.source, corr.target))
    for side, comp in (("ev_minus", source), ("ev_plus", target)):
        rows = getattr(corr, side).target_dim
        if rows != comp.model.dim:
            raise ShapeMismatch(
                "correspondence %s -> %s: %s has %d rows for %s of "
                "dimension %d" % (corr.source, corr.target, side, rows,
                                  comp.name, comp.model.dim))


# --------------------------------------------------------------------------
# exact intersection counting
# --------------------------------------------------------------------------

# the most lattice translates one intersect_cell_groups call searches
TRANSLATE_BOUND = 2 ** 16


class IntegerReducer:
    """Incremental fraction-free eliminator over Z with combination
    tracking, after Bareiss, Math. Comp. 22 (1968): the integer
    counterpart of f2.Reducer.

    Rows are numbered in the order they are added.  Each pivot row is
    kept as (vector, combo): vector is the combination combo = {added
    row number: coefficient} of added rows, it is 0 at every other
    pivot, its entry at its own pivot (the pivot scale) is positive,
    and the coefficients have gcd 1.  So vector / scale is the fully
    reduced pivot row over Q.  Only rows that raised the rank ever
    appear in a combination.
    """

    def __init__(self) -> None:
        self._pivots: dict[int, tuple[list[int], dict[int, int]]] = {}
        self._count = 0

    def reduce(self, v) -> tuple[list[int], dict[int, int], int]:
        """(residual, combo, scale), scale > 0: scale * v minus the
        combination combo of added rows is the residual.  The residual
        is 0 in every pivot column; it is zero exactly when v lies in
        the span."""
        v, combo, scale = list(v), {}, 1
        # a pivot row is 0 at the other pivots, so one sweep clears all
        for p, (row, row_combo) in self._pivots.items():
            f = v[p]
            if f:
                s = row[p]
                v = [s * a - f * b for a, b in zip(v, row)]
                combo = _combine(s, combo, f, row_combo)
                scale *= s
        return v, combo, scale

    def add(self, v) -> tuple[list[int], dict[int, int], int]:
        """Add v as the next row.  Returns (residual, combo, scale) as
        for reduce; a zero residual means scale * v is exactly the
        combination combo of the rows before it."""
        residual, combo, scale = self.reduce(v)
        n = self._count
        self._count += 1
        p = next((c for c, a in enumerate(residual) if a), None)
        if p is not None:
            row, row_combo = _primitive(p, residual,
                                        _combine(-1, combo, scale, {n: 1}))
            s = row[p]
            for q, (other, other_combo) in list(self._pivots.items()):
                f = other[p]
                if f:
                    self._pivots[q] = _primitive(
                        q, [s * a - f * b for a, b in zip(other, row)],
                        _combine(s, other_combo, -f, row_combo))
            self._pivots[p] = (row, row_combo)
        return residual, combo, scale

    def pivots(self) -> list[tuple[dict[int, int], int]]:
        """(combo, scale) of each pivot row, by pivot column."""
        return [(combo, row[p]) for p, (row, combo)
                in sorted(self._pivots.items())]

    @property
    def rank(self) -> int:
        return len(self._pivots)


def _combine(a: int, x: dict[int, int], b: int, y: dict[int, int]
             ) -> dict[int, int]:
    """a * x + b * y for row combinations, without zero coefficients."""
    out = {i: a * c for i, c in x.items()}
    for i, c in y.items():
        out[i] = out.get(i, 0) + b * c
    return {i: c for i, c in out.items() if c}


def _primitive(p: int, row: list[int], combo: dict[int, int]
               ) -> tuple[list[int], dict[int, int]]:
    """A pivot row and its combination divided by the gcd of the
    coefficients, signed so that the entry at pivot p is positive."""
    g = math.gcd(*combo.values())
    if row[p] < 0:
        g = -g
    return [a // g for a in row], {i: c // g for i, c in combo.items()}


def _constraints(ev: AffineMap, cell) -> tuple[list, list]:
    eqs, opens = [], []
    for r, coord_cell in enumerate(cell):
        row, off = ev.rows[r], ev.offsets[r]
        kind = coord_cell[0]
        if kind == "pt":
            eqs.append((row, coord_cell[1] - off))
        elif kind == "arc":
            opens.append((row, off, coord_cell[1], coord_cell[2]))
        else:
            raise UnsupportedModel("unknown cell kind %r" % (kind,))
    return eqs, opens


@dataclass(frozen=True)
class IntersectionDescription:
    dim: int
    points: tuple[tuple[Frac, ...], ...] = ()
    empty: bool = False

    @property
    def count_mod2(self) -> int:
        return len(self.points) % 2 if self.dim == 0 else 0


def intersect_cell_groups(m: int, groups: list[tuple[list, list]]
                          ) -> IntersectionDescription:
    """Exact description of the mutual intersection of pulled-back open
    cells on (R/Z)^m, one (equations, open conditions) pair per cell.
    An equation (row, rhs) asks row.w = rhs mod 1; an open condition
    (row, off, start, length) asks row.w + off - start mod 1 to lie
    strictly between 0 and length.  Rows are integer vectors, the other
    entries ints or Fractions.

    The arithmetic is in integers.  L, the lcm of the denominators of
    every right-hand side, offset, start and length, scales them all to
    ints.  One IntegerReducer pass over the rows finds the r independent
    rows A, each dependent row's combination e.row = sum c_i A_i of
    them and, per pivot column p, a combination sum c_i A_i that is s
    at p and 0 at the other pivots.  Writing the independent equations
    as A w = rhs + n with n in Z^r, the dependent equations and the
    solutions mod 1 depend on n only modulo D, the lcm of the pivot
    scales s: D Z^r lies in A Z^m.  So the search visits exactly the
    D^r translates n in [0, D)^r, and raises TooManyTranslates, naming
    D and r, if there are more than TRANSLATE_BOUND.  A dependent
    equation holds when sum c_i L(rhs_i + n_i) - e L rhs is 0 mod e L.
    A candidate point w is kept as the int tuple N w mod N, N = L D,
    and the open conditions are tested mod N; Fractions are built only
    for the returned points and for messages.

    The cells overlap rank-deficiently (the rank of all equations is
    below the sum of the cells' ranks) exactly when a dependent row's
    combination uses another cell's rows.  Such an overlap raises
    NonTransverse, naming the cell groups whose rows the dependencies
    combine, if some translate satisfies every equation, and is empty
    otherwise.  Dependent rows within single cells are checked the
    same way at every rank: below rank m the intersection has dimension
    m - r when some translate satisfies them and is empty otherwise.  A
    finite candidate set also raises NonTransverse, naming the point and
    the open condition, when a candidate point meets a cell boundary."""
    eqs = [(g, row, b) for g, (group_eqs, _) in enumerate(groups)
           for row, b in group_eqs]
    opens = [(g, op) for g, (_, group_opens) in enumerate(groups)
             for op in group_opens]
    lcd = math.lcm(*(b.denominator for _, _, b in eqs),
                   *(x.denominator for _, op in opens for x in op[1:]))

    def scaled(x) -> int:
        return x.numerator * (lcd // x.denominator)

    red = IntegerReducer()
    rhs, owner, independent, dependent = [], [], [], []
    overlap: set[int] = set()  # the cell groups of cross-cell dependencies
    for g, row, b in eqs:
        residual, combo, e = red.add(row)
        if any(residual):
            independent.append(len(rhs))
        else:
            dependent.append((combo, e, scaled(b)))
            used = {owner[i] for i in combo} | {g}
            if len(used) > 1:
                overlap |= used
        rhs.append(scaled(b))
        owner.append(g)
    r = red.rank
    if r < m and not dependent:
        return IntersectionDescription(dim=m - r)

    pivots = red.pivots()
    d = math.lcm(*(s for _, s in pivots))
    if d ** r > TRANSLATE_BOUND:
        raise TooManyTranslates(
            "the equations need D^r = %d^%d lattice translates, more than "
            "TRANSLATE_BOUND = %d" % (d, r, TRANSLATE_BOUND))
    modulus = lcd * d
    candidates: set[tuple[int, ...]] = set()
    for n in itertools.product(range(d), repeat=r):
        target = {i: rhs[i] + lcd * k for i, k in zip(independent, n)}
        if all((_at(combo, target) - e * b) % (e * lcd) == 0
               for combo, e, b in dependent):
            if overlap:
                raise NonTransverse(
                    "rank-deficient overlap of cell groups %s; perturb "
                    "marked points" % ", ".join(map(str, sorted(overlap))))
            if r < m:
                return IntersectionDescription(dim=m - r)
            candidates.add(tuple(d // s * _at(combo, target) % modulus
                                 for combo, s in pivots))
    if overlap or r < m:
        return IntersectionDescription(dim=m - r, empty=True)

    # (cell group, condition, N (off - start), N length)
    conditions = [(g, op, d * (scaled(op[1]) - scaled(op[2])),
                   d * scaled(op[3])) for g, op in opens]
    survivors = []
    for w in sorted(candidates):
        for g, (row, off, start, length), shift, top in conditions:
            t = (sum(a * x for a, x in zip(row, w)) + shift) % modulus
            if t == 0 or t == top:
                raise NonTransverse(
                    "intersection point %s lies on the boundary of cell "
                    "group %d's open condition 0 < %s.w + %s - %s < %s "
                    "mod 1; perturb marked points"
                    % (_show(Frac(x, modulus) for x in w), g, _show(row),
                       off, start, length))
            if not 0 < t < top:
                break
        else:
            survivors.append(tuple(Frac(x, modulus) for x in w))
    return IntersectionDescription(dim=0, points=tuple(survivors),
                                   empty=not survivors)


def _show(v) -> str:
    """A vector of exact numbers as (1/2, 0, ...)."""
    return "(%s)" % ", ".join(map(str, v))


def _at(combo: dict[int, int], target: dict[int, int]) -> int:
    """A combination of equations evaluated at right-hand sides."""
    return sum(c * target[i] for i, c in combo.items())


def _pull_back(m: int, *pulled: tuple[AffineMap, tuple]
               ) -> IntersectionDescription:
    """Intersection on (R/Z)^m of cells pulled back along evaluation
    maps, one (ev, cells) pair per cell."""
    return intersect_cell_groups(m, [_constraints(ev, cells)
                                     for ev, cells in pulled])


# --------------------------------------------------------------------------
# cascade complexes
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CascadeComplex:
    """Finite Z/2 chain complex stored as its columns, columns[i] = d
    generators[i] as a bitmask over generator indices, with generators
    tagged by degree and component.  The constructor is the one check.
    One elimination, run once, answers both homology calls."""

    generators: tuple[str, ...]
    columns: tuple[int, ...]
    degrees: Mapping[str, int] = field(default_factory=dict)
    components: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        gens, cols, n = self.generators, self.columns, len(self.generators)
        index = {g: i for i, g in enumerate(gens)}
        if len(index) != n:
            repeated = next(g for g in gens if gens.count(g) > 1)
            raise DuplicateGeneratorName(
                "generator %s occurs more than once" % repeated)
        for what, given in (("degree", self.degrees),
                            ("component", self.components)):
            unknown = sorted(given.keys() - index.keys())
            if unknown:
                raise UnknownGenerator(
                    "%s given on %s, not a generator" % (what, unknown[0]))
        if len(cols) != n:
            raise MalformedComplex("%d columns for %d generators"
                                   % (len(cols), n))
        for g, col in zip(gens, cols):
            if not isinstance(col, int) or col < 0 or col >> n:
                raise MalformedComplex("column of %s is %r, not a bitmask "
                                       "over %d generators" % (g, col, n))
        for g, col in zip(gens, cols):
            acc = 0
            while col:
                top = col.bit_length() - 1
                acc ^= cols[top]
                col ^= 1 << top
            if acc:
                raise DifferentialNotSquareZero(
                    "d(d %s) = %r" % (g, [gens[i] for i in f2.bits(acc)]))
        object.__setattr__(self, "_index", index)

    def boundary(self, name: str) -> tuple[str, ...]:
        """d name, its generators sorted by name."""
        if name not in self._index:
            raise UnknownGenerator("%s is not a generator" % name)
        return tuple(sorted(self.generators[i] for i
                            in f2.bits(self.columns[self._index[name]])))

    @cached_property
    def _homology(self) -> tuple[int, ...]:
        """Generator masks of the homology representatives.  Eliminating
        the columns spans the image B and gives a basis of the cycles Z;
        the single-generator cycles, then that basis, are kept when new
        modulo the span.  After dim Z - dim B of them the span is Z, so
        stopping there keeps the basis a full pass would give."""
        cols = self.columns
        classes = f2.Reducer()
        kernel = [combo for residual, combo in map(classes.add, cols)
                  if not residual]
        reps: list[int] = []
        dim = len(kernel) - classes.rank
        for cycle in itertools.chain(
                (1 << i for i, c in enumerate(cols) if c == 0), kernel):
            if len(reps) == dim:
                break
            if classes.add(cycle)[0]:
                reps.append(cycle)
        return tuple(reps)

    def homology_basis(self) -> tuple[str, ...]:
        """Representatives of a homology basis, chosen among single
        generators whenever possible; a sum is named as g+h+..."""
        return tuple("+".join(self.generators[i] for i in f2.bits(rep))
                     for rep in self._homology)

    def betti_by_degree(self) -> tuple[int, ...]:
        """Betti numbers b_0 .. b_top, the homology basis counted by
        degree.  Every generator needs an int degree of at least 0, and
        d must drop it by one; then each kernel combination is
        homogeneous and the representatives of degree d are a basis of
        H_d."""
        if not self.degrees:
            raise MalformedComplex("complex carries no degrees")
        missing = [g for g in self.generators if g not in self.degrees]
        if missing:
            raise UnknownGenerator("generator %s has no degree" % missing[0])
        degree = [self.degrees[g] for g in self.generators]
        bad = [(g, d) for g, d in zip(self.generators, degree)
               if not isinstance(d, int) or d < 0]
        if bad:
            raise MalformedComplex("generator %s has degree %r, not an int "
                                   ">= 0" % bad[0])
        below = [0] * (max(degree) + 2)  # below[d]: generators of degree d-1
        for i, d in enumerate(degree):
            below[d + 1] |= 1 << i
        if any(col & ~below[d] for col, d in zip(self.columns, degree)):
            raise MalformedComplex("differential does not drop degree by one")
        betti = [0] * (max(degree) + 1)
        for rep in self._homology:
            betti[degree[rep.bit_length() - 1]] += 1
        return tuple(betti)

    def to_json(self) -> dict:
        return {
            "generators": [
                {"name": g, "degree": self.degrees.get(g),
                 "component": self.components.get(g)}
                for g in self.generators],
            "differential": [[g, list(self.boundary(g))] for g, col
                             in zip(self.generators, self.columns) if col],
        }


def differential_case_I(source: CriticalComponent,
                        target: CriticalComponent,
                        corr: Optional[Correspondence]) -> CascadeComplex:
    """Cascade differential for two components joined by one
    correspondence (or none, leaving the block Morse differential)."""
    gens = source.generator_names() + target.generator_names()
    index = {g: i for i, g in enumerate(gens)}
    cols = [sum(1 << index[h] for h in c.model.boundary(g))
            for c in (source, target) for g in c.generator_names()]
    if corr is not None:
        if (corr.source, corr.target) != (source.name, target.name):
            raise UnknownComponent(
                "correspondence %s -> %s does not join %s -> %s"
                % (corr.source, corr.target, source.name, target.name))
        _check_correspondence(corr, {source.name: source,
                                     target.name: target})
        stable = {index[y]: _constraints(corr.ev_plus,
                                         target.model.cells(y, True))
                  for y in target.model.generator_names()}
        for x in source.model.generator_names():
            unstable = _constraints(corr.ev_minus,
                                    source.model.cells(x, False))
            for i, group in stable.items():
                if intersect_cell_groups(corr.dim,
                                         [unstable, group]).count_mod2:
                    cols[index[x]] ^= 1 << i

    return CascadeComplex(
        gens, tuple(cols),
        dict(zip(gens, source.model.degrees() + target.model.degrees())),
        {g: c.name for c in (source, target) for g in c.generator_names()})


# --------------------------------------------------------------------------
# standard torus/circle data
# --------------------------------------------------------------------------

def square_torus(prefix: str, offset: Frac) -> FlatModel:
    """Product torus with minima at offset and maxima at offset + 1/2 in
    each factor; critical points are named <prefix>2, <prefix>1 (minimum
    in the first factor), <prefix>1' (minimum in the second factor), and
    <prefix>0."""
    prof = two_point_profile(offset, Frac(1, 2) + offset)
    return _by_indices((prof, prof), {
        (0, 0): prefix + "0", (0, 1): prefix + "1",
        (1, 0): prefix + "1'", (1, 1): prefix + "2"})


def standard_upper_pair(shift: Frac = Frac(0)):
    """Torus above a circle with the product Morse data whose cascade
    differential is d x1' = a1, d x0 = a0 (and zero otherwise); the
    homology is freely spanned by x2, x1.

    The circle's marked points may be shifted; the differential matrix
    is invariant under a common shift.
    """
    torus = square_torus("x", Frac(0))
    circle = _by_indices(
        (two_point_profile(Frac(1, 4) + shift, Frac(3, 4) + shift),),
        {(0,): "a0", (1,): "a1"})
    upper = CriticalComponent("Sigma42", torus, Frac(1))
    lower = CriticalComponent("K+", circle, Frac(0))
    corr = Correspondence("Sigma42", "K+", 2, identity_map(2),
                          projection_map(2, 0))
    return upper, lower, corr


def standard_lower_pair(shift: Frac = Frac(0)):
    """Companion data for the pair below the middle level: torus marked
    points offset by (1/8, 1/8), evaluation onto the second circle
    factor; the differential is d y1 = b1, d y0 = b0 and the homology is
    freely spanned by y2, y1'."""
    torus = square_torus("y", Frac(1, 8))
    circle = _by_indices(
        (two_point_profile(Frac(1, 4) + shift, Frac(3, 4) + shift),),
        {(0,): "b0", (1,): "b1"})
    upper = CriticalComponent("Sigma20", torus, Frac(1))
    lower = CriticalComponent("K-", circle, Frac(0))
    corr = Correspondence("Sigma20", "K-", 2, identity_map(2),
                          projection_map(2, 1))
    return upper, lower, corr


def triangle_product_table() -> dict[tuple[str, str], tuple[str, ...]]:
    """Local triangle products computed in the flat model.

    The three tori are identified with one (R/Z)^2 carrying the x data,
    the y data offset by (1/8, 1/8), and the z data offset by
    (-1/8, -1/8); the product of x and y is the mod-2 count of
    zero-dimensional components of U(x) meeting U(y) meeting S(z):

        x2 y2 = z2,  x1 y2 = z1,  x2 y1' = z1',  x1 y1' = z0.

    This is the independent oracle for the local (unframed) part of the
    category composition tables.
    """
    ident = identity_map(2)

    def groups(model: FlatModel, stable: bool) -> dict[str, tuple]:
        return {g: _constraints(ident, model.cells(g, stable))
                for g in model.generator_names()}

    xs = groups(square_torus("x", Frac(0)), False)
    ys = groups(square_torus("y", Frac(1, 8)), False)
    zs = groups(square_torus("z", Frac(-1, 8) + 1), True)
    table: dict[tuple[str, str], tuple[str, ...]] = {}
    for x, gx in xs.items():
        for y, gy in ys.items():
            out = [z for z, gz in zs.items()
                   if intersect_cell_groups(2, [gx, gy, gz]).count_mod2]
            table[(x, y)] = tuple(sorted(out))
    return table


# --------------------------------------------------------------------------
# cascade enumeration (diagnostics)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CascadeData:
    components: tuple[CriticalComponent, ...]
    correspondences: tuple[Correspondence, ...]

    def __post_init__(self):
        by_name = {c.name: c for c in self.components}
        for corr in self.correspondences:
            _check_correspondence(corr, by_name)


def cascade_moduli(data: CascadeData, x: str, y: str, k: int) -> list[dict]:
    """Enumerate cascade configurations from x to y with k strips.

    k = 0 describes U(x) and S(y) intersections inside one component;
    k = 1 runs through a single correspondence.  For k >= 2 the chains
    of correspondences are walked: the components where chains of k - 1
    of them from x's component end, then the correspondences from there
    into y's.  Every correspondence strictly decreases the action, so
    the walk runs dry within one step per action level; a chain of two
    or more raises UnsupportedModel, and the fixtures here, with two
    levels, have none.
    """
    if k < 0:
        raise NegativeCascadeCount("cascade count must be at least 0, "
                                   "got %d" % k)
    comp_of = {g: c for c in data.components for g in c.generator_names()}
    unknown = [name for name in dict.fromkeys((x, y)) if name not in comp_of]
    if unknown:
        raise UnknownGenerator(
            "unknown generator %s" % ", ".join(map(repr, unknown)))
    comp_x, comp_y = comp_of[x], comp_of[y]

    if k == 0:
        if comp_x.name != comp_y.name:
            return []
        ident = identity_map(comp_x.model.dim)
        desc = _pull_back(comp_x.model.dim,
                          (ident, comp_x.model.cells(x, False)),
                          (ident, comp_x.model.cells(y, True)))
        if desc.empty:
            return []
        return [{"cascades": 0, "component": comp_x.name,
                 "dim": desc.dim,
                 "points": [[str(v) for v in p] for p in desc.points]}]

    ends = {comp_x.name}
    for _ in range(k - 1):
        ends = {c.target for c in data.correspondences if c.source in ends}
        if not ends:
            break
    last = [c for c in data.correspondences
            if c.source in ends and c.target == comp_y.name]
    if k >= 2 and last:
        raise UnsupportedModel(
            "gradient-segment matching for chains of %d cascades is not "
            "modeled; only single-correspondence data is supported" % k)
    out = []
    for corr in last:
        desc = _pull_back(corr.dim,
                          (corr.ev_minus, comp_x.model.cells(x, False)),
                          (corr.ev_plus, comp_y.model.cells(y, True)))
        if desc.empty:
            continue
        out.append({"cascades": 1,
                    "through": [corr.source, corr.target],
                    "dim": desc.dim,
                    "points": [[str(v) for v in p] for p in desc.points]})
    return out


# --------------------------------------------------------------------------
# handle decomposition of a link complement
# --------------------------------------------------------------------------

def handle_complex_from_link(fl: FramedLink) -> CascadeComplex:
    """Z/2 cellular chain complex of the complement of a framed link,
    read off the abelianised Wirtinger presentation of its diagram.

    Cells, per component j: the boundary torus z0^j, z1^j (the framed
    longitude), z1'^j (the meridian), z2^j; the meridian cell M^j with
    d = z1'^j + (the first over-arc of j); the longitude cell L^j with
    d = z1^j + (the over-arcs that j passes under) + (f_j + w_j) z1'^j,
    turning the blackboard longitude into the f_j-framed one; and D^j
    with d = z2^j + (the junction cells of j).  An over-arc A^n is a
    maximal run of arcs of one component between under-passages (d = 0);
    its junction cell J^n, where the run ends, has d = A^n + (the next
    over-arc of the component).  Q^j joins z0^j to z0^(j+1), and p''
    has d = sum of the z2^j.

    The homology is right at class level, over every diagram: H0 = Z/2;
    H1 has basis z1'^1..z1'^k with z1^j = f_j z1'^j + sum over i != j
    of lk_ij z1'^i; H2 is spanned by the z2^j with the one relation
    sum z2^j = 0; H3 = 0.  tests/test_morse.py checks these classes on
    the framed catalog and on generated braid closures.  The diagram
    must be planar, as every diagram links.parse_pd returns is: a
    non-planar PD code describes no link.
    """
    diagram = fl.diagram
    k = diagram.component_count
    # the arc in position 0 of a crossing ends an under-passage, so the
    # next arc of its component starts a new over-arc; the over-arcs
    # are numbered 1, 2, ... in circuit order, component by component,
    # and component j's are firsts[j] .. firsts[j + 1] - 1
    under_ends = {quad[0] for quad in diagram.crossings}
    over_arc: dict[int, int] = {}
    firsts = [1]
    for comp in diagram.components:
        cut = next((i for i, a in enumerate(comp) if a in under_ends), -1)
        n = firsts[-1]
        for a in comp[cut + 1:] + comp[:cut + 1]:
            over_arc[a] = n
            n += a in under_ends
        # a component that never passes under is one over-arc
        firsts.append(max(n, firsts[-1] + 1))
    runs = [range(f, e) for f, e in zip(firsts, firsts[1:])]
    arcs = firsts[-1] - 1
    # the generator layout: z0^j, z1^j, z1'^j, z2^j at 4j-4 .. 4j-1, then
    # Q^1 .. Q^(k-1), A^n at a + n, J^n at a + arcs + n, the pairs
    # (M^j, L^j), D^1 .. D^k and p''
    a = 5 * k - 2
    # L^j: z1^j, the over-arcs that j passes under and (f_j + w_j) z1'^j;
    # each sign is +-1, so w_j = (self-crossings of j) mod 2
    lon = [1 << 4 * j + 1 | f % 2 << 4 * j + 2
           for j, f in enumerate(fl.framings)]
    for (cu, co), (_, b, _, _) in zip(diagram._crossing_table,
                                      diagram.crossings):
        lon[cu] ^= 1 << a + over_arc[b] | (cu == co) << 4 * cu + 2
    cols = [0] * (4 * k) + [1 << 4 * j | 1 << 4 * j + 4 for j in range(k - 1)]
    cols += [0] * arcs + [1 << a + n ^ 1 << a + nxt for run in runs
                          for n, nxt in zip(run, [*run[1:], run[0]])]
    cols += [c for j, run in enumerate(runs)
             for c in (1 << a + run[0] | 1 << 4 * j + 2, lon[j])]
    cols += [1 << 4 * j + 3 | (1 << len(run)) - 1 << a + arcs + run[0]
             for j, run in enumerate(runs)]
    cols.append(sum(1 << 4 * j + 3 for j in range(k)))
    names = ["%s^%d" % (z, j) for j in range(1, k + 1)
             for z in ("z0", "z1", "z1'", "z2")]
    names += ["Q^%d" % j for j in range(1, k)]
    names += ["%s^%d" % (c, n) for c in "AJ" for n in range(1, arcs + 1)]
    names += ["%s^%d" % (c, j) for j in range(1, k + 1) for c in "ML"]
    names += ["D^%d" % j for j in range(1, k + 1)] + ["p''"]
    degrees = [0, 1, 1, 2] * k + [1] * (k - 1 + arcs) + [2] * (arcs + 2 * k)
    components = ["torus_%d" % j for j in range(1, k + 1) for _ in range(4)]
    return CascadeComplex(
        tuple(names), tuple(cols), dict(zip(names, degrees + [3] * (k + 1))),
        dict(zip(names, components + ["handle"] * (len(names) - 4 * k))))
