"""Quivers with relations and their representations over the two-element
field.

A relation is a mod-2 sum of paths with common endpoints that must
evaluate to zero in any representation.  Paths are tuples of arrow
names in diagrammatic order (first arrow applied first), so a path
(a, b) evaluates to matrix(b) @ matrix(a).  A presentation indexes its
arrows by name once; a repeated name, an arrow to a non-vertex, or an
empty, unknown or non-composable path raises MalformedQuiver.

A representation stores each arrow as nested rows, the form that
regular_representation builds from a category's product bitmasks.
Inside this module a matrix is a list of column bitmasks, bit i of
column j its entry (i, j) mod 2; one pass, _columns, checks every shape
against the quiver and packs every column with one bytes translate.
check_relations evaluates a relation on the d_s unit vectors of its
source s: one path step sums the columns of the arrow that the current
vector selects.  After the packing pass, a relation costs d_s times its
total path length in column sums, whatever the target dimension; on a
link category every relation starts at the top vertex, where d_s = 1.

Isomorphism is decided through the Hom space, after Brooksbank-Luks,
"Testing isomorphism of modules", J. Algebra 320 (2008): the vertex
maps with g_t A1 = A2 g_s for every arrow form Hom(rep1, rep2), one F2
kernel over the sum of d_v^2 matrix entries.  Unequal dimension
vectors, or dim Hom(rep1, rep2) unequal to dim End(rep1), reject at
once; otherwise a Gray-code walk over Hom looks for an element
invertible at every vertex.  The walk is bounded by HOM_DIM_BOUND on
dim Hom, not by the vertex dimensions, and a larger Hom raises
DimensionTooLarge rather than fall back to an unsound heuristic.  The
independent oracles, the GL(d_v, F2) orbit enumeration and the dense
row-product relation evaluator, live with the tests, together with their
own row arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from . import f2
from .errors import DimensionTooLarge, MalformedQuiver, ShapeMismatch
from .flow import DirectedCategoryPresentation

Path = tuple[str, ...]
Matrix = list[int]  # column bitmasks

# isomorphic walks up to 2^HOM_DIM_BOUND elements of Hom(rep1, rep2); a
# full walk at the bound costs 65536 rank tests, a fraction of a second
HOM_DIM_BOUND = 16


@dataclass(frozen=True)
class QuiverPresentation:
    vertices: tuple[str, ...]
    arrows: tuple[tuple[str, str, str], ...]  # (name, source, target)
    relations: tuple[tuple[Path, ...], ...]
    # arrow name -> (source, target), built once by the constructor
    _ends: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        verts, ends = set(self.vertices), {}
        for name, s, t in self.arrows:
            if name in ends:
                raise MalformedQuiver("arrow %r is named twice" % name)
            for v in (s, t):
                if v not in verts:
                    raise MalformedQuiver(
                        "arrow %r: %r is not a vertex" % (name, v))
            ends[name] = (s, t)
        object.__setattr__(self, "_ends", ends)
        for rel in self.relations:
            if len({self.path_endpoints(p) for p in rel}) != 1:
                raise MalformedQuiver(
                    "paths of one relation must share endpoints: %r" % (rel,))

    def path_endpoints(self, path: Path) -> tuple[str, str]:
        if not path:
            raise MalformedQuiver("empty path")
        try:
            src, at = self._ends[path[0]]
            for name in path[1:]:
                s, t = self._ends[name]
                if s != at:
                    raise MalformedQuiver(
                        "path %r is not composable at arrow %r" % (path, name))
                at = t
        except KeyError as exc:
            raise MalformedQuiver("no arrow named %r" % exc.args[0]) from None
        return src, at


@dataclass(frozen=True)
class QuiverRepresentation:
    dims: Mapping[str, int]
    matrices: Mapping[str, tuple[tuple[int, ...], ...]]  # arrow -> rows


_PARITY = bytes.maketrans(bytes(range(256)), b"01" * 128)  # byte -> digit


def _pack(column) -> int:
    """A column's entries mod 2 as a bitmask, entry i at bit i."""
    try:
        entries = bytes(column)
    except ValueError:  # an entry outside 0..255
        entries = bytes(x % 2 for x in column)
    return int(entries.translate(_PARITY)[::-1] or b"0", 2)


def _select(vectors, mask: int) -> int:
    """The sum of the vectors that the bits of mask select."""
    acc = 0
    for j in f2.bits(mask):
        acc ^= vectors[j]
    return acc


def _columns(q: QuiverPresentation, rep: QuiverRepresentation
             ) -> dict[str, Matrix]:
    """Every arrow's matrix as column bitmasks, entries mod 2, after
    checking each shape against the quiver."""
    for v in q.vertices:
        if v not in rep.dims:
            raise ShapeMismatch("no dimension for vertex %r" % v)
    cols = {}
    for name, s, t in q.arrows:
        if name not in rep.matrices:
            raise ShapeMismatch("no matrix for arrow %r" % name)
        rows = rep.matrices[name]
        want = (rep.dims[t], rep.dims[s])
        if len(rows) != want[0] or {*map(len, rows)} - {want[1]}:
            raise ShapeMismatch(
                "arrow %r needs shape %r, got rows of lengths %r"
                % (name, want, [len(row) for row in rows]))
        cols[name] = (list(map(_pack, zip(*rows))) if rows
                      else [0] * want[1])
    return cols


def check_relations(q: QuiverPresentation, rep: QuiverRepresentation
                    ) -> tuple[bool, list[str]]:
    """True iff every relation evaluates to the zero matrix; violations
    name the failing relations in order.  Relations are evaluated on
    column bitmasks, unit vector by unit vector of their source."""
    cols = _columns(q, rep)
    violations = []
    for rel in q.relations:
        for unit in range(rep.dims[q._ends[rel[0][0]][0]]):
            total = 0
            for path in rel:
                v = 1 << unit
                for name in path:
                    v = _select(cols[name], v)
                total ^= v
            if total:
                violations.append(" + ".join(".".join(p) for p in rel))
                break
    return not violations, violations


def _offsets(q: QuiverPresentation, dims: Mapping[str, int]
            ) -> dict[str, int]:
    """The offset of each vertex map's entries among all of them: entry
    (i, j) of g_v is unknown offset[v] + i d_v + j, so a mask over the
    unknowns holds g_v's rows as consecutive d_v-bit fields."""
    offset, at = {}, 0
    for v in q.vertices:
        offset[v] = at
        at += dims[v] ** 2
    return offset


def _hom_basis(q: QuiverPresentation, dims: Mapping[str, int],
               cols1: Mapping[str, Matrix], cols2: Mapping[str, Matrix]
               ) -> list[int]:
    """A basis of Hom(rep1, rep2), given both representations' columns
    over the dimensions dims, as masks over the vertex-map entries: the
    kernel of the map sending them to the arrow entries of
    g_t A1 + A2 g_s."""
    offset = _offsets(q, dims)
    columns = [0] * sum(dims[v] ** 2 for v in q.vertices)
    base = 0  # entry (i, j) of an arrow's equations is bit base + j d_t + i
    for name, s, t in q.arrows:
        ds, dt = dims[s], dims[t]
        a1, a2 = cols1[name], cols2[name]
        # (g_t A1)_ij = sum_k (g_t)_ik (A1)_kj
        for k in range(dt):
            hits = sum(1 << (j * dt) for j in range(ds) if a1[j] >> k & 1)
            for i in range(dt):
                columns[offset[t] + i * dt + k] ^= hits << (base + i)
        # (A2 g_s)_ij = sum_k (A2)_ik (g_s)_kj
        for k in range(ds):
            for j in range(ds):
                columns[offset[s] + k * ds + j] ^= a2[k] << (base + j * dt)
        base += dt * ds
    return f2.kernel_basis(columns)


def isomorphic(q: QuiverPresentation, rep1: QuiverRepresentation,
               rep2: QuiverRepresentation) -> bool:
    """Decide exactly whether invertible vertex maps g_v intertwine all
    arrows, g_t A1 = A2 g_s, by searching the Hom space only.

    Hom(rep1, rep2) is one F2 kernel over the sum of d_v^2 entries.  An
    isomorphism makes Hom(rep1, rep2) isomorphic to End(rep1), so
    unequal dimension vectors or dim Hom != dim End reject at once.
    Otherwise Hom is walked in Gray-code order from the zero element
    (the isomorphism when every d_v is 0) until an element has every
    vertex block invertible.  The walk visits at most 2^dim Hom
    elements; dim Hom above HOM_DIM_BOUND raises DimensionTooLarge."""
    cols1, cols2 = _columns(q, rep1), _columns(q, rep2)
    if any(rep1.dims[v] != rep2.dims[v] for v in q.vertices):
        return False
    hom = _hom_basis(q, rep1.dims, cols1, cols2)
    if len(hom) != len(_hom_basis(q, rep1.dims, cols1, cols1)):
        return False
    if len(hom) > HOM_DIM_BOUND:
        raise DimensionTooLarge(
            "dim Hom is %d, above the search bound HOM_DIM_BOUND = %d"
            % (len(hom), HOM_DIM_BOUND))
    blocks = [(off, rep1.dims[v])
              for v, off in _offsets(q, rep1.dims).items()]
    g = 0
    for step in range(1 << len(hom)):
        if step:
            # Gray code: flip the basis element at the lowest set bit
            g ^= hom[(step & -step).bit_length() - 1]
        if all(f2.rank((g >> (off + i * d)) & ((1 << d) - 1)
                       for i in range(d)) == d
               for off, d in blocks):
            return True
    return False


# --------------------------------------------------------------------------
# category -> quiver
# --------------------------------------------------------------------------

def from_category(cat: DirectedCategoryPresentation) -> QuiverPresentation:
    """One vertex per object, one arrow per hom-space basis element
    (each generator name of a free middle hom space, each canonical
    basis element of hom(top, bottom)), and one relation per
    composition-table pair: the composite path equals its expansion in
    the top-to-bottom basis arrows."""
    vertices = cat.objects
    arrows: list[tuple[str, str, str]] = []
    for j, mid in enumerate(cat.middles):
        for g in cat.hom_top_mid[j]:
            arrows.append((g, cat.top, mid))
        for g in cat.hom_mid_bottom[j]:
            arrows.append((g, mid, cat.bottom))
    for g in cat.hom_top_bottom.basis:
        arrows.append((g, cat.top, cat.bottom))
    relations: list[tuple[Path, ...]] = []
    for j, mid in enumerate(cat.middles):
        for u in cat.hom_top_mid[j]:
            for v in cat.hom_mid_bottom[j]:
                expansion = cat.compose(j, u, v)
                rel: list[Path] = [(u, v)]
                rel.extend((w,) for w in expansion)
                relations.append(tuple(rel))
    return QuiverPresentation(tuple(vertices), tuple(arrows),
                              tuple(relations))


def regular_representation(cat: DirectedCategoryPresentation
                           ) -> QuiverRepresentation:
    """The representation assembled from the category's own composition
    table: the top vertex carries the span of the identity, each middle
    vertex the free hom(top, mid) on its names, the bottom vertex
    hom(top, bottom) in its canonical basis; arrows act by right
    composition, read from the product bitmasks into rows that share
    one zero row until set."""
    bottom_basis = cat.hom_top_bottom.basis
    row_of = {cat.hom_top_bottom.vector((w,)).bit_length() - 1: i
              for i, w in enumerate(bottom_basis)}  # bit -> row
    dims: dict[str, int] = {cat.top: 1, cat.bottom: len(bottom_basis)}
    mats: dict[str, tuple] = {}

    def units(basis):  # the inclusion of each basis element of a span
        zeros = ((0,),) * len(basis)
        return {g: zeros[:i] + ((1,),) + zeros[i + 1:]
                for i, g in enumerate(basis)}

    for j, mid in enumerate(cat.middles):
        basis = cat.hom_top_mid[j]
        dims[mid] = len(basis)
        mats.update(units(basis))
        zero = (0,) * len(basis)
        for v in cat.hom_mid_bottom[j]:
            rows = [zero] * len(bottom_basis)
            for col, u in enumerate(basis):
                for i in f2.bits(cat.table.get((j, u, v), 0)):
                    r = row_of[i]
                    rows[r] = rows[r][:col] + (1,) + rows[r][col + 1:]
            mats[v] = tuple(rows)
    mats.update(units(bottom_basis))
    return QuiverRepresentation(dims, mats)


def cp2_quiver() -> QuiverPresentation:
    """A fixed test quiver: three vertices, two arrows at each level and
    relations

        b1 a1 = 0,   b0 a0 = c0,   b0 a1 + b1 a0 = c1

    (the middle relation's sign collapses mod 2).  Its path algebra has
    a 3-dimensional hom(x_4, x_0): four two-step paths and two long
    arrows less three independent relations.  The pipeline's category
    of the unknot at framing +1 has a 2-dimensional hom(top, bottom),
    H*(S^3 - unknot; F2), so this quiver does not present that
    category; from_category(build_flow_category(fixture("unknot", (1,))))
    does.  It serves as an input for the relation and isomorphism
    checks only.
    """
    vertices = ("x_4", "x_2", "x_0")
    arrows = (
        ("a_0", "x_4", "x_2"), ("a_1", "x_4", "x_2"),
        ("b_0", "x_2", "x_0"), ("b_1", "x_2", "x_0"),
        ("c_0", "x_4", "x_0"), ("c_1", "x_4", "x_0"),
    )
    relations = (
        (("a_1", "b_1"),),
        (("a_0", "b_0"), ("c_0",)),
        (("a_1", "b_0"), ("a_0", "b_1"), ("c_1",)),
    )
    return QuiverPresentation(vertices, arrows, relations)
