"""Test-side helpers that the package itself never calls: reversing one
component of a diagram, a presentation's reduced form, a
representation's JSON form, the relation families among the composite
classes of a link-built flow category, the name-based references for
the categories' bitmask tables (composition, regular representation
and the Theorem-B comparison, read from generator names), a cascade
complex built from a differential written in generator names, the
name-based handle complex the column builder is checked against, the
homology-basis reference without its stop at dim H, the Betti-number
reference with one rank per degree, and the
independent quiver oracles (the GL(d_v, F2) orbit enumeration and the
dense row-product relation evaluator) with their own row arithmetic and
fixtures."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from fukaya_flow import f2
from fukaya_flow.errors import (DimensionTooLarge, MalformedComplex,
                                UnknownGenerator)
from fukaya_flow.flow import DirectedCategoryPresentation, \
    flow_generator_names
from fukaya_flow.homology import F2Presentation
from fukaya_flow.links import FramedLink, LinkDiagram, LinkingMatrix
from fukaya_flow.morse import CascadeComplex
from fukaya_flow.quiver import QuiverPresentation, QuiverRepresentation


def reverse_component(diagram: LinkDiagram, comp: int) -> LinkDiagram:
    """Diagram with the orientation of one component reversed."""
    arcs = set(diagram.components[comp])
    new_quads = []
    signs = []
    for quad, sign in zip(diagram.crossings, diagram.signs):
        a, b, c, d = quad
        if a in arcs:
            # reversed under-strand: rotate so the new incoming
            # under-arc (c) sits first, which swaps b and d
            quad = (c, d, a, b)
            sign = -sign
        if b in arcs:
            sign = -sign
        new_quads.append(quad)
        signs.append(sign)
    # the same arcs in the opposite circuit order, still from the smallest
    components = tuple(
        (c[0],) + c[:0:-1] if i == comp else c
        for i, c in enumerate(diagram.components))
    return LinkDiagram(tuple(new_quads), diagram.circles, components,
                       tuple(signs))


def reduced(p: F2Presentation) -> F2Presentation:
    """The presentation with its relations in reduced row-echelon form,
    from f2.rref.  Idempotent: reducing a reduced presentation returns
    an equal one."""
    return F2Presentation(p.generators, f2.rref(p.relations)[0])


def representation_json(rep: QuiverRepresentation) -> dict:
    """A representation's dimensions and nested-row matrices as JSON,
    keys sorted."""
    return {
        "dims": dict(sorted(rep.dims.items())),
        "matrices": {name: [list(row) for row in rows]
                     for name, rows in sorted(rep.matrices.items())},
    }


@dataclass(frozen=True)
class CompositeRelation:
    """A linear relation among composite products, with every pair
    (mid, u, v) standing for the product of u and v through mid."""

    name: str
    terms: tuple[tuple[int, str, str], ...]

    def holds(self, cat: DirectedCategoryPresentation) -> bool:
        acc = 0
        pres = cat.hom_top_bottom
        for mid, u, v in self.terms:
            acc ^= pres.vector(cat.compose(mid, u, v))
        return pres.canonicalize(acc) == 0


def relation_table(cat: DirectedCategoryPresentation, matrix: LinkingMatrix
                   ) -> list[CompositeRelation]:
    """The relation families among the composite classes of the flow
    category built from a framed link with linking matrix `matrix`,
    coefficients reduced mod 2:

    - the [K+^j][K-^j] products sum to zero;
    - all [p+^j][p-^j] products agree;
    - [p+^j][K-^j] equals m_j [K+^j][p-^j] plus the [K+^i][p-^i] of the
      components linking j oddly.
    """
    k = matrix.size
    names = flow_generator_names(k)
    if cat.hom_top_mid != tuple(names["top_mid"]):
        raise ValueError("relation_table needs the flow category of a "
                         "%d-component link" % k)
    rels = [CompositeRelation(
        "sum_KK",
        tuple((j, names["top_mid"][j][0], names["mid_bottom"][j][0])
              for j in range(k)))]
    for j in range(1, k):
        rels.append(CompositeRelation(
            "pp_%d_equals_pp_1" % (j + 1),
            ((0, names["top_mid"][0][1], names["mid_bottom"][0][1]),
             (j, names["top_mid"][j][1], names["mid_bottom"][j][1]))))
    for j in range(k):
        terms = [(j, names["top_mid"][j][1], names["mid_bottom"][j][0])]
        if matrix.framing(j) % 2:
            terms.append((j, names["top_mid"][j][0],
                          names["mid_bottom"][j][1]))
        for i in range(k):
            if i != j and matrix.entries[j][i] % 2:
                terms.append((i, names["top_mid"][i][0],
                              names["mid_bottom"][i][1]))
        rels.append(CompositeRelation("pK_%d" % (j + 1), tuple(terms)))
    return rels


# --------------------------------------------------------------------------
# name-based category references
# --------------------------------------------------------------------------

# A name table maps (middle index, u, v) to the product's support as raw
# generator names of hom(top, bottom), not rewritten in any basis.

def name_tables(matrix: LinkingMatrix) -> tuple[dict, dict]:
    """The flow and Fukaya name tables of a framed link with this
    linking matrix, from the product formulas of the flow and fukaya
    module docstrings."""
    flow, fukaya = {}, {}
    for j in range(matrix.size):
        n, m = j + 1, matrix.framing(j) % 2
        mu, z1p = ("mu^%d" % n,), ("z1'^%d" % n,)
        flow[(j, "K+^%d" % n, "p-^%d" % n)] = mu
        flow[(j, "p+^%d" % n, "K-^%d" % n)] = ("lambda^%d" % n,) + mu * m
        flow[(j, "K+^%d" % n, "K-^%d" % n)] = ("dU^%d" % n,)
        flow[(j, "p+^%d" % n, "p-^%d" % n)] = ("q^%d" % n,)
        fukaya[(j, "x2^%d" % n, "y2^%d" % n)] = ("z2^%d" % n,)
        fukaya[(j, "x1^%d" % n, "y1'^%d" % n)] = ("z0^%d" % n,)
        fukaya[(j, "x2^%d" % n, "y1'^%d" % n)] = z1p
        fukaya[(j, "x1^%d" % n, "y2^%d" % n)] = ("z1^%d" % n,) + z1p * m
    return flow, fukaya


def reference_compose(cat: DirectedCategoryPresentation, names: dict,
                      mid: int, us, vs) -> tuple[str, ...]:
    """The composition of the chains us and vs through mid, read from a
    name table: the named supports summed mod 2 and rewritten in the
    canonical basis of hom(top, bottom), as names."""
    return cat.hom_top_bottom.canonical_names(
        w for u in us for v in vs for w in names.get((mid, u, v), ()))


def reference_regular_representation(cat: DirectedCategoryPresentation,
                                     names: dict) -> QuiverRepresentation:
    """quiver.regular_representation from a name table: one fresh row
    list per bottom basis element, set by looking each product name up."""
    bottom_basis = cat.hom_top_bottom.basis
    row_of = {w: i for i, w in enumerate(bottom_basis)}
    dims = {cat.top: 1, cat.bottom: len(bottom_basis)}
    mats = {}

    def units(basis):
        return {g: tuple((int(h == g),) for h in basis) for g in basis}

    for j, mid in enumerate(cat.middles):
        basis = cat.hom_top_mid[j]
        dims[mid] = len(basis)
        mats.update(units(basis))
        for v in cat.hom_mid_bottom[j]:
            rows = [[0] * len(basis) for _ in bottom_basis]
            for col, u in enumerate(basis):
                for w in reference_compose(cat, names, j, (u,), (v,)):
                    rows[row_of[w]][col] = 1
            mats[v] = tuple(map(tuple, rows))
    mats.update(units(bottom_basis))
    return QuiverRepresentation(dims, mats)


def reference_compare(fukaya: DirectedCategoryPresentation,
                      flow: DirectedCategoryPresentation,
                      fukaya_names: dict, flow_names: dict,
                      mapping: dict) -> tuple[bool, tuple[str, ...]]:
    """fukaya.compare_categories by names, as (isomorphic, mismatches):
    every name goes through the dictionary (which must cover them all),
    the relations are compared as sets of reduced rows, and products
    are read from the name tables."""
    mismatches = []
    k = len(flow.middles)
    if len(fukaya.middles) != k:
        return False, ("middle object counts differ: %d vs %d"
                       % (len(fukaya.middles), k),)
    for j in range(k):
        for side, pf, pg in (("hom(top,mid)", fukaya.hom_top_mid[j],
                              flow.hom_top_mid[j]),
                             ("hom(mid,bottom)", fukaya.hom_mid_bottom[j],
                              flow.hom_mid_bottom[j])):
            mapped = tuple(mapping[n] for n in pf)
            if mapped != pg:
                mismatches.append("%s j=%d generators: %r -> %r != %r"
                                  % (side, j + 1, pf, mapped, pg))
    bf, bg = fukaya.hom_top_bottom, flow.hom_top_bottom
    if sorted(mapping[n] for n in bf.generators) != sorted(bg.generators):
        mismatches.append("hom(top,bottom) generator sets differ")
        return False, tuple(mismatches)
    translated = [bg.vector(mapping[n] for n in bf.names(r))
                  for r in bf.relations]
    if set(f2.rref(translated)[0]) != set(f2.rref(bg.relations)[0]):
        mismatches.append("hom(top,bottom) relations differ")
    for j in range(k):
        for u in fukaya.hom_top_mid[j]:
            for v in fukaya.hom_mid_bottom[j]:
                left = reference_compose(fukaya, fukaya_names, j, (u,), (v,))
                translated = bg.canonical_names(mapping[n] for n in left)
                right = reference_compose(flow, flow_names, j,
                                          (mapping[u],), (mapping[v],))
                if sorted(translated) != sorted(right):
                    mismatches.append("table entry (%s, %s): %r -> %r != %r"
                                      % (u, v, left, translated, right))
    return not mismatches, tuple(mismatches)


def complex_from_names(generators, differential, degrees=None,
                       components=None) -> CascadeComplex:
    """The CascadeComplex whose d is given as generator names,
    differential[g] the generators in d g (a name given twice cancels),
    packed here into the constructor's columns.  A name in d that is no
    generator raises KeyError."""
    index = {g: i for i, g in enumerate(generators)}
    columns = tuple(functools.reduce(lambda v, h: v ^ 1 << index[h],
                                     differential.get(g, ()), 0)
                    for g in generators)
    return CascadeComplex(tuple(generators), columns, degrees or {},
                          components or {})


def reference_handle_complex(fl: FramedLink) -> CascadeComplex:
    """The oracle for morse.handle_complex_from_link: the same cells,
    each boundary written as sorted generator names from name lists
    and sets, then packed by complex_from_names."""
    diagram = fl.diagram
    k = diagram.component_count
    # over-arcs numbered 1, 2, ... in circuit order, a new one after
    # each arc that ends an under-passage (position 0 of a crossing)
    under_ends = {quad[0] for quad in diagram.crossings}
    over_arc: dict[int, int] = {}
    firsts = [1]
    for comp in diagram.components:
        cut = next((i for i, a in enumerate(comp) if a in under_ends), -1)
        n = firsts[-1]
        for a in comp[cut + 1:] + comp[:cut + 1]:
            over_arc[a] = n
            n += a in under_ends
        firsts.append(max(n, firsts[-1] + 1))
    runs = [range(f, e) for f, e in zip(firsts, firsts[1:])]
    arc = ["A^%d" % n for n in range(firsts[-1])]  # arc[n] names A^n
    overs: list[set[int]] = [set() for _ in range(k)]
    twist = list(fl.framings)
    for (cu, co), (_, b, _, _) in zip(diagram._crossing_table,
                                      diagram.crossings):
        overs[cu] ^= {over_arc[b]}
        twist[cu] += cu == co
    # (name, degree, component, boundary), each boundary sorted
    cells = [("%s^%d" % (name, j), degree, "torus_%d" % j, ())
             for j in range(1, k + 1)
             for name, degree in (("z0", 0), ("z1", 1), ("z1'", 1),
                                  ("z2", 2))]
    cells += [("Q^%d" % j, 1, "handle",
               tuple(sorted(("z0^%d" % j, "z0^%d" % (j + 1)))))
              for j in range(1, k)]
    cells += [(a, 1, "handle", ()) for a in arc[1:]]
    cells += [("J^%d" % n, 2, "handle", tuple(sorted({arc[n]} ^ {arc[m]})))
              for run in runs for n, m in zip(run, [*run[1:], run[0]])]
    cells += [cell for j, run in enumerate(runs, 1) for cell in (
        ("M^%d" % j, 2, "handle", (arc[run[0]], "z1'^%d" % j)),
        ("L^%d" % j, 2, "handle", tuple(sorted(
            [arc[n] for n in overs[j - 1]] + ["z1^%d" % j]
            + ["z1'^%d" % j] * (twist[j - 1] % 2)))))]
    cells += [("D^%d" % j, 3, "handle",
               tuple(sorted(["z2^%d" % j] + ["J^%d" % n for n in run])))
              for j, run in enumerate(runs, 1)]
    cells.append(("p''", 3, "handle",
                  tuple(sorted("z2^%d" % j for j in range(1, k + 1)))))
    names, degrees, components, boundaries = zip(*cells)
    return complex_from_names(names, dict(zip(names, boundaries)),
                              dict(zip(names, degrees)),
                              dict(zip(names, components)))


def reference_homology_basis(cx: CascadeComplex) -> tuple[str, ...]:
    """The oracle for CascadeComplex.homology_basis: the same search
    with no stop at dim H = dim Z - dim B, so every single-generator
    cycle and every kernel class is tested against the span.  The
    columns are packed here from the boundaries the complex reports."""
    index = {g: i for i, g in enumerate(cx.generators)}
    cols = [functools.reduce(lambda v, h: v ^ 1 << index[h],
                             cx.boundary(g), 0) for g in cx.generators]
    # one elimination: the columns it absorbs give the kernel, and
    # its span, the image, absorbs what is zero in homology
    classes, kernel = f2.Reducer(), []
    for c in cols:
        residual, combo = classes.add(c)
        if not residual:
            kernel.append(combo)
    reps = []
    # single-generator cycles first; add() leaves a nonzero residual
    # exactly for a cycle that is new in homology
    for i, g in enumerate(cx.generators):
        if cols[i] == 0 and classes.add(1 << i)[0]:
            reps.append(g)
    # remaining kernel classes (cycles supported on several generators)
    for combo in kernel:
        if classes.add(combo)[0]:
            reps.append("+".join(cx.generators[i] for i in f2.bits(combo)))
    return tuple(reps)


def reference_betti_by_degree(cx: CascadeComplex) -> tuple[int, ...]:
    """The oracle for CascadeComplex.betti_by_degree: one f2.rank per
    degree, b_d = n_d - r_d - r_(d+1) with r_d the rank of d on the
    generators of degree d, over columns packed here from the
    boundaries the complex reports.  It refuses what the complex
    refuses, with the same error classes: no degrees, a generator with
    no degree, a degree that is no int >= 0, a boundary outside the
    degree below."""
    if not cx.degrees:
        raise MalformedComplex("complex carries no degrees")
    if any(g not in cx.degrees for g in cx.generators):
        raise UnknownGenerator("a generator has no degree")
    index = {g: i for i, g in enumerate(cx.generators)}
    cols_by_degree: dict[int, list[int]] = {}
    for g in cx.generators:
        d = cx.degrees[g]
        if not isinstance(d, int) or d < 0:
            raise MalformedComplex("degree is no int >= 0")
        col = functools.reduce(lambda v, h: v ^ 1 << index[h],
                               cx.boundary(g), 0)
        if any(cx.degrees[cx.generators[i]] != d - 1 for i in f2.bits(col)):
            raise MalformedComplex("differential does not drop degree")
        cols_by_degree.setdefault(d, []).append(col)
    rank = {d: f2.rank(cols) for d, cols in cols_by_degree.items()}
    return tuple(len(cols_by_degree.get(d, ())) - rank.get(d, 0)
                 - rank.get(d + 1, 0)
                 for d in range(max(cols_by_degree) + 1))


# --------------------------------------------------------------------------
# quiver oracles
# --------------------------------------------------------------------------

# Matrices here are tuples of row bitmasks, as in f2: bit j of row i is
# the entry in column j, and a product is a sum of rows.

def matrix(rep: QuiverRepresentation, name: str) -> tuple[int, ...]:
    """An arrow's matrix as row bitmasks, entries taken mod 2."""
    return tuple(sum((x % 2) << j for j, x in enumerate(row))
                 for row in rep.matrices[name])


def mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """a @ b: row i is the sum of the rows of b that row i of a selects."""
    out = []
    for row in a:
        acc = 0
        for j in range(len(b)):
            if row >> j & 1:
                acc ^= b[j]
        out.append(acc)
    return tuple(out)


def inverse(g: tuple[int, ...]) -> tuple[int, ...]:
    """Row j of the inverse is the combination of the rows of g that
    sums to the unit vector e_j."""
    red = f2.Reducer(g)
    inv = tuple(red.express(1 << j) for j in range(len(g)))
    if None in inv:
        raise ValueError("matrix is singular")
    return inv


def transform(q: QuiverPresentation, rep: QuiverRepresentation,
              maps: dict) -> QuiverRepresentation:
    """Base change of a representation by invertible vertex maps, given
    as row bitmasks."""
    new = {}
    for name, s, t in q.arrows:
        mat = mul(mul(maps[t], matrix(rep, name)), inverse(maps[s]))
        new[name] = tuple(tuple((row >> j) & 1 for j in range(rep.dims[s]))
                          for row in mat)
    return QuiverRepresentation(dict(rep.dims), new)


def cp2_standard_representation() -> QuiverRepresentation:
    """A representation of quiver.cp2_quiver: all vertex spaces
    one-dimensional, a0, b0, c0 the identity and a1, b1, c1 zero."""
    one, zero = ((1,),), ((0,),)
    return QuiverRepresentation({"x_4": 1, "x_2": 1, "x_0": 1}, {
        "a_0": one, "b_0": one, "c_0": one,
        "a_1": zero, "b_1": zero, "c_1": zero,
    })


@functools.lru_cache(maxsize=None)
def gl(n: int) -> list[tuple[int, ...]]:
    """GL(n, F2) as row-bitmask matrices, by enumeration."""
    if n > 3:
        raise DimensionTooLarge(
            "the oracle's GL(n, F2) enumeration is capped at dimension 3, "
            "got %d" % n)
    return [g for g in itertools.product(range(1 << n), repeat=n)
            if f2.rank(g) == n]


def orbit(q: QuiverPresentation, rep: QuiverRepresentation) -> set[tuple]:
    """All base changes of a representation, as hashable matrix tuples;
    the independent oracle for isomorphism testing."""
    groups = [gl(rep.dims[v]) for v in q.vertices]
    vert_index = {v: i for i, v in enumerate(q.vertices)}
    seen = set()
    for choice in itertools.product(*groups):
        key = []
        for name, s, t in q.arrows:
            g_s_inv = inverse(choice[vert_index[s]])
            g_t = choice[vert_index[t]]
            key.append((name, mul(mul(g_t, matrix(rep, name)), g_s_inv)))
        seen.add(tuple(key))
    return seen


def rep_key(q: QuiverPresentation, rep: QuiverRepresentation) -> tuple:
    return tuple((name, matrix(rep, name)) for name, _, _ in q.arrows)


def dense_check_relations(q: QuiverPresentation, rep: QuiverRepresentation
                          ) -> tuple[bool, list[str]]:
    """The oracle for quiver.check_relations: every path multiplied out
    into its full d_t x d_s matrix from the identity, rows as bitmasks
    with entries mod 2, and the paths of a relation summed.  It reads
    the arrows and the matrix entries itself."""
    ends = {name: (s, t) for name, s, t in q.arrows}
    violations = []
    for rel in q.relations:
        src, tgt = ends[rel[0][0]][0], ends[rel[0][-1]][1]
        total = (0,) * rep.dims[tgt]
        for path in rel:
            mat = tuple(1 << i for i in range(rep.dims[src]))
            for name in path:
                mat = mul(matrix(rep, name), mat)
            total = tuple(x ^ y for x, y in zip(total, mat))
        if any(total):
            violations.append(" + ".join(".".join(p) for p in rel))
    return not violations, violations
