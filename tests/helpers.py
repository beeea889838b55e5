"""Test-side helpers that the package itself never calls: reversing one
component of a diagram, and the relation families among the composite
classes of a link-built flow category."""

from __future__ import annotations

from dataclasses import dataclass

from fukaya_flow.flow import DirectedCategoryPresentation, \
    flow_generator_names
from fukaya_flow.links import LinkDiagram, LinkingMatrix


def reverse_component(diagram: LinkDiagram, comp: int) -> LinkDiagram:
    """Diagram with the orientation of one component reversed."""
    arcs = set(diagram.components[comp])
    new_quads = []
    new_over = []
    for ci, quad in enumerate(diagram.crossings):
        a, b, c, d = quad
        over = diagram.over_to_b[ci]
        if a in arcs:
            # reversed under-strand: rotate so the new incoming
            # under-arc (c) sits first
            quad = (c, d, a, b)
            over = not over
        if b in arcs:
            over = not over
        new_quads.append(quad)
        new_over.append(over)
    # the same arcs in the opposite circuit order, still from the smallest
    components = tuple(
        (c[0],) + c[:0:-1] if i == comp else c
        for i, c in enumerate(diagram.components))
    signs = tuple(1 if o else -1 for o in new_over)
    return LinkDiagram(tuple(new_quads), diagram.circles, components,
                       tuple(new_over), signs)


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
    if [p.generators for p in cat.hom_top_mid] != \
            [tuple(g) for g in names["top_mid"]]:
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
