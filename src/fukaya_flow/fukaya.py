"""Directed Donaldson-Fukaya presentation of a framed link and the
isomorphism check against the flow category.

hom(V_4, V_2^j) is freely spanned by x2^j, x1^j; hom(V_2^j, V_0) by
y2^j, y1'^j; hom(V_4, V_0) by z2^j, z1^j, z1'^j, z0^j subject to

    z1^j = sum over i != j with lk(K_j, K_i) odd of z1'^i,
    sum_j z2^j = 0,     z0^1 = ... = z0^k,

and the triangle products are

    x2^j * y2^j  = z2^j          x1^j * y1'^j = z0^j
    x2^j * y1'^j = z1'^j         x1^j * y2^j  = z1^j + m_j z1'^j

with mixed-j products zero; the constructor stores the outputs in the
canonical basis.

verify_theorem_b checks, generator by generator and table entry by
table entry, that the hardcoded dictionary

    x2^j <-> K+^j   x1^j <-> p+^j   y2^j <-> K-^j   y1'^j <-> p-^j
    z2^j <-> dU^j   z1^j <-> lambda^j   z1'^j <-> mu^j   z0^j <-> q^j

carries this category onto the flow category.  The dictionary is not
searched for: it is forced by matching the two composition tables
term by term, so the check is a consistency verification.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import f2
from .flow import DirectedCategoryPresentation, build_flow_category, \
    flow_generator_names
from .homology import F2Presentation
from .links import FramedLink, linking_matrix


def fukaya_generator_names(k: int) -> dict[str, list[str]]:
    return {
        "top_mid": [["x2^%d" % (j + 1), "x1^%d" % (j + 1)] for j in range(k)],
        "mid_bottom": [["y2^%d" % (j + 1), "y1'^%d" % (j + 1)]
                       for j in range(k)],
        "bottom": [["z0^%d" % (j + 1), "z1^%d" % (j + 1),
                    "z1'^%d" % (j + 1), "z2^%d" % (j + 1)]
                   for j in range(k)],
    }


def build_fukaya_category(fl: FramedLink) -> DirectedCategoryPresentation:
    matrix = linking_matrix(fl)
    k = matrix.size
    names = fukaya_generator_names(k)

    z0 = [names["bottom"][j][0] for j in range(k)]
    z1 = [names["bottom"][j][1] for j in range(k)]
    z1p = [names["bottom"][j][2] for j in range(k)]
    z2 = [names["bottom"][j][3] for j in range(k)]
    # primed classes precede the z1 classes so the linking relations
    # pivot on the z1's and the canonical basis keeps the primed ones
    gens = z0 + z1p + z1 + z2
    rels: list[list[str]] = []
    rels.extend([z0[j], z0[j + 1]] for j in range(k - 1))
    for j in range(k):
        rel = [z1[j]]
        rel += [z1p[i] for i in range(k)
                if i != j and matrix.entries[j][i] % 2 == 1]
        rels.append(rel)
    rels.append(list(z2))

    table: dict[tuple[int, str, str], list[str]] = {}
    for j in range(k):
        x2, x1 = names["top_mid"][j]
        y2, y1p = names["mid_bottom"][j]
        m_j = matrix.framing(j) % 2
        table[(j, x2, y2)] = [z2[j]]
        table[(j, x1, y1p)] = [z0[j]]
        table[(j, x2, y1p)] = [z1p[j]]
        table[(j, x1, y2)] = [z1[j]] + ([z1p[j]] if m_j else [])

    return DirectedCategoryPresentation(
        top="V_4",
        middles=tuple("V_2^%d" % (j + 1) for j in range(k)),
        bottom="V_0",
        hom_top_mid=tuple(map(F2Presentation, names["top_mid"])),
        hom_mid_bottom=tuple(map(F2Presentation, names["mid_bottom"])),
        hom_top_bottom=F2Presentation(gens, rels),
        table=table,
    )


def generator_dictionary(k: int) -> dict[str, str]:
    """Fukaya generator -> flow generator, for k middle objects."""
    fuk = fukaya_generator_names(k)
    flo = flow_generator_names(k)
    mapping: dict[str, str] = {}
    for j in range(k):
        mapping[fuk["top_mid"][j][0]] = flo["top_mid"][j][0]
        mapping[fuk["top_mid"][j][1]] = flo["top_mid"][j][1]
        mapping[fuk["mid_bottom"][j][0]] = flo["mid_bottom"][j][0]
        mapping[fuk["mid_bottom"][j][1]] = flo["mid_bottom"][j][1]
        z0, z1, z1p, z2 = fuk["bottom"][j]
        mapping[z0] = "q^%d" % (j + 1)
        mapping[z1] = "lambda^%d" % (j + 1)
        mapping[z1p] = "mu^%d" % (j + 1)
        mapping[z2] = "dU^%d" % (j + 1)
    return mapping


@dataclass(frozen=True)
class TheoremBReport:
    dictionary: dict[str, str]
    isomorphic: bool
    mismatches: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "dictionary": dict(sorted(self.dictionary.items())),
            "isomorphic": self.isomorphic,
            "mismatches": list(self.mismatches),
        }


def _translated_relations(pres: F2Presentation, mapping: dict[str, str],
                          target: F2Presentation) -> frozenset[int]:
    rows = [target.vector(tuple(mapping[n] for n in pres.names(r)))
            for r in pres.relations]
    return frozenset(f2.rref(rows)[0])


def compare_categories(fukaya: DirectedCategoryPresentation,
                       flow: DirectedCategoryPresentation,
                       mapping: dict[str, str]) -> TheoremBReport:
    """Entry-by-entry comparison of two three-level categories under a
    generator dictionary.  A mismatch is reported with the entry that
    disagrees; it signals an implementation bug, not a mathematical
    possibility."""
    mismatches: list[str] = []
    k = len(flow.middles)
    if len(fukaya.middles) != k:
        mismatches.append("middle object counts differ: %d vs %d"
                          % (len(fukaya.middles), k))
        return TheoremBReport(dict(mapping), False, tuple(mismatches))

    for j in range(k):
        for side, pf, pg in (("hom(top,mid)", fukaya.hom_top_mid[j],
                              flow.hom_top_mid[j]),
                             ("hom(mid,bottom)", fukaya.hom_mid_bottom[j],
                              flow.hom_mid_bottom[j])):
            mapped = tuple(mapping[n] for n in pf.generators)
            if mapped != pg.generators:
                mismatches.append("%s j=%d generators: %r -> %r != %r"
                                  % (side, j + 1, pf.generators, mapped,
                                     pg.generators))
            if pf.relations or pg.relations:
                mismatches.append("%s j=%d is not free" % (side, j + 1))

    bf, bg = fukaya.hom_top_bottom, flow.hom_top_bottom
    mapped_gens = sorted(mapping[n] for n in bf.generators)
    if mapped_gens != sorted(bg.generators):
        mismatches.append("hom(top,bottom) generator sets differ")
    else:
        if _translated_relations(bf, mapping, bg) != bg.relation_set():
            mismatches.append("hom(top,bottom) relations differ")

    # Products through two distinct middles have no table entry: the
    # constructor (also run by dataclasses.replace) rejects a key whose
    # generators belong to another middle.
    for j in range(k):
        for u in fukaya.hom_top_mid[j].generators:
            for v in fukaya.hom_mid_bottom[j].generators:
                left = fukaya.compose(j, u, v)
                translated = bg.canonical_names(mapping[n] for n in left)
                right = flow.compose(j, mapping[u], mapping[v])
                if tuple(sorted(translated)) != tuple(sorted(right)):
                    mismatches.append(
                        "table entry (%s, %s): %r -> %r != %r"
                        % (u, v, left, translated, right))
    return TheoremBReport(dict(mapping), not mismatches, tuple(mismatches))


def verify_theorem_b(fl: FramedLink) -> TheoremBReport:
    """Build both categories of the framed link and verify they agree
    under the hardcoded generator dictionary."""
    flow_cat = build_flow_category(fl)
    fukaya_cat = build_fukaya_category(fl)
    mapping = generator_dictionary(len(flow_cat.middles))
    return compare_categories(fukaya_cat, flow_cat, mapping)
