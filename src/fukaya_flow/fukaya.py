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
canonical basis.  The free middle spaces are stored as their tuples of
generator names, and hom(V_4, V_0) as the category's one F2Presentation.

verify_theorem_b checks, generator by generator and table entry by
table entry, that the hardcoded dictionary

    x2^j <-> K+^j   x1^j <-> p+^j   y2^j <-> K-^j   y1'^j <-> p-^j
    z2^j <-> dU^j   z1^j <-> lambda^j   z1'^j <-> mu^j   z0^j <-> q^j

carries this category onto the flow category.  The dictionary is not
searched for, and the tables do not force it: without a grading it is
one of |Aut(flow)| isomorphisms (4 on the unknot at framing +1, 36 on
the Hopf link at (0, 0)), so the check verifies one chosen isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import f2
from .flow import DirectedCategoryPresentation, build_flow_category, \
    flow_generator_names
from .homology import F2Presentation
from .links import FramedLink, linking_matrix


def fukaya_generator_names(k: int) -> dict[str, list[tuple[str, ...]]]:
    return {
        "top_mid": [("x2^%d" % n, "x1^%d" % n) for n in range(1, k + 1)],
        "mid_bottom": [("y2^%d" % n, "y1'^%d" % n) for n in range(1, k + 1)],
        "bottom": [("z0^%d" % n, "z1^%d" % n, "z1'^%d" % n, "z2^%d" % n)
                   for n in range(1, k + 1)],
    }


def build_fukaya_category(fl: FramedLink) -> DirectedCategoryPresentation:
    matrix = linking_matrix(fl)
    k = matrix.size
    names = fukaya_generator_names(k)

    z0, z1, z1p, z2 = map(list, zip(*names["bottom"]))
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
        hom_top_mid=tuple(names["top_mid"]),
        hom_mid_bottom=tuple(names["mid_bottom"]),
        hom_top_bottom=F2Presentation(gens, rels),
        table=table,
    )


def generator_dictionary(k: int) -> dict[str, str]:
    """Fukaya generator -> flow generator, for k middle objects."""
    fuk = fukaya_generator_names(k)
    flo = flow_generator_names(k)
    mapping: dict[str, str] = {}
    for j in range(k):
        mapping.update(zip(fuk["top_mid"][j], flo["top_mid"][j]))
        mapping.update(zip(fuk["mid_bottom"][j], flo["mid_bottom"][j]))
        mapping.update(zip(fuk["bottom"][j], (
            name % (j + 1) for name in ("q^%d", "lambda^%d", "mu^%d",
                                        "dU^%d"))))
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


def compare_categories(fukaya: DirectedCategoryPresentation,
                       flow: DirectedCategoryPresentation,
                       mapping: dict[str, str]) -> TheoremBReport:
    """Entry-by-entry comparison of two three-level categories under a
    generator dictionary: the free middle spaces as name tuples, and
    hom(top, bottom) and the table on bitmasks through the dictionary's
    image of each Fukaya generator of hom(top, bottom).  A mismatch,
    named with the entry that disagrees, or a generator the dictionary
    misses or sends off the flow side, signals an implementation bug,
    not a mathematical possibility."""
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
            mapped = tuple(mapping.get(n) for n in pf)
            if mapped != pg:
                mismatches.append("%s j=%d generators: %r -> %r != %r"
                                  % (side, j + 1, pf, mapped, pg))

    bf, bg = fukaya.hom_top_bottom, flow.hom_top_bottom
    bit = {g: 1 << i for i, g in enumerate(bg.generators)}
    image = [bit.get(mapping.get(n), 0) for n in bf.generators]
    if sorted(image) != list(bit.values()):
        mismatches.append("hom(top,bottom) generator sets differ")
        return TheoremBReport(dict(mapping), False, tuple(mismatches))

    def mapped(v: int) -> int:
        return bg.canonicalize(sum(image[i] for i in f2.bits(v)))

    # the images span the flow relations iff all die there at equal rank
    if bf.dim != bg.dim or any(map(mapped, bf.relations)):
        mismatches.append("hom(top,bottom) relations differ")

    # Products through two distinct middles have no table entry: the
    # constructor (also run by dataclasses.replace) rejects a key whose
    # generators belong to another middle.
    for j in range(k):
        for u in fukaya.hom_top_mid[j]:
            for v in fukaya.hom_mid_bottom[j]:
                left = mapped(fukaya.table.get((j, u, v), 0))
                right = flow.table.get((j, mapping.get(u), mapping.get(v)), 0)
                if left != right:
                    mismatches.append(
                        "table entry (%s, %s): %r -> %r != %r"
                        % (u, v, fukaya.compose(j, u, v), bg.names(left),
                           bg.names(right)))
    return TheoremBReport(dict(mapping), not mismatches, tuple(mismatches))


def verify_theorem_b(fl: FramedLink) -> TheoremBReport:
    """Build both categories of the framed link and verify they agree
    under the hardcoded generator dictionary."""
    flow_cat = build_flow_category(fl)
    fukaya_cat = build_fukaya_category(fl)
    mapping = generator_dictionary(len(flow_cat.middles))
    return compare_categories(fukaya_cat, flow_cat, mapping)
