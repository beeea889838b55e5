"""Three-level directed category presentations and the flow category of a
framed link.

Objects sit in three layers: one top object, k middle objects, one
bottom object.  Morphism spaces point strictly downward; hom(a, a) is
spanned by a formal identity and hom spaces against the order are zero.
The middle hom spaces hom(top, mid_j) and hom(mid_j, bottom) are free,
so each is stored as the tuple of its generator names; hom(top, bottom)
is the one F2Presentation, the only hom space with relations.
Composition is a bilinear table from hom(top, mid_j) x hom(mid_j,
bottom) into hom(top, bottom); products through distinct middle objects
vanish.  The constructor is the one place a category is checked: the
hom layers must match the middle objects, object names must be
distinct, no middle hom space may name a generator twice, each table
key's generators must belong to that key's middle object, each entry
(names or a bitmask) must lie in hom(top, bottom), and every entry is
stored once, as its canonical bitmask.

build_flow_category computes, for a framed link, the category whose
hom(top, mid_j) is spanned by the classes [K+^j], [p+^j] of the j-th
attaching circle above, hom(mid_j, bottom) by [K-^j], [p-^j] below, and
hom(top, bottom) by the link-complement homology classes; the
composition table is

    [K+^j] * [p-^j] = mu^j           [p+^j] * [K-^j] = lambda^j + m_j mu^j
    [K+^j] * [K-^j] = dU^j           [p+^j] * [p-^j] = q^j

with all outputs in the canonical basis of the complement homology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import (DuplicateGeneratorName, MalformedCategory,
                     UnknownGenerator)
from .homology import ComplementHomology, F2Presentation, \
    complement_homology
from .links import FramedLink, linking_matrix


@dataclass(frozen=True)
class DirectedCategoryPresentation:
    top: str
    middles: tuple[str, ...]
    bottom: str
    hom_top_mid: tuple[tuple[str, ...], ...]  # free: generator names
    hom_mid_bottom: tuple[tuple[str, ...], ...]
    hom_top_bottom: F2Presentation
    # (middle index, generator of hom(top,mid), generator of hom(mid,bottom))
    # -> product in hom(top,bottom), names or a bitmask; stored canonical
    table: Mapping[tuple[int, str, str], Iterable[str] | int]

    def __post_init__(self):
        k = len(self.middles)
        if len(self.hom_top_mid) != k or len(self.hom_mid_bottom) != k:
            raise MalformedCategory(
                "hom layers out of step with middle objects")
        if len(set(self.objects)) != len(self.objects):
            raise MalformedCategory("object names must be distinct")
        for layer in (*self.hom_top_mid, *self.hom_mid_bottom):
            if len(set(layer)) != len(layer):
                raise DuplicateGeneratorName(
                    "duplicate generator name in %r" % (layer,))
        target, table = self.hom_top_bottom, {}
        for key, product in self.table.items():
            mid, u, v = key
            if not 0 <= mid < k:
                raise MalformedCategory(
                    "table key %r names no middle object" % (key,))
            for g, layer in ((u, self.hom_top_mid), (v, self.hom_mid_bottom)):
                if g not in layer[mid]:
                    raise MalformedCategory(
                        "table key %r: generator %r is not a morphism of "
                        "middle object %s" % (key, g, self.middles[mid]))
            try:
                if not isinstance(product, int):
                    product = target.vector(product)
                elif product < 0 or product >> len(target.generators):
                    raise UnknownGenerator("'bitmask %#x' is not a generator"
                                           % product)
            except UnknownGenerator as exc:
                raise MalformedCategory("table key %r: product %s of hom(%s, "
                                        "%s)" % (key, exc, self.top,
                                                 self.bottom)) from None
            table[key] = target.canonicalize(product)
        object.__setattr__(self, "table", table)

    @property
    def objects(self) -> tuple[str, ...]:
        return (self.top,) + self.middles + (self.bottom,)

    def compose(self, mid: int, u: Iterable[str] | str,
                v: Iterable[str] | str) -> tuple[str, ...]:
        """Bilinear composition of chains through middle object mid.

        u and v are generator names or iterables of names (mod-2 chains
        in hom(top, mid) and hom(mid, bottom)).  A mid that is no index
        of a middle object raises MalformedCategory, and a name outside
        the middle's hom layers UnknownGenerator.
        """
        if not (isinstance(mid, int) and 0 <= mid < len(self.middles)):
            raise MalformedCategory("middle index %r names no middle object"
                                    % (mid,))
        u = (u,) if isinstance(u, str) else tuple(u)
        v = (v,) if isinstance(v, str) else tuple(v)
        for chain, layer in ((u, self.hom_top_mid[mid]),
                             (v, self.hom_mid_bottom[mid])):
            for g in chain:
                if g not in layer:
                    raise UnknownGenerator(
                        "%r is not a morphism of middle object %s"
                        % (g, self.middles[mid]))
        acc = 0
        for gu in u:
            for gv in v:
                acc ^= self.table.get((mid, gu, gv), 0)
        # the entries are canonical: no pivot bits, so neither has acc
        return self.hom_top_bottom.names(acc)

    def compose_cross(self, mid_u: int, u: str, mid_v: int, v: str
                      ) -> tuple[str, ...]:
        """Composition through distinct middle objects: identically zero."""
        if mid_u == mid_v:
            return self.compose(mid_u, u, v)
        return ()

    # --- export -----------------------------------------------------------

    def to_json(self) -> dict:
        entries = [
            {"middle": self.middles[mid], "left": gu, "right": gv,
             "product": sorted(self.hom_top_bottom.names(out))}
            for (mid, gu, gv), out in sorted(self.table.items())
        ]
        return {
            "objects": list(self.objects),
            # a free layer prints as a presentation without relations
            "hom_top_mid": [F2Presentation(g).to_json()
                            for g in self.hom_top_mid],
            "hom_mid_bottom": [F2Presentation(g).to_json()
                               for g in self.hom_mid_bottom],
            "hom_top_bottom": self.hom_top_bottom.to_json(),
            "table": entries,
        }

    def to_dot(self) -> str:
        lines = ["digraph category {", "  rankdir=LR;"]
        for obj in self.objects:
            lines.append('  "%s";' % obj)
        for mid, name in enumerate(self.middles):
            for g in self.hom_top_mid[mid]:
                lines.append('  "%s" -> "%s" [label="%s"];'
                             % (self.top, name, g))
            for g in self.hom_mid_bottom[mid]:
                lines.append('  "%s" -> "%s" [label="%s"];'
                             % (name, self.bottom, g))
        for g in self.hom_top_bottom.generators:
            lines.append('  "%s" -> "%s" [label="%s"];'
                         % (self.top, self.bottom, g))
        lines.append("}")
        return "\n".join(lines) + "\n"


def flow_generator_names(k: int) -> dict[str, list[tuple[str, str]]]:
    return {
        "top_mid": [("K+^%d" % n, "p+^%d" % n) for n in range(1, k + 1)],
        "mid_bottom": [("K-^%d" % n, "p-^%d" % n) for n in range(1, k + 1)],
    }


def _complement_presentation(homology: ComplementHomology) -> F2Presentation:
    """Single presentation joining the complement homology degrees 0, 1,
    2 in order, each degree's relation bitmasks shifted past the last."""
    gens, rels = [], []
    for pres in (homology[degree] for degree in (0, 1, 2)):
        rels += [r << len(gens) for r in pres.relations]
        gens += pres.generators
    return F2Presentation(gens, rels)


def build_flow_category(fl: FramedLink) -> DirectedCategoryPresentation:
    """Flow category of the framed link: generators from the attaching
    circles, hom(top, bottom) from the complement homology, and the
    four-product composition table."""
    matrix = linking_matrix(fl)
    k = matrix.size
    names = flow_generator_names(k)

    table: dict[tuple[int, str, str], tuple[str, ...]] = {}
    for j in range(k):
        kp, pp = names["top_mid"][j]
        km, pm = names["mid_bottom"][j]
        m_j = matrix.framing(j) % 2
        table[(j, kp, pm)] = ("mu^%d" % (j + 1),)
        table[(j, pp, km)] = ("lambda^%d" % (j + 1),) + (
            ("mu^%d" % (j + 1),) if m_j else ())
        table[(j, kp, km)] = ("dU^%d" % (j + 1),)
        table[(j, pp, pm)] = ("q^%d" % (j + 1),)

    return DirectedCategoryPresentation(
        top="x_4",
        middles=tuple("x_2^%d" % (j + 1) for j in range(k)),
        bottom="x_0",
        hom_top_mid=tuple(names["top_mid"]),
        hom_mid_bottom=tuple(names["mid_bottom"]),
        hom_top_bottom=_complement_presentation(complement_homology(matrix)),
        table=table,
    )


def rp2_category() -> DirectedCategoryPresentation:
    """Hardcoded two-dimensional sanity fixture: three objects, two
    generators per hom space, products

        B2 A2 = B1 A1 = C1,   B1 A2 = B2 A1 = C2.

    A fixture, not a general 2d pipeline: the link machinery above is
    four-dimensional.
    """
    table = {
        (0, "A_2", "B_2"): ("C_1",),
        (0, "A_1", "B_1"): ("C_1",),
        (0, "A_2", "B_1"): ("C_2",),
        (0, "A_1", "B_2"): ("C_2",),
    }
    return DirectedCategoryPresentation(
        top="x_2", middles=("x_1",), bottom="x_0",
        hom_top_mid=(("A_1", "A_2"),), hom_mid_bottom=(("B_1", "B_2"),),
        hom_top_bottom=F2Presentation(("C_1", "C_2")), table=table)
