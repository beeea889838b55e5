"""Named-generator presentations over Z/2 and link-complement homology.

An F2Presentation is a Z/2 vector space given by named generators and
linear relations.  It stores one elimination, an f2.Reducer over the
relations: canonicalize() reduces modulo it, dim and the canonical
basis (the pivot-free generators, in generator order) read its rank
and pivot mask, and to_json() reduces its rows when it prints them.
Generators carry names only, no degree or component tags.  The directed
categories of flow.py keep one, for hom(top, bottom), and store their
composition-table entries as its canonical bitmasks; their free middle
hom spaces are name tuples.

complement_homology() produces the presentation, in each homological
degree 0..3, of the homology of a framed-link complement: one point
class per boundary torus (all identified), meridian and longitude
classes in degree one with the longitude of each component equal to the
mod-2 sum of the meridians of the components it links oddly, the
boundary tori in degree two summing to zero, and nothing in degree
three.  The Z/2 Betti numbers are (1, k, k-1, 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import f2
from .errors import DuplicateGeneratorName, MalformedLink, UnknownGenerator
from .links import LinkingMatrix


class F2Presentation:
    """Z/2 vector space with named generators and linear relations."""

    def __init__(self, generators: Sequence[str],
                 relations: Iterable[Sequence[str] | int] = ()):
        gens = tuple(generators)
        if len(set(gens)) != len(gens):
            raise DuplicateGeneratorName(
                "duplicate generator name in %r" % (gens,))
        self.generators = gens
        self._index = {g: i for i, g in enumerate(gens)}
        self.relations = tuple(map(self._relation, relations))
        self._span = f2.Reducer(self.relations)

    # --- vector helpers -------------------------------------------------

    def vector(self, names: Iterable[str]) -> int:
        """Mod-2 sum of named generators as a bitmask."""
        v = 0
        for name in names:
            v ^= 1 << self._index[name]
        return v

    def _relation(self, r: Sequence[str] | int) -> int:
        """A relation as a bitmask, if its names and bits are generators'."""
        if isinstance(r, int):
            past = r >> len(self.generators) << len(self.generators)
            low = (past & -past).bit_length() - 1
            unknown = ["bit %d" % low] if past else []
        else:
            unknown = [g for g in r if g not in self._index]
        if unknown:
            raise UnknownGenerator("relation %r names %s, not a generator"
                                   % (r, unknown[0]))
        return r if isinstance(r, int) else self.vector(r)

    def names(self, v: int) -> tuple[str, ...]:
        return tuple(self.generators[i] for i in f2.bits(v))

    # --- reduction ------------------------------------------------------

    @property
    def basis(self) -> tuple[str, ...]:
        """Canonical basis: generators that are not relation pivots."""
        return self.names(~self._span.mask & (1 << len(self.generators)) - 1)

    @property
    def dim(self) -> int:
        return len(self.generators) - self._span.rank

    def canonicalize(self, v: int) -> int:
        """Rewrite a vector in the canonical basis."""
        return f2.reduce_vector(v, self._span)

    def canonical_names(self, names: Iterable[str]) -> tuple[str, ...]:
        return self.names(self.canonicalize(self.vector(names)))

    # --- comparisons and export ------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, F2Presentation)
                and self.generators == other.generators
                and self.relations == other.relations)

    def __repr__(self) -> str:
        return ("F2Presentation(generators=%r, relations=%r)"
                % (list(self.generators),
                   [list(self.names(r)) for r in self.relations]))

    def to_json(self) -> dict:
        return {
            "generators": list(self.generators),
            "relations": [sorted(self.names(r))
                          for r in f2.rref(self._span)[0]],
            "basis": list(self.basis),
            "betti": self.dim,
        }


@dataclass(frozen=True)
class ComplementHomology:
    """Per-degree presentations of a link-complement homology."""

    degrees: tuple[F2Presentation, F2Presentation,
                   F2Presentation, F2Presentation]

    @property
    def betti(self) -> tuple[int, int, int, int]:
        return tuple(p.dim for p in self.degrees)

    def __getitem__(self, degree: int) -> F2Presentation:
        return self.degrees[degree]

    def to_json(self) -> dict:
        return {
            "betti": list(self.betti),
            "degrees": [p.to_json() for p in self.degrees],
        }


def complement_homology(matrix: LinkingMatrix) -> ComplementHomology:
    """Homology presentation of the complement of a framed link.

    Only the off-diagonal (linking) entries matter; the framings on the
    diagonal do not change the complement.
    """
    k = matrix.size
    if k < 1:
        raise MalformedLink(
            "complement homology needs at least one component")
    ell = matrix.entries

    q = [f"q^{j + 1}" for j in range(k)]
    deg0 = F2Presentation(q, [(q[j], q[j + 1]) for j in range(k - 1)])

    # meridians first so the longitude relations pivot on the lambdas
    # and the canonical basis is the meridian classes
    lam = [f"lambda^{j + 1}" for j in range(k)]
    mu = [f"mu^{j + 1}" for j in range(k)]
    deg1 = F2Presentation(mu + lam, [
        [lam[j]] + [mu[i] for i in range(k) if i != j and ell[j][i] % 2]
        for j in range(k)])

    du = [f"dU^{j + 1}" for j in range(k)]
    deg2 = F2Presentation(du, [tuple(du)])

    deg3 = F2Presentation(())

    return ComplementHomology((deg0, deg1, deg2, deg3))
