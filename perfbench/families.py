"""Link families whose invariants are known from their construction.

Every generator returns a GeneratedLink: the PD text handed to the
program, framings, and the linking matrix and per-component writhe
worked out while the diagram is built, so no check depends on the
program's own linking-number code.

PD convention (Knot Atlas): X(a,b,c,d) lists arc labels
counter-clockwise from the incoming under-strand; the under-strand runs
a -> c and a crossing is positive when the over-strand runs d -> b.
Braids are drawn with strands running upward; in the letter +i
(sigma_i) the strand entering at position i-1 crosses over the strand
entering at position i, which makes the crossing positive.

Components are numbered as the program numbers them: by smallest arc
label.  Arc labels of the whole diagram are a seeded permutation of
1..N, so that order is itself part of what the checks exercise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Catalog links, copied with facts worked out by hand from the PD
# convention above: arc groups per component (in program order),
# linking numbers of component pairs, and self-crossing sign sums.
CATALOG = {
    "unknot": ("O(1)", ((1,),), {}, (0,)),
    "2-unlink": ("O(1),O(2)", ((1,), (2,)), {}, (0, 0)),
    "3-unlink": ("O(1),O(2),O(3)", ((1,), (2,), (3,)), {}, (0, 0, 0)),
    "hopf": ("X(1,3,2,4),X(3,1,4,2)", ((1, 2), (3, 4)), {(0, 1): 1},
             (0, 0)),
    "trefoil": ("X(1,4,2,5),X(3,6,4,1),X(5,2,6,3)",
                ((1, 2, 3, 4, 5, 6),), {}, (-3,)),
    "3-chain": ("X(1,3,2,8),X(3,1,4,2),X(4,5,7,6),X(5,8,6,7)",
                ((1, 2), (3, 4, 7, 8), (5, 6)), {(0, 1): 1, (1, 2): 1},
                (0, 0, 0)),
    "unknot-kink": ("X(1,2,2,1)", ((1, 2),), {}, (-1,)),
    "hopf-kink": ("X(1,3,2,4),X(3,1,4,6),X(2,6,5,5)",
                  ((1, 2, 5, 6), (3, 4)), {(0, 1): 1}, (1, 0)),
}


@dataclass(frozen=True)
class GeneratedLink:
    family: str
    pd: str
    framings: tuple[int, ...]
    # linking numbers off the diagonal, framings on it
    matrix: tuple[tuple[int, ...], ...]
    writhes: tuple[int, ...]
    crossings: int

    @property
    def components(self) -> int:
        return len(self.framings)

    @property
    def signed_crossings(self) -> int:
        """Sum of all crossing signs: self-crossings plus twice each
        linking number."""
        k = self.components
        return sum(self.writhes) + sum(
            self.matrix[i][j] for i in range(k) for j in range(k) if i != j)


class _Diagram:
    """A diagram under construction, on abstract arc ids."""

    def __init__(self):
        self.quads: list[tuple[int, int, int, int]] = []
        self.circles: list[int] = []
        self.arc_comp: dict[int, int] = {}
        self.pair_signs: dict[tuple[int, int], int] = {}
        self.writhe: dict[int, int] = {}
        self.components = 0
        self._arcs = 0

    def _arc(self) -> int:
        self._arcs += 1
        return self._arcs

    def _comp(self) -> int:
        self.components += 1
        self.writhe[self.components - 1] = 0
        return self.components - 1

    def _record(self, sign: int, ca: int, cb: int) -> None:
        if ca == cb:
            self.writhe[ca] += sign
        else:
            key = (min(ca, cb), max(ca, cb))
            self.pair_signs[key] = self.pair_signs.get(key, 0) + sign

    def braid_closure(self, strands: int, word: list[int]) -> None:
        """Add the closure of a braid word (letters +-i, 1 <= i < strands)."""
        start = [self._arc() for _ in range(strands)]
        cur = list(start)
        arc_strand = {a: p for p, a in enumerate(start)}
        at = list(range(strands))          # strand at each position
        crossings = []                      # (quad, sign, left, right strand)
        under = set()
        for letter in word:
            i = abs(letter) - 1
            l_in, r_in = cur[i], cur[i + 1]
            left, right = at[i], at[i + 1]
            l_out, r_out = self._arc(), self._arc()
            arc_strand[l_out], arc_strand[r_out] = left, right
            if letter > 0:
                quad = (r_in, l_out, r_out, l_in)
                under.add(right)
            else:
                quad = (l_in, r_in, l_out, r_out)
                under.add(left)
            crossings.append((quad, 1 if letter > 0 else -1, left, right))
            cur[i], cur[i + 1] = r_out, l_out
            at[i], at[i + 1] = right, left
        # closure: the top arc at each position is the bottom arc there
        alias = {cur[p]: start[p] for p in range(strands)}
        # the strand ending at position p continues as strand p
        comp_of_strand: dict[int, int] = {}
        for s in range(strands):
            if s in comp_of_strand:
                continue
            comp = self._comp()
            t = s
            while t not in comp_of_strand:
                comp_of_strand[t] = comp
                t = at.index(t)
        for p in range(strands):
            if cur[p] == start[p]:          # a strand that never crosses
                self.circles.append(start[p])
        for a, s in arc_strand.items():
            if alias.get(a, a) == a:
                self.arc_comp[a] = comp_of_strand[s]
        for quad, sign, left, right in crossings:
            self.quads.append(tuple(alias.get(a, a) for a in quad))
            self._record(sign, comp_of_strand[left], comp_of_strand[right])
        crossed = {comp_of_strand[t] for _, _, left, right in crossings
                   for t in (left, right)}
        if crossed - {comp_of_strand[t] for t in under}:
            # the PD code would not fix that component's orientation
            raise ValueError("a component never passes under")

    def catalog_link(self, name: str) -> None:
        pd, groups, links, writhes = CATALOG[name]
        label = {}
        comps = []
        for group, w in zip(groups, writhes):
            comp = self._comp()
            comps.append(comp)
            self.writhe[comp] = w
            for a in group:
                label[a] = self._arc()
                self.arc_comp[label[a]] = comp
        for (i, j), lk in links.items():
            self.pair_signs[(comps[i], comps[j])] = 2 * lk
        for token in pd.split("),"):
            kind, body = token.strip().rstrip(")").split("(")
            arcs = tuple(label[int(x)] for x in body.split(","))
            if kind == "O":
                self.circles.append(arcs[0])
            else:
                self.quads.append(arcs)

    def finish(self, family: str, rng: random.Random) -> GeneratedLink:
        arcs = sorted(self.arc_comp)
        labels = list(range(1, len(arcs) + 1))
        rng.shuffle(labels)
        relabel = dict(zip(arcs, labels))
        first = {}
        for a, comp in self.arc_comp.items():
            first[comp] = min(first.get(comp, relabel[a]), relabel[a])
        order = sorted(range(self.components), key=first.__getitem__)
        index = {comp: i for i, comp in enumerate(order)}
        k = self.components
        framings = tuple(rng.randint(-2, 2) for _ in range(k))
        matrix = [[0] * k for _ in range(k)]
        for i in range(k):
            matrix[i][i] = framings[i]
        for (ca, cb), total in self.pair_signs.items():
            if total % 2:
                raise ValueError("odd crossing count between components")
            i, j = index[ca], index[cb]
            matrix[i][j] += total // 2
            matrix[j][i] += total // 2
        parts = ["X(%d,%d,%d,%d)" % tuple(relabel[a] for a in q)
                 for q in self.quads]
        parts += ["O(%d)" % relabel[a] for a in self.circles]
        return GeneratedLink(
            family, ",".join(parts), framings,
            tuple(tuple(r) for r in matrix),
            tuple(self.writhe[c] for c in order), len(self.quads))


# --- braid words ----------------------------------------------------------

def full_twist(strands: int, sign: int = 1) -> list[int]:
    """(sigma_1 ... sigma_{s-1})^s: every pair of strands links once."""
    return [sign * i for _ in range(strands) for i in range(1, strands)]


def chain_word(k: int, signs: list[int]) -> list[int]:
    """sigma_1^{+-2} ... sigma_{k-1}^{+-2}: the open k-chain."""
    return [s * i for i, s in zip(range(1, k), signs) for _ in range(2)]


def random_word(rng: random.Random, strands: int, length: int) -> list[int]:
    """A random braid word using every generator, so the closure diagram
    is connected."""
    while True:
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(length)]
        if len({abs(x) for x in word}) == strands - 1:
            return word


# --- families ---------------------------------------------------------------

def hopf_union(rng: random.Random, count: int) -> GeneratedLink:
    d = _Diagram()
    for _ in range(count):
        d.braid_closure(2, [rng.choice((1, -1))] * 2)
    return d.finish("hopf_union(%d)" % count, rng)


def chain(rng: random.Random, k: int) -> GeneratedLink:
    d = _Diagram()
    d.braid_closure(k, chain_word(k, [rng.choice((1, -1))
                                      for _ in range(k - 1)]))
    return d.finish("chain(%d)" % k, rng)


def full_twist_union(rng: random.Random,
                     strands: list[int]) -> GeneratedLink:
    """Disjoint union of full twists, one per entry of strands."""
    d = _Diagram()
    for s in strands:
        d.braid_closure(s, full_twist(s, rng.choice((1, -1))))
    return d.finish("full_twist_union(%s)" % "+".join(map(str, strands)),
                    rng)


def catalog_union(rng: random.Random, names: list[str]) -> GeneratedLink:
    d = _Diagram()
    for name in names:
        d.catalog_link(name)
    return d.finish("catalog_union(%s)" % "+".join(names), rng)


def torus_2(rng: random.Random, n: int) -> GeneratedLink:
    """T(2, n): a knot for odd n, a two-component link for even n."""
    d = _Diagram()
    d.braid_closure(2, [rng.choice((1, -1))] * n)
    return d.finish("T(2,%d)" % n, rng)


def random_braid(rng: random.Random, strands: int, length: int,
                 max_components: int) -> GeneratedLink:
    """Closure of a random connected braid word with at most
    max_components components, every component passing under."""
    while True:
        d = _Diagram()
        try:
            d.braid_closure(strands, random_word(rng, strands, length))
        except ValueError:
            continue
        if d.components <= max_components:
            return d.finish("braid(%d,%d)" % (strands, length), rng)


def catalog_fixture(name: str, framings: tuple[int, ...]) -> GeneratedLink:
    """A catalog link exactly as the program's catalog holds it."""
    pd, groups, links, writhes = CATALOG[name]
    k = len(groups)
    matrix = [[framings[i] if i == j else 0 for j in range(k)]
              for i in range(k)]
    for (i, j), lk in links.items():
        matrix[i][j] = matrix[j][i] = lk
    return GeneratedLink("fixture(%s)" % name, pd, tuple(framings),
                         tuple(tuple(r) for r in matrix), writhes,
                         pd.count("X("))
