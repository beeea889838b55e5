"""Link diagrams from PD codes, linking numbers, and framed linking matrices.

PD convention: each crossing is a quadruple X(a,b,c,d) of arc labels
listed counter-clockwise starting from the incoming under-strand, so the
under-strand runs a -> c and the over-strand occupies positions b, d.
The over-strand direction follows from walking each strand, which
passes straight through every crossing; a crossing is positive when
the over-strand runs d -> b.

The grammar also accepts O(a) tokens for crossingless circle
components (a is a fresh arc label), which plain quadruples cannot
express; these are needed for round unknots and split unlinks.

parse_pd is the one place a PD code enters the program, and it accepts
only a code that describes a link diagram in the plane.  In order, it
rejects: a token that is not X(a,b,c,d) or O(a) over positive labels,
or an empty code (MalformedToken); a circle label used twice or on a
crossing, or a crossing label that does not occur exactly twice
(ArcLabelNotPairedTwice); a code whose strands cannot be oriented
(InconsistentOrientation); and a connected piece whose face count is
not that of a planar 4-valent graph (NonPlanarPD, naming its smallest
crossing).  The pairing, orientation and planarity checks all read one
dart table built per parse, which pairs each arc end (crossing,
position) with the other end of its arc.  A strand that enters a
crossing at position p leaves it at p + 2 mod 4, so one walk per
component orients it and lists its arcs in circuit order.

The fixture catalog is the packaged data/links.catalog; any other PD
code comes in as text.

All values are immutable after construction and every operation is a
pure function.

Cost: a diagram computes its arc -> component map and a per-crossing
(under, over) component table once, on first use, and every consumer
(self_writhe, linking_matrix, morse.handle_complex_from_link) reads it.
Parsing is linear in the number n of crossings: one regex match per
token, one dict pass that pairs the 4n darts, strand walks that enter
each crossing twice, and a planarity check of one depth-first search
per piece that walks each of the 4n darts into one face.  The linking
matrix, whose off-diagonal entries are the linking numbers, is one
pass over the crossings, O(n + k^2) for k components.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from typing import Optional, Sequence

from .errors import (ArcLabelNotPairedTwice, InconsistentOrientation,
                     MalformedLink, MalformedToken, NonPlanarPD,
                     UnknownFixture)

# whitespace, then one token (group 1) and the whitespace after it, or
# no token (group 1 None) where the text holds no valid one
_TOKEN = re.compile(r"\s*(?:(X\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,"
                    r"\s*(\d+)\s*\)|O\(\s*(\d+)\s*\))\s*)?")


@dataclass(frozen=True)
class LinkDiagram:
    """An oriented link diagram.

    crossings: PD quadruples as the code gives them; the under-strand
        runs a -> c.
    circles: arc labels of crossingless circle components.
    components: arcs of each component in circuit order, components
        ordered by smallest arc label.
    signs: per crossing, +1 when the over-strand runs d -> b and -1
        when it runs b -> d: the one record of the over-strand direction.
    """

    crossings: tuple[tuple[int, int, int, int], ...]
    circles: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]
    signs: tuple[int, ...]

    @property
    def component_count(self) -> int:
        return len(self.components)

    # The table is computed once per diagram and stored in the instance
    # dict; the dataclass fields, equality and hash are unchanged.
    @cached_property
    def _crossing_table(self) -> tuple[tuple[int, int], ...]:
        cmap = {a: i for i, comp in enumerate(self.components) for a in comp}
        return tuple((cmap[a], cmap[b]) for a, b, _, _ in self.crossings)

    def crossing_components(self, c: int) -> tuple[int, int]:
        """(under component, over component) of crossing c."""
        return self._crossing_table[c]

    def to_pd_text(self) -> str:
        parts = ["X(%d,%d,%d,%d)" % q for q in self.crossings]
        parts += ["O(%d)" % a for a in self.circles]
        return ",".join(parts)

    def to_json(self) -> dict:
        return {
            "crossings": [list(q) for q in self.crossings],
            "circles": list(self.circles),
            "components": [list(c) for c in self.components],
            "signs": list(self.signs),
        }


@dataclass(frozen=True)
class FramedLink:
    """A link diagram with one integer framing coefficient per component."""

    diagram: LinkDiagram
    framings: tuple[int, ...]

    def __post_init__(self):
        k = self.diagram.component_count
        if k < 1:
            raise MalformedLink("a framed link needs at least one component")
        if len(self.framings) != k:
            raise MalformedLink(
                "got %d framings for %d components"
                % (len(self.framings), k))
        for f in self.framings:
            if not isinstance(f, int):
                raise MalformedLink("framing %r is not an integer" % (f,))


@dataclass(frozen=True)
class LinkingMatrix:
    """Symmetric integer matrix: linking numbers off the diagonal,
    framing coefficients on it."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if any(len(row) != len(self.entries) for row in self.entries):
            raise MalformedLink("linking matrix must be square")
        if list(map(tuple, self.entries)) != list(zip(*self.entries)):
            raise MalformedLink("linking matrix must be symmetric")
        for x in (x for row in self.entries for x in row):
            if not isinstance(x, int):
                raise MalformedLink("matrix entry %r is not an integer" % (x,))

    @property
    def size(self) -> int:
        return len(self.entries)

    def framing(self, j: int) -> int:
        return self.entries[j][j]

    def to_json(self) -> dict:
        return {"entries": [list(r) for r in self.entries]}


def _tokenize(text: str) -> tuple[list[tuple[int, int, int, int]], list[int]]:
    """The tokens of a non-blank PD code, each followed by a comma or
    the end of the text; error offsets count in text."""
    quadruples: list[tuple[int, int, int, int]] = []
    circles: list[int] = []
    pos = 0
    while True:
        m = _TOKEN.match(text, pos)
        token, a, b, c, d, circle = m.groups()
        if token is None:
            if m.end() == len(text):
                raise MalformedToken("trailing ',' at offset %d in %r"
                                     % (pos - 1, text))
            raise MalformedToken(
                "bad token at offset %d in %r" % (m.end(), text))
        labels = ((int(a), int(b), int(c), int(d)) if circle is None
                  else (int(circle),))
        if 0 in labels:
            raise MalformedToken(
                "arc label 0 in the token at offset %d in %r; arc labels "
                "are positive integers" % (m.start(1), text))
        if len(labels) == 1:
            circles.append(labels[0])
        else:
            quadruples.append(labels)
        pos = m.end()
        if pos == len(text):
            return quadruples, circles
        if text[pos] != ",":
            raise MalformedToken(
                "expected ',' at offset %d in %r" % (pos, text))
        pos += 1


def _dart_table(labels: list[int]) -> list[int]:
    """The partner of each dart: dart 4 ci + p is the end at crossing
    ci, position p, of the arc labels[4 ci + p], and partner[dart] is
    the other end of that arc.  Raises ArcLabelNotPairedTwice, naming
    the first label to occur other than twice, unless there are twice
    as many darts as labels and none is left unpaired."""
    first: dict[int, int] = {}  # label -> its first dart
    partner = [-1] * len(labels)
    for dart, arc in enumerate(labels):
        other = first.setdefault(arc, dart)
        if other != dart:
            partner[dart], partner[other] = other, dart
    if 2 * len(first) != len(labels) or -1 in partner:
        counts = Counter(labels)
        arc = next(a for a, count in counts.items() if count != 2)
        raise ArcLabelNotPairedTwice(
            "arc %d occurs %d times" % (arc, counts[arc]))
    return partner


def _two_ends(arc: int, role: str, x: int, y: int) -> InconsistentOrientation:
    return InconsistentOrientation(
        "arc %d has two %s, at crossings %d and %d"
        % ((arc, role) + tuple(sorted((x // 4 + 1, y // 4 + 1)))))


def _walk_strands(labels: list[int], partner: list[int]
                  ) -> tuple[list[int], list[tuple[int, ...]]]:
    """Orient every strand: the sign of each crossing, +1 when its
    over-strand runs d -> b, and the arcs of each crossing component in
    circuit order, from its smallest.

    A strand that comes into a crossing at position p leaves it at
    p ^ 2, so one step from the dart it enters at is partner[dart ^ 2].
    A component that passes under somewhere is walked from the first
    crossing where it does, entering at position 0, and must enter every
    under-passage at 0; one that only crosses over is walked from its
    lowest crossing, leaving along the smaller over-arc there.  An arc
    that lies under at both ends in the same position is named first.
    """
    for dart in range(0, len(labels), 2):
        if partner[dart] % 4 == dart % 4:
            raise _two_ends(labels[dart], "tails" if dart % 4 else "heads",
                            dart, partner[dart])
    signs = [0] * (len(labels) // 4)
    entered = [False] * len(labels)
    components = []

    def walk(dart: int) -> None:
        arcs = []
        while not entered[dart]:
            entered[dart] = True
            if dart % 2:
                # an over-strand entering at d (3) runs d -> b: +1
                signs[dart // 4] = dart % 4 - 2
            out = dart ^ 2
            arcs.append(labels[out])
            dart = partner[out]
            if dart % 4 == 2:
                raise _two_ends(labels[out], "tails", out, dart)
        start = arcs.index(min(arcs))
        components.append(tuple(arcs[start:] + arcs[:start]))

    for dart in range(0, len(labels), 4):
        if not entered[dart]:
            walk(dart)
    for dart in range(1, len(labels), 4):
        if not entered[dart] and not entered[dart + 2]:
            walk(dart + 2 if labels[dart] <= labels[dart + 2] else dart)
    return signs, components


def _check_planar(partner: list[int]) -> None:
    """Raise NonPlanarPD unless each connected piece of the diagram, with
    V crossings and E = 2V arcs, has the E - V + 2 faces of a planar
    4-valent graph.

    A depth-first search along the arcs from each piece's smallest
    crossing counts its crossings, and the faces walked from the darts
    it reaches.  A dart is an arrival at its crossing along its arc; a
    face walk turns counter-clockwise and leaves via the arc at the next
    position, so one step from dart 4 ci + p is partner[4 ci + (p + 1)
    % 4].  The error names the smallest crossing (1-based) of the
    first piece, in that order, that fails.
    """
    reached = [False] * (len(partner) // 4)
    seen = [False] * len(partner)
    for start in range(len(reached)):
        if reached[start]:
            continue
        reached[start] = True
        stack, size, faces = [start], 0, 0
        while stack:
            ci = stack.pop()
            size += 1
            for first in range(4 * ci, 4 * ci + 4):
                other = partner[first] // 4
                if not reached[other]:
                    reached[other] = True
                    stack.append(other)
                if not seen[first]:
                    faces += 1
                    dart = first
                    while not seen[dart]:
                        seen[dart] = True
                        dart = partner[dart - dart % 4 + (dart + 1) % 4]
        if faces != size + 2:
            raise NonPlanarPD(
                "crossing %d: its piece of %d crossings has %d faces, "
                "expected %d; the PD code is not planar"
                % (start + 1, size, faces, size + 2))


def parse_pd(text: str) -> LinkDiagram:
    """Parse a PD-code string into a validated, oriented, planar
    diagram; the module docstring lists what is rejected."""
    if not text.strip():
        raise MalformedToken("empty PD code")
    quadruples, circles = _tokenize(text)
    circle_counts = Counter(circles)
    labels = [arc for q in quadruples for arc in q]
    crossing_arcs = set(labels)
    for arc in circles:
        if circle_counts[arc] > 1 or arc in crossing_arcs:
            raise ArcLabelNotPairedTwice(
                "circle arc %d reused elsewhere" % arc)
    partner = _dart_table(labels)
    signs, components = _walk_strands(labels, partner)
    _check_planar(partner)
    return LinkDiagram(tuple(quadruples), tuple(circles),
                       tuple(sorted(components + [(a,) for a in circles])),
                       tuple(signs))


def self_writhe(diagram: LinkDiagram, j: int) -> int:
    """Signed count of self-crossings of component j."""
    if j not in range(diagram.component_count):
        raise MalformedLink("no component %r in the diagram" % (j,))
    return sum(sign for (cu, co), sign
               in zip(diagram._crossing_table, diagram.signs)
               if cu == j and co == j)


def linking_matrix(fl: FramedLink) -> LinkingMatrix:
    """Symmetric matrix with lk(K_i, K_j) off the diagonal and the
    framing coefficients m_j on it.

    One pass over the crossings sums the crossing signs per (under,
    over) component pair; the cost is O(n + k^2).
    """
    d = fl.diagram
    k = d.component_count
    signed = [[0] * k for _ in range(k)]
    for (cu, co), sign in zip(d._crossing_table, d.signs):
        signed[cu][co] += sign
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        rows[i][i] = fl.framings[i]
        for j in range(i + 1, k):
            total = signed[i][j] + signed[j][i]
            if total % 2:
                raise InconsistentOrientation(
                    "odd signed crossing count between components %d and %d"
                    % (i, j))
            rows[i][j] = rows[j][i] = total // 2
    return LinkingMatrix(tuple(map(tuple, rows)))


# --- fixture catalog ----------------------------------------------------

def load_catalog() -> dict[str, tuple[str, tuple[int, ...]]]:
    """Named links of the packaged catalog: name -> (pd text, default
    framings)."""
    text = (resources.files("fukaya_flow") / "data" / "links.catalog"
            ).read_text(encoding="utf-8")
    catalog = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, pd, framings = (part.strip() for part in line.split(";"))
        default = tuple(int(x) for x in framings.split(",")) if framings \
            else ()
        catalog[name] = (pd, default)
    return catalog


def fixture(name: str,
            framings: Optional[Sequence[int]] = None) -> FramedLink:
    """Build a named catalog link, optionally overriding its framings."""
    catalog = load_catalog()
    if name not in catalog:
        raise UnknownFixture("unknown fixture %r (have: %s)"
                             % (name, ", ".join(sorted(catalog))))
    pd, default = catalog[name]
    diagram = parse_pd(pd)
    chosen = tuple(framings) if framings is not None else default
    return FramedLink(diagram, chosen)


def fixture_names() -> list[str]:
    return sorted(load_catalog())
