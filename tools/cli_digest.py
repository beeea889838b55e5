"""Digest of the CLI's stdout over the fixture catalog.

Runs `fukaya_flow.cli.main` in process on every catalog fixture under
every framing in {-1, 0, 1, 2}^k, for each of 13 command/format pairs,
plus `morse-bott case-I` on both pairs in both formats and
`cascade-diagnostics` on both pairs for every (source, target) pair of
that pair's generators with 0, 1 and 2 cascades in both formats, and
`emit-figure` in both formats with `--grid-n` 1, 7 and 200, each without
and with `--lambda-max 0.5`, then the index calculus: `maslov --loop` on
loops of degree -3..3 with int, float and mixed angles in both
conventions (126 calls), `maslov --arcs` on transverse two- and
three-arc sets with int, float and mixed angles, without and with
`--positive-sigma` (612 calls), and `glued-index` on a grid of
`--triangle-system` triples, every even `--base-dim` from 2 to 12 and
one `--parts`/`--gluings` tree (107 calls): 3737 calls.  JSON has no
fraction literal, so the CLI's exact angles are the ints.  It prints
the sha256 over each call's argv and stdout.  Two checkouts whose
digests agree print byte-identical stdout on all of these calls.

    python3 tools/cli_digest.py

The package is imported from the `src/` directory next to this script.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from fukaya_flow import cli, links, morse  # noqa: E402

FRAMINGS = (-1, 0, 1, 2)

LINK_COMMANDS = (
    ("parse-link", "text"), ("parse-link", "json"),
    ("linking-matrix", "text"), ("linking-matrix", "json"),
    ("complement-homology", "text"), ("complement-homology", "json"),
    ("flow-category", "json"), ("flow-category", "dot"),
    ("fukaya-category", "json"), ("fukaya-category", "dot"),
    ("verify-theorem-b", "json"),
    ("morse-bott handles", "text"), ("morse-bott handles", "json"),
)


def calls():
    """Every argv of the sweep, in a fixed order."""
    for name in links.fixture_names():
        k = links.fixture(name).diagram.component_count
        for framings in itertools.product(FRAMINGS, repeat=k):
            flag = "--framings=" + ",".join(map(str, framings))
            for command, fmt in LINK_COMMANDS:
                yield command.split() + ["--fixture", name, flag,
                                         "--format", fmt]
    for pair in ("upper", "lower"):
        for fmt in ("text", "json"):
            yield ["morse-bott", "case-I", "--pair", pair, "--format", fmt]
    for pair, make in (("upper", morse.standard_upper_pair),
                       ("lower", morse.standard_lower_pair)):
        upper, lower, _ = make()
        names = upper.generator_names() + lower.generator_names()
        for source, target in itertools.product(names, repeat=2):
            for cascades in ("0", "1", "2"):
                for fmt in ("text", "json"):
                    yield ["cascade-diagnostics", "--pair", pair,
                           "--source", source, "--target", target,
                           "--cascades", cascades, "--format", fmt]
    for fmt in ("csv", "svg"):
        for grid_n in ("1", "7", "200"):
            for lam in ([], ["--lambda-max", "0.5"]):
                yield ["emit-figure", "--format", fmt,
                       "--grid-n", grid_n] + lam
    yield from index_calls()


def _breakpoints(angles, floats):
    """[t, angle] pairs for angles in units of pi: an angle whose index
    is in floats, or that is no integer, as a float in radians."""
    return [[t, float(a) * math.pi if t in floats or a != int(a) else int(a)]
            for t, a in enumerate(angles)]


def _arc_sets():
    """Two- and three-arc sets, as lists of angle lists in units of pi,
    whose puncture jumps are all nonzero mod 2 (transverse)."""
    half = Fraction(1, 2)
    sets = [[(0, a), (a + j, b)] for a in (-2, 0, 1, 2)
            for j in (-1, half, 1, 3) for b in (-1, 0, 1, 3)]
    sets += [[(0, a), (a + j1, a + j1 + d), (a + j1 + d + j2, c)]
             for a in (-2, 0, 1) for j1 in (-1, half, 1)
             for d in (-1, 0, 2) for j2 in (1, 3 * half) for c in (0, -3)]
    return [arcs for arcs in sets
            if all((arcs[(i + 1) % len(arcs)][0] - arc[-1]) % 2
                   for i, arc in enumerate(arcs))]


def index_calls():
    """maslov and glued-index: loops of degree -3..3 with int, float and
    mixed angles in both conventions; transverse two- and three-arc sets
    with int, float and mixed angles under both sigma ranges; grids of
    the triangle system and the vanishing-cycle triangle; a glued tree."""
    for degree in range(-3, 4):
        for angles in ((0, 2 * degree), (1, 1 + degree, 1 + 2 * degree),
                       (-3, 5, -3 + 2 * degree)):
            for floats in ((), range(len(angles)), (len(angles) - 1,)):
                for convention in ("dx^dy", "dy^dx"):
                    yield ["maslov", "--loop",
                           json.dumps(_breakpoints(angles, floats)),
                           "--convention", convention]
    for arcs in _arc_sets():
        # no arc, every arc, or every other arc with float angles
        for floated in ((), range(len(arcs)), range(1, len(arcs), 2)):
            for sigma in ([], ["--positive-sigma"]):
                yield ["maslov", "--arcs", json.dumps(
                    [_breakpoints(arc, range(2) if i in floated else ())
                     for i, arc in enumerate(arcs)])] + sigma
    for n, mu, mu_prime in itertools.product(range(1, 6), range(-2, 3),
                                             (-3, -1, 1, 3)):
        yield ["glued-index", "--triangle-system",
               "%d,%d,%d" % (n, mu, mu_prime)]
    for base_dim in range(2, 13, 2):
        yield ["glued-index", "--base-dim", str(base_dim)]
    parts = [{"name": "a", "index": 3, "punctures": {"p": 1, "q": 2}},
             {"name": "b", "index": -1, "punctures": {"p": 1}},
             {"name": "c", "index": 4, "punctures": {"q": 2, "r": 0}},
             {"name": "d", "index": 0, "punctures": {"r": 0}}]
    gluings = [["a", "p", "b", "p"], ["a", "q", "c", "q"],
               ["c", "r", "d", "r"]]
    yield ["glued-index", "--parts", json.dumps(parts),
           "--gluings", json.dumps(gluings)]


def main() -> int:
    digest = hashlib.sha256()
    count = failed = 0
    for argv in calls():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        count += 1
        failed += code != 0
        digest.update(("\0".join(argv) + "\n").encode())
        digest.update(out.getvalue().encode())
        digest.update(b"\0")
    print("calls %d, nonzero exits %d" % (count, failed))
    print("sha256 %s" % digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
