"""Digest of the CLI's stdout over the fixture catalog.

Runs `fukaya_flow.cli.main` in process on every catalog fixture under
every framing in {-1, 0, 1, 2}^k, for each of 13 command/format pairs,
plus `morse-bott case-I` on both pairs in both formats and
`cascade-diagnostics` on both pairs for every (source, target) pair of
that pair's generators with 0, 1 and 2 cascades in both formats, and
`emit-figure` in both formats with `--grid-n` 1, 7 and 200, each without
and with `--lambda-max 0.5`: 2892 calls.  It prints the sha256 over each
call's argv and stdout.  Two
checkouts whose digests agree print byte-identical stdout on all of
these calls.

    python3 tools/cli_digest.py

The package is imported from the `src/` directory next to this script.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import sys

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
