"""Re-measure the single-call baselines that ROADMAP.md records.

    python3 perfbench/baselines.py

Each line is one call into the program on a generated input, timed
once (these calls take seconds, so one sample is the measurement).
The 128-Hopf-link linking matrix is left out: it does not finish in
minutes.  Run from the root of a checkout; the program is imported
from its src/.
"""

from __future__ import annotations

import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402

import families  # noqa: E402
from fukaya_flow import geometry, links, morse  # noqa: E402
from fukaya_flow.fukaya import verify_theorem_b  # noqa: E402


def framed(g):
    return links.FramedLink(links.parse_pd(g.pd), g.framings)


def timed(label, fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    print("%-58s %8.3f s" % (label, time.perf_counter() - t0), flush=True)


def main() -> None:
    rng = random.Random(0)
    hopf8 = framed(families.hopf_union(rng, 8))
    hopf32 = framed(families.hopf_union(rng, 32))
    trefoils = framed(families.catalog_union(rng, ["trefoil"] * 40))
    timed("linking_matrix, union of 8 Hopf links (k=16)",
          links.linking_matrix, hopf8)
    timed("linking_matrix, 32 Hopf links (k=64)", links.linking_matrix, hopf32)
    timed("verify_theorem_b, 32 Hopf links (k=64)", verify_theorem_b, hopf32)
    timed("40 disjoint trefoils (n=120): linking_matrix",
          links.linking_matrix, trefoils)
    timed("40 disjoint trefoils (n=120): handle_complex + Betti",
          lambda fl: morse.handle_complex_from_link(fl).betti_by_degree(),
          trefoils)
    timed("p_image_errors, default 48x21x100 = 100,800 points",
          geometry.p_image_errors, np.random.default_rng(0))


if __name__ == "__main__":
    main()
