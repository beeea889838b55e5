"""The four workloads: seeded inputs, the timed operation, and the checks.

A workload hands out rounds.  A round is a fixed sequence of operation
shapes whose contents come from the workload's seeded generator; a run
is a whole number of rounds, so every run holds every shape equally
often.  op() is the only code that is timed.  check() compares its
result with facts from the input generators and with properties the
method must have, never with saved output of the program.

Program modules are imported in the constructors, so this file can be
read by the orchestrator, which never imports the program.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import families

# modules each workload imports; the set-up probe imports the same ones
MODULES = {
    "dense_links": ("links", "homology", "f2", "flow", "fukaya", "quiver"),
    "long_knots": ("links", "morse"),
    "local_models": ("links", "geometry", "quiver", "morse", "maslov"),
    "cli": ("cli",),
}


def _import(names):
    return [importlib.import_module("fukaya_flow." + n) for n in names]


def betti_of_complement(k: int) -> tuple[int, int, int, int]:
    """Z/2 Betti numbers of a k-component link complement (Alexander
    duality)."""
    return (1, k, k - 1, 0)


class Workload:
    name = ""
    tail = 90           # percentile reported as op_tail_ms
    min_ops = 100       # enough operations for ten beyond the tail
    warmup_ops = None   # untimed operations first (None: one round)
    last_trace = None   # per-layer totals of a traced child process

    def __init__(self, seed: int):
        self.rng = random.Random("%s:%d" % (self.name, seed))

    def round(self) -> list:
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def failed(self, inp, out) -> bool:
        return False

    def check(self, inp, out) -> list[str]:
        raise NotImplementedError


# --------------------------------------------------------------------------
# dense_links: many components, dense linking, the category pipeline
# --------------------------------------------------------------------------

# Sized so that every shape costs about the same per operation today
# (0.18-0.24 s on a 2-core x86_64); cost grows like k^2 n^2 here, so a
# 32-component link would cost ~1 s and leave too few operations per
# run for a tail percentile.  An odd number of shapes puts the median
# inside one shape's timings rather than between two shapes'.
DENSE_SHAPES = (
    lambda rng: families.hopf_union(rng, 10),                 # k=20 n=20
    lambda rng: families.chain(rng, 16),                      # k=16 n=30
    lambda rng: families.full_twist_union(rng, [3] * 5),      # k=15 n=30
    lambda rng: families.full_twist_union(rng, [4, 4, 3, 3]),  # k=14 n=36
    lambda rng: families.catalog_union(rng, rng.sample(
        ["hopf", "3-chain", "hopf-kink"] * 2 + ["trefoil", "2-unlink"],
        8)),                                                  # k=17 n=21
)


class DenseLinks(Workload):
    name = "dense_links"

    def __init__(self, seed):
        super().__init__(seed)
        (self.links, self.homology, _, self.flow, self.fukaya,
         self.quiver) = _import(MODULES[self.name])

    def round(self):
        return [shape(self.rng) for shape in DENSE_SHAPES]

    def op(self, g):
        links, quiver = self.links, self.quiver
        diagram = links.parse_pd(g.pd)
        fl = links.FramedLink(diagram, g.framings)
        matrix = links.linking_matrix(fl)
        homology = self.homology.complement_homology(matrix)
        flow_cat = self.flow.build_flow_category(fl)
        self.fukaya.build_fukaya_category(fl)
        report = self.fukaya.verify_theorem_b(fl)
        q = quiver.from_category(flow_cat)
        rep = quiver.regular_representation(flow_cat)
        relations = quiver.check_relations(q, rep)
        return matrix, homology, report, relations

    def check(self, g, out):
        matrix, homology, report, (ok, violations) = out
        k = g.components
        problems = []
        if matrix.entries != g.matrix:
            problems.append("linking matrix differs from the generator's")
        if homology.betti != betti_of_complement(k):
            problems.append("betti %r" % (homology.betti,))
        deg1 = homology[1]
        for j in range(k):
            want = sorted("mu^%d" % (i + 1) for i in range(k)
                          if i != j and g.matrix[j][i] % 2)
            got = sorted(deg1.canonical_names(["lambda^%d" % (j + 1)]))
            if got != want:
                problems.append("lambda^%d -> %r, want %r"
                                % (j + 1, got, want))
                break
        if not report.isomorphic or report.mismatches:
            problems.append("theorem B: %r" % (report.mismatches[:1],))
        if not ok or violations:
            problems.append("regular representation violates %r"
                            % (violations[:1],))
        return problems


# --------------------------------------------------------------------------
# long_knots: few components, hundreds of crossings, the handle complex
# --------------------------------------------------------------------------

LONG_CROSSINGS = 300

LONG_SHAPES = (
    lambda rng: families.torus_2(rng, LONG_CROSSINGS + 1),    # knot
    lambda rng: families.torus_2(rng, LONG_CROSSINGS),        # 2 components
    lambda rng: families.random_braid(rng, 3, LONG_CROSSINGS, 3),
    lambda rng: families.random_braid(rng, 4, LONG_CROSSINGS, 3),
)


class LongKnots(Workload):
    name = "long_knots"

    def __init__(self, seed):
        super().__init__(seed)
        self.links, self.morse = _import(MODULES[self.name])

    def round(self):
        return [shape(self.rng) for shape in LONG_SHAPES]

    def op(self, g):
        diagram = self.links.parse_pd(g.pd)
        fl = self.links.FramedLink(diagram, g.framings)
        complex_ = self.morse.handle_complex_from_link(fl)
        return diagram, complex_.betti_by_degree(), complex_.homology_basis()

    def check(self, g, out):
        diagram, betti, basis = out
        k = g.components
        problems = []
        if diagram.component_count != k:
            problems.append("%d components, want %d"
                            % (diagram.component_count, k))
        if len(diagram.crossings) != g.crossings:
            problems.append("crossing count")
        if sum(diagram.signs) != g.signed_crossings:
            problems.append("signed crossing sum %d, want %d"
                            % (sum(diagram.signs), g.signed_crossings))
        if betti != betti_of_complement(k):
            problems.append("betti %r, want %r"
                            % (betti, betti_of_complement(k)))
        if len(basis) != sum(betti_of_complement(k)):
            problems.append("homology basis of size %d" % len(basis))
        return problems


# --------------------------------------------------------------------------
# local_models: numeric geometry, the GL search, flat models, index sums
# --------------------------------------------------------------------------

# A reduced geometry_report without its finite-difference entry:
# symplectic_pullback_error exceeds its own 1e-6 tolerance for about one
# seed in eighty (see CHANGES.md), so a check on it would fail on some
# seeds only.  The round-trip and image-grid identities hold to 1e-10,
# the tolerance the geometry module states for them.
ROUNDTRIP_SAMPLES = 40
P_IMAGE_GRID = dict(grid_thetas=16, lam_max=2.0, lam_steps=5, ef_samples=20)
ROUNDTRIP_TOL = 1e-10
# dimension vector of the non-isomorphic pair: the search visits all
# |GL2| |GL3| |GL2| = 6048 vertex-map choices (a (3,3,3) pair takes ~40 s)
SEARCH_DIMS = (2, 3, 2)
# the isomorphic pair is small so that where the search stops varies
# the cost by little
BASE_CHANGE_DIMS = (2, 2, 2)

# the paper's triangle products on the surviving generators
PAPER_TRIANGLE = {("x2", "y2"): ("z2",), ("x1", "y2"): ("z1",),
                  ("x2", "y1'"): ("z1'",), ("x1", "y1'"): ("z0",)}
# case-I cascade differentials and homology of the standard pairs
CASE_I = {
    "upper": ({"x2": (), "x1": (), "x1'": ("a1",), "x0": ("a0",)},
              {"x2", "x1"}),
    "lower": ({"y2": (), "y1'": (), "y1": ("b1",), "y0": ("b0",)},
              {"y2", "y1'"}),
}
# the figure's boundary arcs: one full turn, one flat arc, one half
# turn, three punctures at -pi/2 -> winding number zero
FIGURE_WINDING = 0


def f2_mul(a, b):
    return tuple(tuple(sum(a[i][t] * b[t][j] for t in range(len(b))) % 2
                       for j in range(len(b[0]))) for i in range(len(a)))


def f2_rank(rows) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                rows[i] = [(x + y) % 2 for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def f2_inverse(m):
    n = len(m)
    aug = [list(m[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next(i for i in range(c, n) if aug[i][c])
        aug[c], aug[piv] = aug[piv], aug[c]
        for i in range(n):
            if i != c and aug[i][c]:
                aug[i] = [(x + y) % 2 for x, y in zip(aug[i], aug[c])]
    return tuple(tuple(row[n:]) for row in aug)


def random_matrix(rng, rows, cols):
    return tuple(tuple(rng.randint(0, 1) for _ in range(cols))
                 for _ in range(rows))


def random_invertible(rng, n):
    while True:
        m = random_matrix(rng, n, n)
        if f2_rank(m) == n:
            return m


class LocalModels(Workload):
    name = "local_models"

    def __init__(self, seed):
        super().__init__(seed)
        (_, self.geometry, self.quiver, self.morse,
         self.maslov) = _import(MODULES[self.name])
        self.np = importlib.import_module("numpy")
        self.q = self.quiver.cp2_quiver()

    def _matrices(self, dims, full_rank_a0=False):
        dim = dict(zip(self.q.vertices, dims))
        while True:
            mats = {name: random_matrix(self.rng, dim[t], dim[s])
                    for name, s, t in self.q.arrows}
            # a full-rank first arrow keeps the number of arrows the
            # search compares per choice the same from pair to pair
            if not full_rank_a0 or f2_rank(mats["a_0"]) == min(dims[:2]):
                return dim, mats

    def _non_isomorphic_pair(self):
        while True:
            dim, m1 = self._matrices(SEARCH_DIMS, True)
            _, m2 = self._matrices(SEARCH_DIMS, True)
            differ = [a for a in m1 if f2_rank(m1[a]) != f2_rank(m2[a])]
            if differ:
                return dim, m1, m2, differ[0]

    def _base_change_pair(self):
        dim, m1 = self._matrices(BASE_CHANGE_DIMS)
        g = {v: random_invertible(self.rng, dim[v]) for v in self.q.vertices}
        m2 = {name: f2_mul(f2_mul(g[t], m1[name]), f2_inverse(g[s]))
              for name, s, t in self.q.arrows}
        return dim, m1, m2

    def round(self):
        rng = self.rng
        rep = self.quiver.QuiverRepresentation
        dim, m1, m2, arrow = self._non_isomorphic_pair()
        bdim, b1, b2 = self._base_change_pair()
        degree = rng.randint(-3, 3)
        n = rng.randint(1, 6)
        parts = ([rng.randint(-3, 5) for _ in range(3)],
                 [rng.randint(0, 3) for _ in range(2)])
        return [{
            "geometry_seed": rng.randrange(2 ** 32),
            "distinct": (rep(dim, m1), rep(dim, m2), arrow),
            "same": (rep(bdim, b1), rep(bdim, b2)),
            "loop": (degree, rng.choice(("dx^dy", "dy^dx"))),
            "triangle": (n, rng.randint(-3, 3), rng.choice((-3, -1, 1, 3))),
            "base_dim": 2 * rng.randint(1, 5),
            "parts": parts,
        }]

    def op(self, inp):
        geometry, quiver, morse, maslov = (self.geometry, self.quiver,
                                           self.morse, self.maslov)
        rng = self.np.random.default_rng(inp["geometry_seed"])
        report = geometry.roundtrip_errors(rng, ROUNDTRIP_SAMPLES) + (
            geometry.p_image_errors(rng, **P_IMAGE_GRID),)
        r1, r2, _ = inp["distinct"]
        distinct = quiver.isomorphic(self.q, r1, r2)
        same = quiver.isomorphic(self.q, *inp["same"])
        table = morse.triangle_product_table()
        case_i = {}
        for pair, make in (("upper", morse.standard_upper_pair),
                           ("lower", morse.standard_lower_pair)):
            cx = morse.differential_case_I(*make())
            case_i[pair] = (cx, cx.homology_basis())
        degree, convention = inp["loop"]
        loop = maslov.LagrangianLineLoop(
            ((Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(degree)),
             (Fraction(1), Fraction(2 * degree))), convention)
        arcs, boundary = maslov.figure_boundary_arcs()
        # a path P0 - P1 - P2 glued along punctures of dimensions d01, d12
        (i0, i1, i2), (d01, d12) = inp["parts"]
        parts = [maslov.OperatorPart("P0", i0, {"out": d01}),
                 maslov.OperatorPart("P1", i1, {"in": d01, "out": d12}),
                 maslov.OperatorPart("P2", i2, {"in": d12})]
        gluings = [("P0", "out", "P1", "in"), ("P1", "out", "P2", "in")]
        index = {
            "maslov": maslov.maslov_of_loop(loop),
            "winding": maslov.winding_number(arcs, boundary),
            "glued": maslov.glued_index(parts, gluings),
            "triangle": maslov.solve_triangle_system(*inp["triangle"]),
            "vanishing": maslov.vanishing_triangle_index(inp["base_dim"]),
        }
        return report, distinct, same, table, case_i, index

    def check(self, inp, out):
        report, distinct, same, table, case_i, index = out
        problems = []
        for name, error in zip(("roundtrip_quadric", "roundtrip_cotangent",
                                "p_image_grid"), report):
            if not error < ROUNDTRIP_TOL:
                problems.append("geometry %s error %r" % (name, error))
        for key, want in PAPER_TRIANGLE.items():
            if table.get(key) != want:
                problems.append("triangle %r = %r" % (key, table.get(key)))
        if distinct:
            problems.append("pair with differing rank of %s called "
                            "isomorphic" % inp["distinct"][2])
        if not same:
            problems.append("representation not isomorphic to its own "
                            "base change")
        for pair, (boundary, basis) in CASE_I.items():
            cx, reps = case_i[pair]
            for g, want in boundary.items():
                if tuple(cx.boundary(g)) != want:
                    problems.append("%s: d %s = %r" % (pair, g,
                                                        cx.boundary(g)))
            if set(reps) != basis:
                problems.append("%s homology %r" % (pair, reps))
        degree, convention = inp["loop"]
        if index["maslov"] != (degree if convention == "dx^dy" else -degree):
            problems.append("maslov %r for degree %d" % (index["maslov"],
                                                         degree))
        if index["winding"] != FIGURE_WINDING:
            problems.append("figure winding %r" % index["winding"])
        indices, dims = inp["parts"]
        want = sum(indices) - sum(dims)
        if index["glued"] != want:
            problems.append("glued index %r, want %r" % (index["glued"],
                                                         want))
        n, mu, mu_prime = inp["triangle"]
        h, v = index["triangle"]
        if (v + 3 * h - 3 * (n - 1) != n + mu
                or 2 * h - (n - 1) != n + mu_prime):
            problems.append("triangle system %r fails its equations"
                            % ((h, v),))
        van = index["vanishing"]
        n = inp["base_dim"] - 1
        if (van["n"] != n or van["index_V"] != inp["base_dim"] - 2
                or van["index_V"] + 3 * van["index_H"] - 3 * (n - 1) != n - 1
                or 2 * van["index_H"] - (n - 1) != n - 1):
            problems.append("vanishing triangle index %r" % (van,))
        return problems


# --------------------------------------------------------------------------
# cli: one process per operation
# --------------------------------------------------------------------------

# Malformed JSON arguments: the CLI promises exit 2 and no traceback.
# Each of these fails today (TypeError, exit 1); they are counted as
# failed operations, the same share of every run.
MALFORMED = (
    ("maslov", "--loop", "5"),
    ("maslov", "--loop", '[[0,0],[1,"x"]]'),
    ("glued-index", "--parts", "[1]"),
)

LINK_COMMANDS = ("parse-link", "linking-matrix", "complement-homology",
                 "flow-category", "fukaya-category", "verify-theorem-b")

SMALL_LINKS = (
    lambda rng: families.hopf_union(rng, 2),
    lambda rng: families.chain(rng, 4),
    lambda rng: families.full_twist_union(rng, [3]),
    lambda rng: families.torus_2(rng, 5),
    lambda rng: families.catalog_union(rng, ["hopf", "trefoil"]),
)

SCHEMA = "fukaya-flow/1"


class Cli(Workload):
    name = "cli"
    tail = 80
    min_ops = 50
    warmup_ops = 1

    def __init__(self, seed, root: str, env: dict, trace: bool = False):
        super().__init__(seed)
        self.root = root
        self.env = env
        self.trace = trace
        if trace:
            self.prefix = [sys.executable,
                           os.path.join(root, "perfbench", "cli_child.py")]
        else:
            self.prefix = [sys.executable, "-m", "fukaya_flow.cli"]
        self.seen: dict[tuple, str] = {}
        self._round = self._make_round()

    def _link(self, fixture: bool):
        rng = self.rng
        if fixture:
            name = rng.choice(sorted(families.CATALOG))
            k = len(families.CATALOG[name][1])
            g = families.catalog_fixture(
                name, tuple(rng.randint(-2, 2) for _ in range(k)))
            args = ["--fixture", name]
        else:
            g = rng.choice(SMALL_LINKS)(rng)
            args = ["--pd", g.pd]
        # "=" form: argparse would read a leading "-1" as an option
        return g, args + ["--framings=" + ",".join(map(str, g.framings))]

    def _make_round(self):
        rng = self.rng
        ops = []
        for command in LINK_COMMANDS:
            for fixture in (True, False):
                g, args = self._link(fixture)
                fmt = []
                if command in ("flow-category", "fukaya-category"):
                    fmt = ["--format", "json" if fixture else "dot"]
                ops.append({"argv": (command, *args, *fmt), "link": g})
        g, args = self._link(True)
        ops.append({"argv": ("morse-bott", "handles", *args), "link": g})
        pair = rng.choice(("upper", "lower"))
        ops.append({"argv": ("morse-bott", "case-I", "--pair", pair),
                    "pair": pair})
        degree = rng.randint(-3, 3)
        convention = rng.choice(("dx^dy", "dy^dx"))
        # integer angles are exact multiples of pi
        ops.append({"argv": ("maslov", "--loop",
                             json.dumps([[0, 0], [1, 2 * degree]]),
                             "--convention", convention),
                    "expect": degree if convention == "dx^dy" else -degree})
        ops.append({"argv": ("maslov", "--arcs",
                             json.dumps([[[0, 0], [1, 2]], [[0, 1], [1, 1]],
                                         [[0, 0], [1, 1]]])),
                    "expect": FIGURE_WINDING})
        system = (rng.randint(1, 6), rng.randint(-3, 3),
                  rng.choice((-3, -1, 1, 3)))
        ops.append({"argv": ("glued-index", "--triangle-system",
                             ",".join(map(str, system))),
                    "system": system})
        parts = [{"name": "A", "index": rng.randint(-3, 5),
                  "punctures": {"p": 1}},
                 {"name": "B", "index": rng.randint(-3, 5),
                  "punctures": {"q": 1}}]
        ops.append({"argv": ("glued-index", "--parts", json.dumps(parts),
                             "--gluings", json.dumps([["A", "p", "B", "q"]])),
                    "expect": parts[0]["index"] + parts[1]["index"] - 1})
        ops.extend({"argv": argv, "malformed": True} for argv in MALFORMED)
        return ops

    def round(self):
        return self._round

    def op(self, inp):
        proc = subprocess.run(self.prefix + list(inp["argv"]),
                              cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=120)
        if self.trace:
            result = json.loads(proc.stdout.splitlines()[-1])
            self.last_trace = result["trace"]
            return result["rc"], result["stdout"], result["stderr"]
        return proc.returncode, proc.stdout, proc.stderr

    def failed(self, inp, out):
        rc, _, stderr = out
        if inp.get("malformed"):
            return rc != 2 or "Traceback" in stderr
        return rc != 0

    def check(self, inp, out):
        rc, stdout, _ = out
        argv = inp["argv"]
        if inp.get("malformed"):
            return []
        problems = []
        first = self.seen.setdefault(argv, stdout)
        if first != stdout:
            problems.append("stdout differs between identical invocations")
        try:
            problems += self._check_output(inp, stdout)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems.append("unreadable output: %r" % (exc,))
        return ["%s: %s" % (" ".join(argv[:2]), p) for p in problems]

    def _check_output(self, inp, stdout):
        argv = inp["argv"]
        command = argv[0]
        lines = stdout.splitlines()
        g = inp.get("link")
        k = g.components if g else 0
        if command == "parse-link":
            want = ["crossings: %d" % g.crossings, "components: %d" % k]
            return [] if lines[:2] == want and len(lines) == 2 + k else [
                "header %r" % lines[:2]]
        if command == "linking-matrix":
            got = tuple(tuple(int(x) for x in line.split())
                        for line in lines)
            return [] if got == g.matrix else ["matrix %r" % (got,)]
        if command == "complement-homology" or argv[1] == "handles":
            want = " ".join(map(str, betti_of_complement(k)))
            return [] if lines == [want] else ["betti line %r" % lines]
        if command in ("flow-category", "fukaya-category"):
            if "dot" in argv:
                # k + 2 objects; 4k hom generators to and from the
                # middles and 4k generators of hom(top, bottom)
                nodes = sum(1 for line in lines if line.endswith('";'))
                edges = stdout.count("->")
                ok = lines[0] == "digraph category {" and (nodes, edges) == (
                    k + 2, 8 * k)
                return [] if ok else ["dot with %d nodes, %d edges"
                                      % (nodes, edges)]
            data = self._envelope(stdout)
            ok = (len(data["objects"]) == k + 2
                  and len(data["table"]) == 4 * k
                  and data["hom_top_bottom"]["betti"]
                  == sum(betti_of_complement(k)[:3]))
            return [] if ok else ["category shape"]
        if command == "verify-theorem-b":
            data = self._envelope(stdout)
            ok = data["isomorphic"] is True and data["mismatches"] == []
            return [] if ok else ["not isomorphic: %r" % data["mismatches"]]
        if command == "morse-bott":
            boundary, basis = CASE_I[inp["pair"]]
            got = dict(line[2:].split(" = ") for line in lines[:-1])
            ok = all(got[g] == (" + ".join(want) if want else "0")
                     for g, want in boundary.items())
            ok = ok and lines[-1].startswith("homology basis: ") and set(
                lines[-1].split(": ")[1].split()) == basis
            return [] if ok else ["case-I output %r" % lines]
        if "system" in inp:
            n, mu, mu_prime = inp["system"]
            h = int(lines[0].split()[1])
            v = int(lines[1].split()[1])
            ok = (lines[0].startswith("index_H ")
                  and lines[1].startswith("index_V ")
                  and v + 3 * h - 3 * (n - 1) == n + mu
                  and 2 * h - (n - 1) == n + mu_prime)
            return [] if ok else ["triangle system %r" % lines]
        return [] if lines == [str(inp["expect"])] else [
            "value %r, want %r" % (lines, inp["expect"])]

    @staticmethod
    def _envelope(stdout):
        doc = json.loads(stdout)
        if doc.get("schema") != SCHEMA:
            raise ValueError("schema %r" % doc.get("schema"))
        return doc["data"]


WORKLOADS = {w.name: w for w in (DenseLinks, LongKnots, LocalModels, Cli)}
