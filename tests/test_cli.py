"""End-to-end command-line checks."""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import fukaya_flow
from fukaya_flow.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_complement_homology_betti_line(capsys):
    code, out, _ = run(capsys, "complement-homology", "--fixture", "unknot",
                       "--framings", "1")
    assert code == 0
    assert out == "1 1 0 0\n"


def test_verify_theorem_b_success(capsys):
    code, out, _ = run(capsys, "verify-theorem-b", "--fixture", "hopf",
                       "--framings", "0,0")
    assert code == 0
    blob = json.loads(out)
    assert blob["schema"] == "fukaya-flow/1"
    assert blob["data"]["isomorphic"] is True
    assert blob["data"]["dictionary"]["y2^1"] == "K-^1"


def test_maslov_cli(capsys):
    code, out, _ = run(capsys, "maslov", "--loop",
                       "[[0,0],[1,6.283185307]]", "--convention", "dy^dx")
    assert code == 0
    assert out == "-1\n"


def test_maslov_arcs_cli(capsys):
    arcs = "[[[0,0],[1,0]],[[0,3.14159265358979],[1,3.14159265358979]]]"
    code, out, _ = run(capsys, "maslov", "--arcs", arcs)
    assert code == 0
    assert out == "-1\n"


def test_glued_index_cli(capsys):
    code, out, _ = run(capsys, "glued-index", "--triangle-system", "3,-1,-1")
    assert code == 0
    assert out == "index_H 2\nindex_V 2\n"
    code, out, _ = run(capsys, "glued-index", "--base-dim", "6")
    assert code == 0
    assert "index_V 4" in out
    parts = json.dumps([{"name": "a", "index": 2, "punctures": {"p": 2}},
                        {"name": "b", "index": 2, "punctures": {"q": 2}}])
    gluings = json.dumps([["a", "p", "b", "q"]])
    code, out, _ = run(capsys, "glued-index", "--parts", parts,
                       "--gluings", gluings)
    assert code == 0
    assert out == "2\n"


def test_parse_errors_exit_2(capsys):
    code, _, err = run(capsys, "parse-link", "--pd", "X(1,2,3)")
    assert code == 2
    assert "error" in err
    code, _, err = run(capsys, "parse-link", "--pd", "")
    assert code == 2


def test_unknown_fixture_exit_2(capsys):
    code, _, err = run(capsys, "flow-category", "--fixture", "nope")
    assert code == 2
    assert err.startswith("error: unknown fixture 'nope'")


def test_morse_bott_case_one(capsys):
    code, out, _ = run(capsys, "morse-bott", "case-I", "--pair", "lower")
    assert code == 0
    assert "d y1 = b1" in out
    assert "homology basis: y1' y2" in out


def test_morse_bott_handles(capsys):
    code, out, _ = run(capsys, "morse-bott", "handles", "--fixture", "hopf")
    assert code == 0
    assert out == "1 2 1 0\n"


def test_cascade_diagnostics(capsys):
    code, out, _ = run(capsys, "cascade-diagnostics", "--pair", "upper",
                       "--source", "x1'", "--target", "a1",
                       "--cascades", "1")
    assert code == 0
    assert json.loads(out)["points"] == [["3/4", "0"]]
    code, out, _ = run(capsys, "cascade-diagnostics", "--pair", "upper",
                       "--source", "x2", "--target", "a0",
                       "--cascades", "2")
    assert code == 0
    assert out == "no configurations\n"


def test_geometry_check(capsys):
    code, out, _ = run(capsys, "geometry-check", "--samples", "25")
    assert code == 0
    assert out.count("PASS") == 4


def test_categories_json_and_dot(capsys):
    code, out, _ = run(capsys, "flow-category", "--fixture", "unknot",
                       "--framings", "1")
    assert code == 0
    blob = json.loads(out)
    assert blob["schema"] == "fukaya-flow/1"
    assert blob["data"]["objects"] == ["x_4", "x_2^1", "x_0"]
    code, out, _ = run(capsys, "fukaya-category", "--fixture", "unknot",
                       "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")


def test_deterministic_stdout(capsys):
    argv = ("fukaya-category", "--fixture", "3-chain",
            "--framings", "1,0,1")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_emit_figure_files(tmp_path, capsys):
    csv_path = tmp_path / "curves.csv"
    code, _, _ = run(capsys, "emit-figure", "--format", "csv",
                     "--grid-n", "16", "--out", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "curve_id,theta,lambda,re,im"
    assert len(lines) > 17
    svg_path = tmp_path / "curves.svg"
    code, _, _ = run(capsys, "emit-figure", "--format", "svg",
                     "--grid-n", "16", "--out", str(svg_path))
    assert code == 0
    assert svg_path.read_text().startswith("<svg")
    # writes are atomic: no temp files left behind
    assert all(not name.startswith(".fukaya-flow-")
               for name in os.listdir(tmp_path))


def test_unwritable_output_exit_2(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "out.csv"
    code, _, err = run(capsys, "emit-figure", "--format", "csv",
                       "--grid-n", "8", "--out", str(target))
    assert code == 2
    assert "cannot write" in err


def test_pd_from_file(tmp_path, capsys):
    path = tmp_path / "link.pd"
    path.write_text("X(1,3,2,4),X(3,1,4,2)\n")
    code, out, _ = run(capsys, "linking-matrix", "--file", str(path))
    assert code == 0
    assert out == "0 1\n1 0\n"


def test_unreadable_file_exits_2(tmp_path, capsys):
    latin1 = tmp_path / "latin1.pd"
    latin1.write_bytes(b"X(1,3,2,4),X(3,1,4,2) \xe9\n")
    for path in (latin1, tmp_path / "missing.pd"):
        code, out, err = run(capsys, "parse-link", "--file", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot read %s: " % path)


def test_bug_inside_a_handler_is_not_an_input_error(monkeypatch):
    # only package errors and OSError are input errors; a KeyError from
    # inside a layer is a bug and must reach the caller
    def broken(fl):
        raise KeyError("x")

    monkeypatch.setattr("fukaya_flow.links.linking_matrix", broken)
    with pytest.raises(KeyError):
        main(["linking-matrix", "--fixture", "hopf"])


def test_verify_failure_exit_code(capsys, monkeypatch):
    # force a mismatch report to exercise exit code 1 and the stderr diff
    import fukaya_flow.fukaya as fukaya_mod

    real = fukaya_mod.verify_theorem_b

    def fake(fl):
        report = real(fl)
        return fukaya_mod.TheoremBReport(report.dictionary, False,
                                         ("forced mismatch",))

    monkeypatch.setattr("fukaya_flow.fukaya.verify_theorem_b", fake)
    code, out, err = run(capsys, "verify-theorem-b", "--fixture", "unknot")
    assert code == 1
    assert "forced mismatch" in err


@pytest.mark.parametrize("lam", ["2", "1e5", "1e10", "1e150"])
def test_geometry_check_passes_at_large_lambda(capsys, lam):
    # the construction checks scale with |z|^2 and |v|, which grow
    # with lambda, so an in-range --lambda-max is not a domain error
    code, out, err = run(capsys, "geometry-check", "--lambda-max", lam)
    assert code == 0, err
    assert [line.split()[0] for line in out.splitlines()] == ["PASS"] * 4


def _python(*args):
    """Run a fresh interpreter on the package under test."""
    root = os.path.dirname(os.path.dirname(fukaya_flow.__file__))
    return subprocess.run([sys.executable, *args],
                          env=dict(os.environ, PYTHONPATH=root),
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("argv", [
    ("maslov", "--loop", "5"),
    ("maslov", "--loop", '[[0,0],[1,"x"]]'),
    ("maslov", "--loop", "[[0,0],[1,Infinity]]"),
    ("maslov", "--arcs", "3"),
    ("glued-index", "--parts", "[1]"),
    ("glued-index", "--parts", "[]", "--gluings", "[1]"),
    ("glued-index",),
    ("glued-index", "--triangle-system", "2,2,0"),
    ("glued-index", "--base-dim", "3"),
    ("emit-figure", "--grid-n", "0"),
    ("emit-figure", "--grid-n", "-3"),
    ("emit-figure", "--lambda-max", "inf"),
    ("geometry-check", "--grid-n", "0"),
    ("geometry-check", "--samples", "0"),
    ("geometry-check", "--lambda-max", "nan"),
    ("maslov", "--loop", ""),
    ("maslov", "--loop", "[[0,%d],[1,0.5]]" % (9 * 10 ** 308)),
    ("maslov", "--arcs", "[[[0,%d],[1,%d]],[[0,-1.7e308],[1,-1.7e308]]]"
     % ((17 * 10 ** 307,) * 2)),
    ("emit-figure", "--lambda-max", "1e308"),
    ("emit-figure", "--format", "svg", "--lambda-max=-1e308"),
    ("geometry-check", "--lambda-max", "1e300"),
    ("glued-index", "--parts",
     '[{"name":"a","index":%d,"punctures":{"p":0}},'
     '{"name":"b","index":%d,"punctures":{"p":0}}]' % ((9 * 10 ** 4299,) * 2),
     "--gluings", '[["a","p","b","p"]]'),
    ("parse-link", "--pd", "X(1,3,2,4) X(3,1,4,2)"),
    ("parse-link", "--pd", "X(1,3,2,4),"),
    ("parse-link", "--pd", "X(0,3,2,4)"),
    ("linking-matrix", "--fixture", "hopf", "--framings", "1"),
    ("complement-homology", "--pd", "X(1,2,3,4),X(3,4,1,2)"),
    ("flow-category", "--pd", "X(1,3,2,4)"),
    ("fukaya-category", "--pd", "X(1,2,3,4),X(1,3,2,4)"),
    ("verify-theorem-b", "--pd", "O(1),O(1)"),
    ("morse-bott", "handles"),
    ("morse-bott", "handles", "--pd", "Y(1)"),
    ("cascade-diagnostics", "--source", "x2", "--target", "nope"),
])
def test_malformed_json_arguments_exit_2(argv):
    proc = _python("-m", "fukaya_flow.cli", *argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


_BASE = {"cli", "errors", "links"}
_CATEGORIES = _BASE | {"f2", "homology", "flow"}


@pytest.mark.parametrize("argv,layers", [
    (("parse-link", "--fixture", "hopf"), _BASE),
    (("linking-matrix", "--fixture", "hopf"), _BASE),
    (("complement-homology", "--fixture", "hopf"),
     _BASE | {"f2", "homology"}),
    (("flow-category", "--fixture", "hopf"), _CATEGORIES),
    (("fukaya-category", "--fixture", "hopf"), _CATEGORIES | {"fukaya"}),
    (("verify-theorem-b", "--fixture", "hopf"), _CATEGORIES | {"fukaya"}),
    (("morse-bott", "case-I"), _BASE | {"f2", "morse"}),
    (("morse-bott", "handles", "--fixture", "hopf"), _BASE | {"f2", "morse"}),
    (("cascade-diagnostics", "--source", "x2", "--target", "a0"),
     _BASE | {"f2", "morse"}),
    (("maslov", "--loop", "[[0,0],[1,2]]"), _BASE | {"maslov"}),
    (("glued-index", "--base-dim", "4"), _BASE | {"maslov"}),
    (("geometry-check", "--samples", "5", "--grid-n", "8"),
     _BASE | {"geometry", "numpy"}),
    (("emit-figure", "--grid-n", "4"), _BASE | {"geometry", "numpy"}),
])
def test_subcommand_loads_only_its_layers(argv, layers):
    proc = _python("-c", "import sys; from fukaya_flow import cli; "
                   "rc = cli.main(%r); print(rc, sorted("
                   "m.split('.')[1] if '.' in m else m for m in sys.modules "
                   "if m.startswith('fukaya_flow.') or m == 'numpy'))"
                   % (list(argv),))
    rc, loaded = proc.stdout.splitlines()[-1].split(" ", 1)
    assert rc == "0", proc.stderr
    assert loaded == str(sorted(layers))


def test_package_root_loads_no_submodule():
    proc = _python("-c", "import sys, fukaya_flow; print(sorted("
                   "m for m in sys.modules if m.startswith('fukaya_')))")
    assert proc.stdout == "['fukaya_flow']\n", proc.stderr


def test_exact_pipeline_does_not_import_numpy():
    proc = _python("-c", "import sys, fukaya_flow, fukaya_flow.cli, "
                   "fukaya_flow.quiver; print('numpy' in sys.modules)")
    assert proc.stdout == "False\n", proc.stderr


def test_unknown_cascade_generator_exit_2():
    proc = _python("-m", "fukaya_flow.cli", "cascade-diagnostics",
                   "--source", "nope", "--target", "a1")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "nope" in proc.stderr
    assert "a1" not in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv,flag", [
    (("linking-matrix", "--fixture", "hopf", "--framings", "1,x"),
     "--framings"),
    (("glued-index", "--triangle-system", "1,2"), "--triangle-system"),
    (("glued-index", "--triangle-system", "1,2,z"), "--triangle-system"),
    (("cascade-diagnostics", "--source", "x2", "--target", "a0",
      "--cascades", "-1"), "--cascades"),
    (("maslov", "--loop", "[[0,0],"), "--loop"),
    (("maslov", "--arcs", "[[[0,0]"), "--arcs"),
    (("maslov", "--arcs", "[" * 100000), "--arcs"),
    (("glued-index", "--parts", "{"), "--parts"),
    (("geometry-check", "--seed=-1"), "--seed"),
    (("glued-index", "--triangle-system="), "--triangle-system"),
])
def test_bad_flag_values_name_the_flag(argv, flag):
    proc = _python("-m", "fukaya_flow.cli", *argv)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: " + flag)
    assert "Traceback" not in proc.stderr


NONPLANAR = "X(1,3,2,4),X(2,4,3,1)"
# arc 1 enters both crossings as the under-strand
UNORIENTABLE = "X(1,2,3,4),X(1,3,2,4)"

LINK_SUBCOMMANDS = (("parse-link",), ("linking-matrix",),
                    ("complement-homology",), ("flow-category",),
                    ("fukaya-category",), ("verify-theorem-b",),
                    ("morse-bott", "handles"))


@pytest.mark.parametrize("argv,names", [
    *((command + ("--pd", NONPLANAR), "crossing 1")
      for command in LINK_SUBCOMMANDS),
    (("parse-link", "--fixture", "hopf", "--framings", "1,x"), "--framings"),
    (("parse-link", "--fixture", "hopf", "--framings", "1,2,3"),
     "--framings"),
    (("morse-bott", "handles"), "--pd"),
    *((command + ("--pd", UNORIENTABLE), "arc 1")
      for command in LINK_SUBCOMMANDS),
])
def test_bad_link_input_exits_2(argv, names):
    proc = _python("-m", "fukaya_flow.cli", *argv)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert names in proc.stderr
    assert "Traceback" not in proc.stderr


# (commands, format, calls, sha256) of the category stdout pins
_CATEGORY_PINS = (
    (("flow-category", "fukaya-category", "verify-theorem-b"), "json", 564,
     "1f00d3d7d20fcc5a2eca6b47c666f4d9e238ce406f06aa3954ecf06ee47f5c5d"),
    (("flow-category", "fukaya-category"), "dot", 376,
     "2ab5da7a8518ac400482695a97e52970b90b18dcea9c0009e59a87f59ee07432"),
    (("complement-homology", "morse-bott"), "json", 378,
     "7b66396384dfb3ff5e77b8bec3be0cca86e7dcb49a8f7ec0e50e8a489e338d4e"),
    (("morse-bott", "cascade-diagnostics"), "text", 406,
     "0e14e55dc4db2ac9c34bf2530e40e8bb599959ef8a6bd4bb3d7c63b5f0d56273"),
)


def test_category_json_stdout_is_pinned():
    """The JSON stdout of flow-category, fukaya-category and
    verify-theorem-b, the dot stdout of the first two, the JSON stdout
    of complement-homology and morse-bott (handles on every framed
    catalog link, case-I on both pairs), and the text stdout of
    morse-bott and cascade-diagnostics (the case-I lines that print
    boundary()), hashed call by call as tools/cli_digest.py hashes its
    sweep, equal the digests taken before the category tables were
    stored as bitmasks (JSON), before the free middle hom spaces were
    stored as name tuples (dot), before the presentations kept one
    reduction and the Betti numbers were read off the homology basis
    (complement-homology, morse-bott JSON), and before a cascade
    complex was stored as its columns only (text)."""
    import importlib.util
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "tools", "cli_digest.py")
    spec = importlib.util.spec_from_file_location("cli_digest", path)
    cli_digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli_digest)
    sweep = list(cli_digest.calls())
    for commands, fmt, calls, sha in _CATEGORY_PINS:
        digest, count = hashlib.sha256(), 0
        for argv in sweep:
            if argv[0] not in commands or argv[-1] != fmt:
                continue
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(argv) == 0, argv
            count += 1
            digest.update(("\0".join(argv) + "\n").encode())
            digest.update(out.getvalue().encode())
            digest.update(b"\0")
        assert count == calls, fmt
        assert digest.hexdigest() == sha, fmt


_HANDLES_PIN = ("8dbbc4c3f3cb6ccd4cc40311fc434b91"
                "d96b35b50083328e03977b4a8a1684d3")


def test_handles_json_stdout_is_pinned_on_long_diagrams():
    """`morse-bott handles --format json` on 40 seeded braid closures of
    2-5 strands and 100-400 crossings, framings in -2..3, hashed call by
    call as the category pins are, equals the digest taken before the
    handle complex was built from tables.  The catalog's largest diagram
    has 4 crossings, so only this pins the complex's layout at the
    sizes of the long_knots benchmark."""
    from fukaya_flow.links import parse_pd
    from test_links import braid_closure_pd
    rng = random.Random(23)
    digest = hashlib.sha256()
    for _ in range(40):
        strands = rng.randint(2, 5)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(100, 400))]
        pd = braid_closure_pd(strands, word)
        framings = [rng.randint(-2, 3)
                    for _ in range(parse_pd(pd).component_count)]
        argv = ["morse-bott", "handles", "--pd", pd,
                "--framings=" + ",".join(map(str, framings)),
                "--format", "json"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0, argv
        digest.update(("\0".join(argv) + "\n").encode())
        digest.update(out.getvalue().encode())
        digest.update(b"\0")
    assert digest.hexdigest() == _HANDLES_PIN


def test_benchmark_tracer_installs():
    """Every function the benchmark's --trace 1 wraps still exists."""
    perfbench = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             os.pardir, "perfbench")
    proc = _python("-c", "import sys; sys.path.insert(0, %r); "
                   "from tracer import Tracer; Tracer().install()"
                   % perfbench)
    assert proc.returncode == 0, proc.stderr


# --------------------------------------------------------------------------
# fuzzing the JSON flags through main()
# --------------------------------------------------------------------------

_NUMBERS = st.one_of(
    st.integers(-3, 3), st.integers(),
    # past the float range, and up to the 4300-digit limit of int -> str
    st.builds(lambda sign, e: sign * 9 * 10 ** e, st.sampled_from([1, -1]),
              st.sampled_from([308, 309, 4299])),
    st.floats(), st.sampled_from([1e308, -1e308, 6.283185307179586]))
_JSON = st.recursive(
    st.none() | st.booleans() | _NUMBERS | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner,
                                     max_size=3)),
    max_leaves=10)
_BREAKPOINTS = st.lists(st.lists(_NUMBERS, min_size=2, max_size=2) | _JSON,
                        max_size=5)
_NAMES = st.sampled_from(["a", "b", "c", "p", "q"])
_PARTS = st.lists(
    st.fixed_dictionaries(
        {"name": _NAMES, "index": _NUMBERS},
        optional={"punctures": st.dictionaries(_NAMES, _NUMBERS,
                                               max_size=3)}) | _JSON,
    max_size=4)
_GLUINGS = st.lists(st.lists(_NAMES, min_size=4, max_size=4) | _JSON,
                    max_size=4)


def _argument(value_strategy):
    """The text of a JSON flag: shaped JSON (non-finite floats as NaN
    and Infinity), or arbitrary text."""
    return st.one_of(value_strategy.map(json.dumps), st.text(max_size=20))


@pytest.mark.parametrize("command,flag,values", [
    ("maslov", "--loop", _BREAKPOINTS),
    ("maslov", "--arcs", st.lists(_BREAKPOINTS | _JSON, max_size=4)),
    ("glued-index", "--parts", _PARTS),
])
@settings(max_examples=150, deadline=2000, database=None)
@given(data=st.data())
def test_json_flags_exit_0_or_2(command, flag, values, data):
    argv = [command, "%s=%s" % (flag, data.draw(_argument(values)))]
    if command == "glued-index":
        argv.append("--gluings=%s" % data.draw(_argument(_GLUINGS)))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), (argv, code)
    if code == 2:
        assert err.getvalue().startswith("error:"), argv
        assert "Traceback" not in err.getvalue(), argv
