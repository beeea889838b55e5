"""Command-line interface.

One process per command; every subcommand is deterministic (identical
argv and files give byte-identical stdout) and file outputs are written
atomically (temp file + rename).  Exit codes: 0 success, 1 verification
failure, 2 input/usage errors (a FukayaFlowError or OSError; any other
exception is a bug and keeps its traceback).  Each handler imports only
the layers it runs, so numpy loads only with geometry.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile

from . import links
from .errors import FukayaFlowError, IOFailure, MalformedArgument

SCHEMA = "fukaya-flow/1"


def _envelope(data) -> str:
    return json.dumps({"schema": SCHEMA, "data": data}, indent=2,
                      sort_keys=True) + "\n"


def _write_out(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fukaya-flow-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except OSError:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise IOFailure("cannot write %s: %s" % (path, exc)) from exc


def _add_link_input(sub: argparse.ArgumentParser, required: bool) -> None:
    group = sub.add_mutually_exclusive_group(required=required)
    group.add_argument("--pd", help="inline PD code")
    group.add_argument("--file", help="path to a file holding a PD code")
    group.add_argument("--fixture", help="name from the fixture catalog")
    sub.add_argument("--framings",
                     help="comma-separated integers, one per component")


def _int_list(flag: str, text: str, count: int | None = None
              ) -> tuple[int, ...]:
    """Comma-separated integers, exactly count of them when count is
    given; otherwise MalformedArgument names the flag."""
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError:
        values = None
    if values is None or count not in (None, len(values)):
        raise MalformedArgument(
            "%s must be %scomma-separated integers, got %r"
            % (flag, "" if count is None else "exactly %d " % count, text))
    return values


def _load_link(args) -> tuple[links.LinkDiagram, tuple[int, ...]]:
    """The diagram given by --pd, --file or --fixture, parsed and checked
    by links.parse_pd, and its framings: --framings, one integer per
    component, else the fixture's defaults or zeros."""
    if args.fixture is not None:
        fl = links.fixture(args.fixture)
        diagram, framings = fl.diagram, fl.framings
    else:
        if args.file is not None:
            try:
                with open(args.file, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise IOFailure("cannot read %s: %s"
                                % (args.file, exc)) from exc
        elif args.pd is not None:
            text = args.pd
        else:
            raise MalformedArgument("no link given: pass --pd, --file or "
                                    "--fixture")
        diagram = links.parse_pd(text)
        framings = (0,) * diagram.component_count
    if args.framings is not None:
        framings = _int_list("--framings", args.framings,
                             diagram.component_count)
    return diagram, framings


# --------------------------------------------------------------------------
# subcommand handlers
# --------------------------------------------------------------------------

def cmd_parse_link(args) -> int:
    diagram, _ = _load_link(args)
    if args.format == "json":
        _write_out(_envelope(diagram.to_json()), args.out)
    else:
        lines = ["crossings: %d" % len(diagram.crossings),
                 "components: %d" % diagram.component_count]
        for comp in diagram.components:
            lines.append("  " + " ".join(str(a) for a in comp))
        _write_out("\n".join(lines) + "\n", args.out)
    return 0


def cmd_linking_matrix(args) -> int:
    fl = links.FramedLink(*_load_link(args))
    matrix = links.linking_matrix(fl)
    if args.format == "json":
        _write_out(_envelope(matrix.to_json()), args.out)
    else:
        text = "\n".join(" ".join(str(v) for v in row)
                         for row in matrix.entries)
        _write_out(text + "\n", args.out)
    return 0


def cmd_complement_homology(args) -> int:
    from . import homology
    fl = links.FramedLink(*_load_link(args))
    result = homology.complement_homology(links.linking_matrix(fl))
    if args.format == "json":
        _write_out(_envelope(result.to_json()), args.out)
    else:
        _write_out(" ".join(str(b) for b in result.betti) + "\n", args.out)
    return 0


def _category_command(args, builder) -> int:
    fl = links.FramedLink(*_load_link(args))
    cat = builder(fl)
    if args.format == "dot":
        _write_out(cat.to_dot(), args.out)
    else:
        _write_out(_envelope(cat.to_json()), args.out)
    return 0


def cmd_flow_category(args) -> int:
    from . import flow
    return _category_command(args, flow.build_flow_category)


def cmd_fukaya_category(args) -> int:
    from . import fukaya
    return _category_command(args, fukaya.build_fukaya_category)


def cmd_verify_theorem_b(args) -> int:
    from . import fukaya
    fl = links.FramedLink(*_load_link(args))
    report = fukaya.verify_theorem_b(fl)
    _write_out(_envelope(report.to_json()), args.out)
    if not report.isomorphic:
        for line in report.mismatches:
            print(line, file=sys.stderr)
        return 1
    return 0


# --pair -> morse.standard_<pair>_pair, looked up on the module at call
# time, so a wrapper installed there later is the one run
STANDARD_PAIRS = ("upper", "lower")


def cmd_morse_bott(args) -> int:
    from . import morse
    if args.mode == "case-I":
        pair = getattr(morse, "standard_%s_pair" % args.pair)()
        complex_ = morse.differential_case_I(*pair)
        data = {
            "complex": complex_.to_json(),
            "homology_basis": list(complex_.homology_basis()),
        }
        if args.format == "json":
            _write_out(_envelope(data), args.out)
        else:
            lines = ["d %s = %s" % (g, " + ".join(complex_.boundary(g))
                                    if complex_.boundary(g) else "0")
                     for g in complex_.generators]
            lines.append("homology basis: "
                         + " ".join(complex_.homology_basis()))
            _write_out("\n".join(lines) + "\n", args.out)
        return 0
    # handles
    fl = links.FramedLink(*_load_link(args))
    complex_ = morse.handle_complex_from_link(fl)
    betti = complex_.betti_by_degree()
    if args.format == "json":
        data = {"complex": complex_.to_json(), "betti": list(betti)}
        _write_out(_envelope(data), args.out)
    else:
        _write_out(" ".join(str(b) for b in betti) + "\n", args.out)
    return 0


def cmd_cascade_diagnostics(args) -> int:
    from . import morse
    upper, lower, corr = getattr(morse, "standard_%s_pair" % args.pair)()
    if args.cascades < 0:
        raise MalformedArgument("--cascades must be at least 0, got %d"
                                % args.cascades)
    data = morse.CascadeData((upper, lower), (corr,))
    configs = morse.cascade_moduli(data, args.source, args.target,
                                   args.cascades)
    if args.format == "json":
        _write_out(_envelope(configs), args.out)
    else:
        if not configs:
            _write_out("no configurations\n", args.out)
        else:
            lines = [json.dumps(c, sort_keys=True) for c in configs]
            _write_out("\n".join(lines) + "\n", args.out)
    return 0


def _is_int(x) -> bool:
    # within the float range, so that a glued index stays printable
    return (isinstance(x, int) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def _is_number(x) -> bool:
    return (isinstance(x, int) and not isinstance(x, bool)
            or isinstance(x, float) and math.isfinite(x))


def _is_breakpoint(x) -> bool:
    return isinstance(x, list) and len(x) == 2 and all(map(_is_number, x))


def _is_arc(x) -> bool:
    return isinstance(x, list) and all(map(_is_breakpoint, x))


def _is_part(x) -> bool:
    return (isinstance(x, dict) and isinstance(x.get("name"), str)
            and _is_int(x.get("index"))
            and isinstance(x.get("punctures", {}), dict)
            and all(map(_is_int, x.get("punctures", {}).values())))


def _is_gluing(x) -> bool:
    return (isinstance(x, list) and len(x) == 4
            and all(isinstance(s, str) for s in x))


def _json_list(flag: str, text: str, is_item, item: str) -> list:
    """A JSON list argument whose elements all pass is_item; otherwise
    MalformedArgument names the flag and the first offending element."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # or nested too deeply
        raise MalformedArgument("%s is not JSON: %s" % (flag, exc)) from None
    if not isinstance(data, list):
        raise MalformedArgument("%s must be a JSON list, got %s"
                                % (flag, json.dumps(data)))
    for i, x in enumerate(data):
        if not is_item(x):
            raise MalformedArgument("%s element %d is %s, expected %s"
                                    % (flag, i, json.dumps(x), item))
    return data


def cmd_maslov(args) -> int:
    from . import maslov
    convention = args.convention
    if args.loop is not None:
        breakpoints = _json_list("--loop", args.loop, _is_breakpoint,
                                 "a [t, angle] pair of finite floats or "
                                 "integers")
        loop = maslov.LagrangianLineLoop(
            tuple((t, a) for t, a in breakpoints), convention)
        value = maslov.maslov_of_loop(loop)
    else:
        arcs_data = _json_list("--arcs", args.arcs, _is_arc,
                               "a list of [t, angle] pairs")
        arcs = [maslov.LagrangianLineLoop(tuple((t, a) for t, a in arc))
                for arc in arcs_data]
        boundary = maslov.BoundaryData(punctures=len(arcs),
                                       positive_range=args.positive_sigma)
        value = maslov.winding_number(arcs, boundary)
    _write_out("%d\n" % value, args.out)
    return 0


def cmd_glued_index(args) -> int:
    from . import maslov
    if args.triangle_system is not None:
        n, mu, mu_prime = _int_list("--triangle-system",
                                    args.triangle_system, 3)
        index_h, index_v = maslov.solve_triangle_system(n, mu, mu_prime)
        _write_out("index_H %d\nindex_V %d\n" % (index_h, index_v), args.out)
        return 0
    if args.base_dim is not None:
        result = maslov.vanishing_triangle_index(args.base_dim)
        _write_out("n %(n)d\nindex_H %(index_H)d\nindex_V %(index_V)d\n"
                   % result, args.out)
        return 0
    if args.parts is None:
        raise MalformedArgument(
            "glued-index needs --parts, --triangle-system or --base-dim")
    parts_data = _json_list(
        "--parts", args.parts, _is_part,
        "an object {name: string, index: integer, "
        "punctures: {string: integer}}, integers within the float range")
    gluings_data = _json_list(
        "--gluings", args.gluings, _is_gluing,
        "four strings [part, puncture, part, puncture]"
    ) if args.gluings is not None else []
    parts = [maslov.OperatorPart(p["name"], p["index"],
                                 dict(p.get("punctures", {})))
             for p in parts_data]
    gluings = [tuple(g) for g in gluings_data]
    _write_out("%d\n" % maslov.glued_index(parts, gluings), args.out)
    return 0


# the largest |lambda| at which p_image's sqrt(1 + 4 lambda^2) stays a float
_LAMBDA_BOUND = math.sqrt(sys.float_info.max / 4)


def _check_numeric_args(args) -> None:
    """Refuse counts below 1, a negative --seed and a --lambda-max past
    _LAMBDA_BOUND or not finite: the numeric checks would pass vacuously,
    divide by zero or print nan, and numpy takes no negative seed."""
    for flag, least in (("grid_n", 1), ("samples", 1), ("seed", 0)):
        value = getattr(args, flag, least)
        if value < least:
            raise MalformedArgument("--%s must be at least %d, got %d"
                                    % (flag.replace("_", "-"), least, value))
    lam = args.lambda_max
    if lam is not None and not abs(lam) <= _LAMBDA_BOUND:
        raise MalformedArgument("--lambda-max must be finite and at most "
                                "%.6g in magnitude, got %s"
                                % (_LAMBDA_BOUND, lam))


def cmd_geometry_check(args) -> int:
    _check_numeric_args(args)
    from . import geometry
    report = geometry.geometry_report(seed=args.seed, samples=args.samples,
                                      grid_thetas=args.grid_n,
                                      lam_max=args.lambda_max)
    ok = all(entry["ok"] for entry in report.values())
    if args.format == "json":
        _write_out(_envelope(report), args.out)
    else:
        lines = ["%s %s error %.3e tolerance %.0e"
                 % ("PASS" if entry["ok"] else "FAIL", name,
                    entry["error"], entry["tolerance"])
                 for name, entry in sorted(report.items())]
        _write_out("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


def cmd_emit_figure(args) -> int:
    _check_numeric_args(args)
    from . import geometry
    curves = geometry.default_figure_curves(loop_points=args.grid_n)
    if args.lambda_max is not None:
        curves["constant_lambda"] = [
            (2.0 * 3.141592653589793 * i / args.grid_n, args.lambda_max)
            for i in range(args.grid_n + 1)]
    if args.format == "svg":
        _write_out(geometry.figure_svg(curves), args.out)
        return 0
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["curve_id", "theta", "lambda", "re", "im"])
    for row in geometry.figure_rows(curves):
        writer.writerow([row[0]] + ["%.12g" % v for v in row[1:]])
    _write_out(buf.getvalue(), args.out)
    return 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fukaya-flow",
        description="Flow-category and directed Donaldson-Fukaya "
                    "presentations from framed links, with Morse-Bott, "
                    "Maslov-index, and quadric-geometry checkers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, formats=("text", "json"), link_input=False):
        p = sub.add_parser(name)
        p.set_defaults(handler=handler)
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", help="output path (default stdout)")
        if link_input:
            _add_link_input(p, required=True)
        return p

    add("parse-link", cmd_parse_link, link_input=True)
    add("linking-matrix", cmd_linking_matrix, link_input=True)
    add("complement-homology", cmd_complement_homology, link_input=True)
    add("flow-category", cmd_flow_category, ("json", "dot"),
        link_input=True)
    add("fukaya-category", cmd_fukaya_category, ("json", "dot"),
        link_input=True)
    add("verify-theorem-b", cmd_verify_theorem_b, ("json",),
        link_input=True)

    p = add("morse-bott", cmd_morse_bott, ("text", "json"))
    p.add_argument("mode", choices=("case-I", "handles"))
    p.add_argument("--pair", choices=STANDARD_PAIRS, default="upper")
    _add_link_input(p, required=False)

    p = add("cascade-diagnostics", cmd_cascade_diagnostics,
            ("text", "json"))
    p.add_argument("--pair", choices=STANDARD_PAIRS, default="upper")
    p.add_argument("--cascades", type=int, default=1)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)

    p = add("maslov", cmd_maslov, ("text",))
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--loop", help="JSON [[t, angle], ...] breakpoints")
    group.add_argument("--arcs", help="JSON list of breakpoint lists")
    p.add_argument("--convention", choices=("dx^dy", "dy^dx"),
                   default="dx^dy")
    p.add_argument("--positive-sigma", action="store_true",
                   help="use the (0, pi) puncture convention")

    p = add("glued-index", cmd_glued_index, ("text",))
    p.add_argument("--parts", help="JSON [{name, index, punctures}, ...]")
    p.add_argument("--gluings",
                   help="JSON [[part, puncture, part, puncture], ...]")
    p.add_argument("--triangle-system", help="n,mu,mu'")
    p.add_argument("--base-dim", type=int,
                   help="even base dimension for the vanishing-cycle "
                        "triangle index")

    p = add("geometry-check", cmd_geometry_check, ("text", "json"))
    p.add_argument("--grid-n", type=int, default=48)
    p.add_argument("--lambda-max", type=float, default=2.0)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)

    p = add("emit-figure", cmd_emit_figure, ("csv", "svg"))
    p.add_argument("--grid-n", type=int, default=200)
    p.add_argument("--lambda-max", type=float, default=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (FukayaFlowError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
