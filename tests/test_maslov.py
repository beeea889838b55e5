"""Winding numbers, Maslov indices, and index-gluing arithmetic."""

import math
import random
import re
from fractions import Fraction as F

import pytest

from fukaya_flow import errors
from fukaya_flow.maslov import (BoundaryData, LagrangianLineLoop,
                                OperatorPart, figure_boundary_arcs,
                                glued_index, loop_degree, maslov_of_loop,
                                solve_triangle_system,
                                vanishing_triangle_index, winding_number)


def _arcs(breakpoint_lists):
    return [LagrangianLineLoop(tuple(b)) for b in breakpoint_lists]


def _loop(total_over_pi, convention="dx^dy"):
    return LagrangianLineLoop(((F(0), F(0)), (F(1), F(total_over_pi))),
                              convention)


def test_counterclockwise_loop_conventions():
    assert maslov_of_loop(_loop(2, "dy^dx")) == -1
    assert maslov_of_loop(_loop(2, "dx^dy")) == 1


def test_float_input():
    loop = LagrangianLineLoop(((0.0, 0.0), (1.0, 2.0 * math.pi)), "dy^dx")
    assert maslov_of_loop(loop) == -1


def _outcome(call):
    """What call gives: its value, or its package error and message."""
    try:
        return call()
    except errors.FukayaFlowError as exc:
        return type(exc), str(exc)


def _exact_angle(rng):
    return F(rng.randint(-24, 24), rng.choice((1, 2, 3, 4, 6)))


def _some_as_floats(breakpoints, rng):
    """breakpoints with a random subset of the exact angles a written as
    floats a*pi in radians, each moved by at most 1e-12."""
    return tuple((t, float(a) * math.pi + rng.uniform(-1e-12, 1e-12)
                  if rng.random() < 0.5 else a) for t, a in breakpoints)


def test_float_angles_near_exact_ones_change_nothing():
    """A closing loop or an arc set with exact angles gives the same
    Maslov index and winding number, or the same lines that are not
    transverse, when any of its angles are floats within 1e-12 rad of
    the exact ones."""
    rng = random.Random(30)
    for _ in range(300):
        start = _exact_angle(rng)
        middle = [_exact_angle(rng) for _ in range(rng.randint(0, 3))]
        angles = [start, *middle, start + 2 * rng.randint(-4, 4)]
        exact = tuple(enumerate(angles))
        convention = rng.choice(("dx^dy", "dy^dx"))
        want = maslov_of_loop(LagrangianLineLoop(exact, convention))
        for _ in range(4):
            mixed = LagrangianLineLoop(_some_as_floats(exact, rng),
                                       convention)
            assert maslov_of_loop(mixed) == want, mixed
    outcomes = set()
    for _ in range(600):
        arcs = [tuple(enumerate(_exact_angle(rng)
                                for _ in range(rng.randint(2, 3))))
                for _ in range(rng.randint(1, 4))]
        boundary = BoundaryData(len(arcs), rng.random() < 0.5)
        want = _outcome(lambda: winding_number(_arcs(arcs), boundary))
        outcomes.add(type(want))
        for _ in range(4):
            mixed = _arcs(_some_as_floats(arc, rng) for arc in arcs)
            assert _outcome(lambda: winding_number(mixed, boundary)) == \
                want, mixed
    assert outcomes == {int, tuple}  # transverse sets and others


def test_constant_loop():
    assert maslov_of_loop(_loop(0, "dy^dx")) == 0
    assert maslov_of_loop(_loop(0, "dx^dy")) == 0


def test_half_turn_loop_degree():
    # a line half-turn traverses the line circle once
    assert loop_degree(_loop(2)) == 1
    assert loop_degree(_loop(4)) == 2
    assert loop_degree(_loop(-2)) == -1


def test_not_closed():
    with pytest.raises(errors.NotClosed):
        loop_degree(_loop(1))
    with pytest.raises(errors.NotClosed):
        loop_degree(LagrangianLineLoop(((0.0, 0.0), (1.0, 1.0))))


def test_convention_flip_on_fixtures():
    for total in (-4, -2, 0, 2, 4, 6):
        plus = maslov_of_loop(_loop(total, "dx^dy"))
        minus = maslov_of_loop(_loop(total, "dy^dx"))
        assert plus == -minus


def test_additivity_random_concatenations():
    rng = random.Random(3)
    for _ in range(50):
        pieces = []
        for _ in range(rng.randint(2, 5)):
            total = 2 * rng.randint(-3, 3)
            base = F(rng.randint(0, 6))
            breakpoints = [(F(0), base)]
            acc = base
            for _ in range(rng.randint(1, 3)):
                acc += F(total) / 3
                breakpoints.append((F(len(breakpoints)), acc))
            breakpoints.append((F(len(breakpoints)), base + total))
            pieces.append(LagrangianLineLoop(tuple(breakpoints), "dy^dx"))
        concat = []
        for piece in pieces:
            shiftbase = concat[-1][1] - piece.breakpoints[0][1] \
                if concat else F(0)
            for t, a in piece.breakpoints:
                concat.append((F(len(concat)), a + shiftbase))
        whole = LagrangianLineLoop(tuple(concat), "dy^dx")
        assert maslov_of_loop(whole) == sum(maslov_of_loop(p)
                                            for p in pieces)


def test_figure_boundary_pattern():
    arcs, boundary = figure_boundary_arcs()
    assert winding_number(arcs, boundary) == 0


def test_winding_simple_closed_pattern():
    # two flat arcs at transverse lines: two sigma = -pi/2 homotopies
    arcs = [
        LagrangianLineLoop(((F(0), F(0)), (F(1), F(0)))),
        LagrangianLineLoop(((F(0), F(1)), (F(1), F(1)))),
    ]
    assert winding_number(arcs, BoundaryData(punctures=2)) == -1
    assert winding_number(arcs, BoundaryData(punctures=2,
                                             positive_range=True)) == 1


def test_winding_requires_transverse_asymptotics():
    arcs = [
        LagrangianLineLoop(((F(0), F(0)), (F(1), F(0)))),
        LagrangianLineLoop(((F(0), F(0)), (F(1), F(2)))),
    ]
    with pytest.raises(errors.NotClosed):
        winding_number(arcs, BoundaryData(punctures=2))


def test_winding_puncture_count_checked():
    arcs, _ = figure_boundary_arcs()
    with pytest.raises(errors.MismatchedPuncture):
        winding_number(arcs, BoundaryData(punctures=2))


_NOT_TRANSVERSE = (errors.NotClosed,
                   "asymptotic lines at puncture 0 are not transverse")
# keyed by where the exact angle past the float range meets a float one
_PAST_THE_FLOAT_RANGE = {
    "breakpoint 0": (errors.NotClosed, "total angle change about "
                     "-10^400*pi is not a multiple of pi"),
    "breakpoint 1": (errors.NotClosed, "total angle change about "
                     "-10^400*pi is not a multiple of pi"),
    # the angle change 0.5/pi - 10**400, the jump back, 10**400 - 0.5/pi
    # = 2 - 0.5/pi mod 2, and sigma's -2: -10**400 half-turns
    "arc 0 breakpoint 0": -5 * 10**399,
    # 10**400 is even, so each of these jumps is 0 mod 2
    "the angle change of arc 0": _NOT_TRANSVERSE,
    "arc 0 breakpoint 1": _NOT_TRANSVERSE,
    "the jump at puncture 0": _NOT_TRANSVERSE,
}


@pytest.mark.parametrize("call,where", [
    (lambda: maslov_of_loop(LagrangianLineLoop(((0, 10**400), (1, 0.5)))),
     "breakpoint 0"),
    (lambda: maslov_of_loop(LagrangianLineLoop(((0, 0.5), (1, -10**400)))),
     "breakpoint 1"),
    (lambda: winding_number(_arcs([((0, 10**400), (1, 0.5))]),
                            BoundaryData(1)),
     "arc 0 breakpoint 0"),
    # an int arc beside a float arc: its angle change, then its endpoint
    (lambda: winding_number(_arcs([((0, 0), (1, 10**400)),
                                   ((0, 0.0), (1, 0.5))]), BoundaryData(2)),
     "the angle change of arc 0"),
    (lambda: winding_number(_arcs([((0, 10**400), (1, 10**400)),
                                   ((0, 0.0), (1, 0.5))]), BoundaryData(2)),
     "arc 0 breakpoint 1"),
    # two exact endpoints whose difference meets a float arc
    (lambda: winding_number(_arcs([((0, 0), (1, 0)),
                                   ((0, 10**400), (1, 10**400)),
                                   ((0, 0.0), (1, 0.5))]), BoundaryData(3)),
     "the jump at puncture 0"),
])
def test_exact_angle_beyond_float_range_names_the_breakpoint(call, where):
    """An exact angle past the float range beside a float angle is
    computed exactly; where names the angle, change or jump at which the
    two meet, and a NotClosed message gives the magnitude of a total
    that no float holds."""
    assert _outcome(call) == _PAST_THE_FLOAT_RANGE[where]


def test_huge_exact_angles_stay_exact():
    # without a float angle nothing is converted
    assert maslov_of_loop(LagrangianLineLoop(((0, 10**400),
                                              (1, 10**400 + 4)))) == 2
    def arcs(shift):
        return _arcs([((0, shift), (1, shift + 1)),
                      ((0, shift + 2), (1, shift + 3))])
    assert winding_number(arcs(10**400), BoundaryData(2)) == \
        winding_number(arcs(0), BoundaryData(2)) == 0


@pytest.mark.parametrize("angle", (math.inf, -math.inf, math.nan))
@pytest.mark.parametrize("call,where", [
    (lambda a: maslov_of_loop(LagrangianLineLoop(((0, 0.0), (1, a)))),
     "breakpoint 1"),
    (lambda a: loop_degree(LagrangianLineLoop(((0, a), (1, 0.0)))),
     "breakpoint 0"),
    # an interior breakpoint adds nothing to the angle change, and is
    # refused all the same
    (lambda a: loop_degree(LagrangianLineLoop(
        ((0, 0.0), (1, a), (2, 2 * math.pi)))), "breakpoint 1"),
    (lambda a: winding_number(_arcs([((0, 0.0), (1, 0.5)),
                                     ((0, 0.0), (1, a))]), BoundaryData(2)),
     "arc 1 breakpoint 1"),
    (lambda a: winding_number(
        [LagrangianLineLoop(((0, a), (1, 0.5)))], BoundaryData(1)),
     "arc 0 breakpoint 0"),
])
def test_non_finite_angle_names_the_breakpoint(call, where, angle):
    with pytest.raises(errors.AngleOutOfRange) as info:
        call(angle)
    assert str(info.value).startswith(where + ": the angle %r" % angle)


def test_angle_change_beyond_the_float_range():
    # finite angles whose change no float holds: an exact angle just
    # inside the float range against a float one, and five arcs whose
    # exact changes sum past it beside a float arc
    end = -1.7e308 / math.pi  # an even integer, as every float this size
    assert end == int(end) and int(end) % 2 == 0
    assert loop_degree(LagrangianLineLoop(((0, 17 * 10**307),
                                           (1, -1.7e308)))) == \
        (int(end) - 17 * 10**307) // 2
    s, h = 85 * 10**306, F(1, 2)
    arcs = [((0, 0), (1, 2 * s)), ((0, 2 * s + h), (1, 4 * s + h)),
            ((0, 4 * s + 1), (1, 2 * s + 1)), ((0, 2 * s + 3 * h), (1, 3 * h))]
    # 2 pi / pi and (pi / 2) / pi are exactly 2.0 and 0.5 in floats
    floats = arcs + [((0, 2 * math.pi), (1, 0.5 * math.pi))]
    exact = arcs + [((0, 2), (1, h))]
    assert winding_number(_arcs(floats), BoundaryData(5)) == \
        winding_number(_arcs(exact), BoundaryData(5)) == -4


def test_jump_beyond_the_float_range_names_the_puncture():
    # both arcs are finite and constant; the jump from the exact end of
    # arc 0 to the float start of arc 1 is an even integer past the
    # float range, so the lines at puncture 0 are not transverse
    arcs = [((0, 17 * 10**307), (1, 17 * 10**307)),
            ((0, -1.7e308), (1, -1.7e308))]
    with pytest.raises(errors.NotClosed,
                       match="^asymptotic lines at puncture 0 are not "
                             "transverse$"):
        winding_number(_arcs(arcs), BoundaryData(2))


def test_not_closed_past_the_int_to_str_limit():
    # the messages give the magnitude of an angle change whose digits
    # int -> str refuses to print
    with pytest.raises(errors.NotClosed, match=(
            r"^total angle change about 10\^4999\*pi is not a multiple")):
        maslov_of_loop(LagrangianLineLoop(((0, 0), (1, F(10**5000, 3)))))
    with pytest.raises(errors.NotClosed, match=r"about 10\^-5000\*pi"):
        loop_degree(LagrangianLineLoop(((0, 0), (1, F(1, 10**5000)))))
    with pytest.raises(errors.NotClosed, match=(
            r"^loop does not close: angle change about -10\^5000\*pi$")):
        loop_degree(LagrangianLineLoop(((0, 0), (1, -10**5000 - 1))))
    # small values print as before
    with pytest.raises(errors.NotClosed, match=r"change 1/2\*pi is not"):
        loop_degree(LagrangianLineLoop(((0, 0), (1, F(1, 2)))))
    with pytest.raises(errors.NotClosed, match=r"change 3\*pi$"):
        loop_degree(LagrangianLineLoop(((0, 0), (1, 3))))


def test_glued_index_pair():
    parts = [OperatorPart("a", 2, {"p": 2}), OperatorPart("b", 2, {"q": 2})]
    assert glued_index(parts, [("a", "p", "b", "q")]) == 2


def test_glued_index_mismatch():
    parts = [OperatorPart("a", 2, {"p": 2}), OperatorPart("b", 2, {"q": 1})]
    with pytest.raises(errors.MismatchedPuncture):
        glued_index(parts, [("a", "p", "b", "q")])
    with pytest.raises(errors.MismatchedPuncture):
        glued_index(parts, [("a", "x", "b", "q")])
    with pytest.raises(errors.MismatchedPuncture):
        glued_index(parts, [])


def test_glued_index_rejects_cycles_and_reuse():
    parts = [OperatorPart("a", 1, {"p": 1, "r": 1}),
             OperatorPart("b", 1, {"q": 1, "s": 1})]
    with pytest.raises(errors.MismatchedPuncture):
        glued_index(parts, [("a", "p", "b", "q"), ("a", "r", "b", "s")])
    with pytest.raises(errors.MismatchedPuncture):
        glued_index(parts + [OperatorPart("c", 1, {"t": 1})],
                    [("a", "p", "b", "q"), ("a", "p", "c", "t")])


def test_glued_index_tree_rebracketing():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(2, 5)
        parts = []
        for i in range(n):
            punctures = {"p%d" % j: rng.randint(0, 3)
                         for j in range(n)}
            parts.append(OperatorPart("part%d" % i,
                                      rng.randint(-3, 5), punctures))
        # random tree: attach each node to an earlier one
        gluings = []
        used = set()
        for i in range(1, n):
            j = rng.randrange(i)
            # pick unused punctures with equal dimension
            for qa in parts[i].punctures:
                if (i, qa) in used:
                    continue
                for qb in parts[j].punctures:
                    if (j, qb) in used:
                        continue
                    if parts[i].punctures[qa] == parts[j].punctures[qb]:
                        gluings.append((parts[i].name, qa,
                                        parts[j].name, qb))
                        used.add((i, qa))
                        used.add((j, qb))
                        break
                else:
                    continue
                break
        if len(gluings) != n - 1:
            continue
        total = glued_index(parts, gluings)
        expected = sum(p.index for p in parts) - sum(
            parts[int(g[0][4:])].punctures[g[1]] for g in gluings)
        assert total == expected
        # gluing order is immaterial
        shuffled = gluings[:]
        rng.shuffle(shuffled)
        assert glued_index(parts, shuffled) == total


def test_triangle_system():
    assert solve_triangle_system(3, -1, -1) == (2, 2)
    # the two defining equations hold
    n, mu, mu_prime = 3, -1, -1
    index_h, index_v = solve_triangle_system(n, mu, mu_prime)
    assert index_v + 3 * index_h - 3 * (n - 1) == n + mu
    assert 2 * index_h - (n - 1) == n + mu_prime


def test_vanishing_triangle_index_general_dimension():
    assert vanishing_triangle_index(4) == {"n": 3, "index_H": 2,
                                           "index_V": 2}
    for k in range(1, 8):
        result = vanishing_triangle_index(2 * k)
        assert result["index_V"] == 2 * k - 2
    with pytest.raises(ValueError):
        vanishing_triangle_index(3)


@pytest.mark.parametrize("call,error,message", [
    (lambda: LagrangianLineLoop(((0, 0), (1, 2)), "dz^dw"),
     errors.UnknownConvention, "got 'dz^dw'"),
    (lambda: LagrangianLineLoop(((0, 0), (1, 2)), None),
     errors.UnknownConvention, "got None"),
    (lambda: solve_triangle_system(4.0, -1, -1),
     errors.InvalidIndexProblem, "n must be an int, got 4.0"),
    (lambda: solve_triangle_system("3", -1, -1),
     errors.InvalidIndexProblem, "n must be an int, got '3'"),
    (lambda: solve_triangle_system(3, -1.0, -1),
     errors.InvalidIndexProblem, "mu must be an int, got -1.0"),
    (lambda: solve_triangle_system(3, -1, F(-1)),
     errors.InvalidIndexProblem,
     "mu_prime must be an int, got Fraction(-1, 1)"),
    (lambda: vanishing_triangle_index(4.0),
     errors.InvalidIndexProblem, "base_dim must be an int, got 4.0"),
    (lambda: vanishing_triangle_index("4"),
     errors.InvalidIndexProblem, "base_dim must be an int, got '4'"),
], ids=("convention", "no-convention", "float-n", "str-n", "float-mu",
        "fraction-mu-prime", "float-base-dim", "str-base-dim"))
def test_malformed_arguments_raise_named_errors(call, error, message):
    """A convention other than dx^dy or dy^dx, and an index argument
    that is no int, raise a package error naming the value, never float
    or Fraction indices or a bare TypeError."""
    with pytest.raises(error, match="%s$" % re.escape(message)) as info:
        call()
    assert isinstance(info.value, errors.FukayaFlowError)
    assert isinstance(info.value, ValueError)
