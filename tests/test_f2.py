"""The F2 eliminator and its front-ends on seeded random row sets."""

import random

import pytest

from fukaya_flow import f2


def _row_sets():
    rng = random.Random(41)
    for _ in range(200):
        width = rng.randint(1, 24)
        density = rng.choice((0.1, 0.3, 0.6))
        yield [sum(1 << j for j in range(width) if rng.random() < density)
               for _ in range(rng.randint(0, 30))]


ROW_SETS = list(_row_sets())


def _combine(rows, combo):
    v = 0
    for i in f2.bits(combo):
        v ^= rows[i]
    return v


@pytest.mark.parametrize("rows", ROW_SETS[:50] + [[], [0, 0], [3, 3, 1]])
def test_rref_is_reduced_and_spans_the_rows(rows):
    reduced, pivots = f2.rref(rows)
    assert pivots == sorted(pivots)
    assert len(reduced) == len(pivots)
    for row, p in zip(reduced, pivots):
        assert row.bit_length() - 1 == p
        assert sum((r >> p) & 1 for r in reduced) == 1
    span = f2.Reducer(reduced)
    assert all(f2.reduce_vector(row, span) == 0 for row in rows)
    assert f2.rank(rows) == len(reduced)


def test_rank_and_kernel_agree():
    for rows in ROW_SETS:
        kernel = f2.kernel_basis(rows)
        rank = f2.rank(rows)
        assert len(kernel) == len(rows) - rank
        assert all(combo and _combine(rows, combo) == 0 for combo in kernel)
        assert f2.rank(kernel) == len(kernel)


def test_reduce_gives_canonical_representative():
    rng = random.Random(43)
    for rows in ROW_SETS:
        span = f2.Reducer(rows)
        other = f2.Reducer(f2.rref(rows)[0][::-1])
        pivot_bits = sum(1 << p for p in f2.rref(rows)[1])
        for _ in range(5):
            v = rng.getrandbits(24)
            residual = f2.reduce_vector(v, span)
            assert residual & pivot_bits == 0
            assert residual == f2.reduce_vector(v, other)
            assert f2.reduce_vector(v ^ residual, span) == 0


def test_express_returns_the_summing_rows():
    rng = random.Random(47)
    for rows in ROW_SETS:
        span = f2.Reducer(rows)
        for _ in range(5):
            v = rng.getrandbits(24)
            combo = span.express(v)
            if f2.reduce_vector(v, span):
                assert combo is None
            else:
                assert _combine(rows, combo) == v


def test_add_reports_dependence():
    red = f2.Reducer()
    assert red.add(0b011) == (0b011, 0b001)
    assert red.add(0b110)[0] != 0
    residual, combo = red.add(0b101)
    assert residual == 0 and combo == 0b111
    assert red.rank == 2


def test_bits():
    assert f2.bits(0) == []
    assert f2.bits(0b101001) == [0, 3, 5]
    assert f2.bits(1 << 200) == [200]
