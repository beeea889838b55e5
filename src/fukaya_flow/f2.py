"""Bit-packed linear algebra over the two-element field.

Vectors are python ints; bit i is the coefficient of basis element i.
Reducer is the package's one Gaussian eliminator; rref, rank,
kernel_basis and reduce_vector all go through it.  Its one pivot
convention is the HIGHEST set bit of each row, so each relation
rewrites its last generator in terms of earlier ones and the canonical
basis keeps the earliest generators (a + b leaves {a} and sends b to a).
"""

from __future__ import annotations

from typing import Iterable, Optional


class Reducer:
    """Incremental Gaussian eliminator with combination tracking.

    Rows are numbered in the order they are added.  Each pivot row is
    stored with its combination: the bitmask of added row numbers whose
    sum it is.  mask has a bit set at each pivot position.
    """

    def __init__(self, rows: Iterable[int] = ()) -> None:
        self._pivots: dict[int, tuple[int, int]] = {}
        self.mask = 0
        self._count = 0
        for row in rows:
            self.add(row)

    def reduce(self, v: int) -> tuple[int, int]:
        """(residual, combo): v with every pivot bit cleared, and the
        added rows whose sum is v + residual.  The residual is the
        canonical representative of v modulo the span; it is zero
        exactly when v lies in the span."""
        combo = 0
        hits = v & self.mask
        while hits:
            # a pivot row has no bits above its pivot, so clearing the
            # pivots highest first never sets one already cleared
            row, row_combo = self._pivots[hits.bit_length() - 1]
            v ^= row
            combo ^= row_combo
            hits = v & self.mask
        return v, combo

    def add(self, v: int) -> tuple[int, int]:
        """Add v as the next row.  Returns (residual, combo) as for
        reduce, with the new row's own number set in combo; a zero
        residual means v depends on the rows before it."""
        v, combo = self.reduce(v)
        combo ^= 1 << self._count
        self._count += 1
        if v:
            p = v.bit_length() - 1
            self._pivots[p] = (v, combo)
            self.mask |= 1 << p
        return v, combo

    def express(self, v: int) -> Optional[int]:
        """The combination of added rows summing to v, or None if v is
        not in their span."""
        v, combo = self.reduce(v)
        return None if v else combo

    @property
    def rank(self) -> int:
        return len(self._pivots)


def rref(rows: Iterable[int] | Reducer) -> tuple[list[int], list[int]]:
    """Reduced row-echelon form with highest-bit pivots, of the rows or
    of the span of a Reducer, which is read and not eliminated again.

    Returns (reduced nonzero rows sorted by pivot, pivot indices).
    """
    red = rows if isinstance(rows, Reducer) else Reducer(rows)
    cols = sorted(red._pivots)
    # each pivot row minus its pivot, reduced, has no pivot bits left
    return [red.reduce(red._pivots[p][0] ^ (1 << p))[0] | (1 << p)
            for p in cols], cols


def reduce_vector(v: int, span: Reducer) -> int:
    """Canonical representative of v modulo the span of a Reducer."""
    return span.reduce(v)[0]


def rank(rows: Iterable[int]) -> int:
    return Reducer(rows).rank


def kernel_basis(columns: list[int]) -> list[int]:
    """Kernel of the linear map sending e_i to columns[i].

    Returns masks over the column indices whose combinations map to zero.
    """
    red = Reducer()
    kernel = []
    for c in columns:
        residual, combo = red.add(c)
        if residual == 0:
            kernel.append(combo)
    return kernel


def bits(v: int) -> list[int]:
    """Indices of set bits, ascending."""
    out = []
    while v:
        low = v & -v
        out.append(low.bit_length() - 1)
        v ^= low
    return out
