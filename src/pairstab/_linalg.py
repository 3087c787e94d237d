"""Fraction-free exact elimination on integer rows.

Rational rows are brought to integers once (``int_rows``); elimination then
runs in plain ``int`` by Bareiss's fraction-free rule (Bareiss 1968), where
every division is exact.  Callers build a ``Fraction`` only for the value
they return.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence


def int_rows(rows: Iterable[Sequence]) -> tuple[list[list[int]], int]:
    """Each rational row times the lcm of its denominators, as ints, and the
    product of those multipliers (a determinant of the integer rows is
    ``scale`` times the rational one)."""
    out = []
    scale = 1
    for row in rows:
        den = math.lcm(*[x.denominator for x in row])
        out.append([x.numerator * (den // x.denominator) for x in row])
        scale *= den
    return out, scale


def echelon(rows: list[list[int]]) -> tuple[list[int], int]:
    """Bareiss row echelon of integer rows, in place.

    Columns are scanned left to right; a column with no nonzero entry among
    the rows not yet pivoted is skipped.  After r pivots every remaining
    entry is an (r+1)-minor of the input, so each division by the previous
    pivot is exact.

    Returns:
        The pivot columns, which are the lexicographically first set of
        columns independent on these rows, and the determinant of the rows
        times the pivot columns when every row holds a pivot (0 otherwise).
    """
    n = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    sign = prev = 1
    r = 0
    for j in range(ncols):
        if r == n:
            break
        p = next((i for i in range(r, n) if rows[i][j]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            sign = -sign
        prow = rows[r]
        piv = prow[j]
        for i in range(r + 1, n):
            f = rows[i][j]
            rows[i] = [(v * piv - f * w) // prev for v, w in zip(rows[i], prow)]
        prev = piv
        pivots.append(j)
        r += 1
    return pivots, (sign * prev if r == n else 0)
