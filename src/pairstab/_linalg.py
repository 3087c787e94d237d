"""Exact linear algebra over Q, run in integers.

Rational rows are brought to integers once (``int_rows``); elimination then
runs in plain ``int`` by Bareiss's fraction-free rule (Bareiss 1968), where
every division is exact.  ``Fraction`` is built only for the values
returned, and from the values given at the API edge (``fractions``).

This is the package's one elimination and denominator-clearing kernel:

- ``koszul``: torsion (one ``echelon`` per map), ``ranks()`` and the
  ``d∘d = 0`` check;
- ``binaryforms``: the Sylvester resultant (``det``) and the integer
  polynomials of the rational root test and Yun's algorithm (``primitive``);
- ``rep``: the integer matrix and coefficients of ``matrix_action``
  (``int_rows``; ``int_vector`` clears a vector once for many actions), its
  determinant check and wedge minors (``echelon``), and the SL(3)
  contraction kernel (``nullspace``);
- ``lattice``: the phase-1 rows, the vertex table (all vertices over one
  common denominator), the queries and the separator checks
  (``int_rows``), the affine frame of the facet route and the frame of the
  hull route in dimension at most two (the ``echelon`` pivot columns of
  integer differences), the Gram rows adj(G) B and det G of the facet
  route (``cramer``), the KKT system of ``min_norm_point`` (``solve``),
  and the facet normals, one ``echelon`` per maximal minor, made
  ``primitive``;
- ``toric`` and ``pairs``: integer functionals and cocharacters cleared
  from rational separators, and the forms and points of the SL(2) order
  test (``primitive``); the coordinates that ``toric`` hands to the
  lattice facet normals are the ``echelon`` pivot columns of A.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence


def fractions(values: Iterable) -> tuple[Fraction, ...]:
    """The values as a tuple of ``Fraction``, keeping those already given.
    It is built from a list: CPython 3.11 builds tuple(<generator>) by
    shrinking a larger tuple, and the freed tuples pile up on the free lists
    until a full collection."""
    return tuple([c if type(c) is Fraction else Fraction(c) for c in values])


def int_rows(rows: Iterable[Sequence]) -> tuple[list[list[int]], int]:
    """Each rational row times the lcm of its denominators, as ints, and the
    product of those multipliers (a determinant of the integer rows is
    ``scale`` times the rational one).  For one row the multiplier is the
    row's least common denominator."""
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


def det(rows: Sequence[Sequence]) -> Fraction:
    """Determinant of a square rational matrix."""
    a, scale = int_rows(rows)
    return Fraction(echelon(a)[1], scale)


def solve(a: Sequence[Sequence], b: Sequence[Sequence]) -> Optional[list[list[Fraction]]]:
    """X with A X = B, for a square rational A and B with as many rows, or
    None when A is singular."""
    got = cramer(int_rows([list(ra) + list(rb) for ra, rb in zip(a, b)])[0], len(a))
    return None if got is None else [[Fraction(v, got[1]) for v in r] for r in got[0]]


def cramer(rows: list[list[int]], n: int) -> Optional[tuple[list[list[int]], int]]:
    """(D X, D) with A X = B, for integer rows [A | B] with A square of size
    n, or None when A is singular; the rows are eliminated in place.

    One echelon of the rows, then back substitution on the triangle: with D
    its last pivot, which is det A up to the sign of the row swaps, D times
    every entry of X is an integer (Cramer's rule), so each division is
    exact.
    """
    if echelon(rows)[0] != list(range(n)):
        return None
    d = rows[-1][n - 1] if n else 1
    dx: list[list[int]] = [[]] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        dx[i] = [
            (d * row[c] - sum(row[j] * dx[j][c - n] for j in range(i + 1, n))) // row[i]
            for c in range(n, len(row))
        ]
    return dx, d


def nullspace(rows: Sequence[Sequence]) -> list[list[Fraction]]:
    """Basis of the solutions of ``rows . x = 0``, one vector per column
    without a pivot: 1 there, 0 at the other such columns, and the pivot
    columns solved for.  This is the reduced-row-echelon basis."""
    a, _ = int_rows(rows)
    ncols = len(a[0])
    pivots, _ = echelon(a)
    free = [j for j in range(ncols) if j not in pivots]
    top = a[: len(pivots)]
    x = solve([[r[p] for p in pivots] for r in top], [[-r[f] for f in free] for r in top])
    basis = []
    for c, f in enumerate(free):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for p, xp in zip(pivots, x):
            vec[p] = xp[c]
        basis.append(vec)
    return basis


def primitive(values: Sequence) -> list[int]:
    """The rational vector times the positive factor that makes it a vector
    of coprime integers; a zero vector stays zero."""
    [ints], _ = int_rows([values])
    g = math.gcd(*ints) or 1
    return [v // g for v in ints]
