"""Torsion of finite exact complexes over Q, and the two-term complex built
from a pair of binary forms whose torsion recovers their resultant.

Matrices are tuples of rows of Fractions; the map d_i of a complex
0 -> C_0 -> C_1 -> ... -> C_k -> 0 has shape dim(C_{i+1}) x dim(C_i),
acting on column vectors.  Torsion is computed by the nested-minor rule:
walking from the last map backward, pick at each stage the lexicographically
first column subset whose minor on the still-unused rows is invertible; the
torsion is the alternating product of those minors.  The value is
basis-dependent only up to sign.

All elimination runs in integers (``_linalg``): each map's rows are cleared
of denominators and reduced by one fraction-free echelon, whose pivot
columns are that first invertible subset and whose signed last pivot is
the minor.
One elimination per map also decides exactness, so ``torsion`` needs no
rank pass of its own.  ``Fraction`` appears only at the API: the stored
maps and the returned torsion.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ._linalg import echelon, fractions, int_rows
from .binaryforms import BinaryForm

Matrix = tuple[tuple[Fraction, ...], ...]


class NotExactError(ValueError):
    pass


@dataclass(frozen=True)
class FiniteComplex:
    """Chain of Q-vector spaces with composable differentials squaring to zero."""

    dims: tuple[int, ...]
    maps: tuple[Matrix, ...]

    def __post_init__(self) -> None:
        dims = tuple([int(d) for d in self.dims])
        if any(d < 0 for d in dims):
            raise ValueError("negative dimension")
        if len(self.maps) != max(len(dims) - 1, 0):
            raise ValueError("need one map per adjacent pair of terms")
        maps = tuple([_as_matrix(m, dims[i + 1], dims[i]) for i, m in enumerate(self.maps)])
        for left, right in zip(maps[1:], maps):
            # rescaling rows of the left factor and columns of the right one
            # keeps a zero product zero and a nonzero one nonzero
            a, _ = int_rows(left)
            cols, _ = int_rows(zip(*right))
            if any(sum(map(operator.mul, row, c)) for row in a for c in cols):
                raise ValueError("differentials do not compose to zero")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "maps", maps)

    def ranks(self) -> tuple[int, ...]:
        return tuple(len(echelon(int_rows(m)[0])[0]) for m in self.maps)

    def is_exact(self) -> bool:
        """Exactness at every term, endpoints included."""
        r = self.ranks()
        for i, d in enumerate(self.dims):
            left = r[i - 1] if i > 0 else 0
            right = r[i] if i < len(r) else 0
            if left + right != d:
                return False
        return True


def _as_matrix(m: Sequence[Sequence], nrows: int, ncols: int) -> Matrix:
    out = tuple([fractions(row) for row in m])
    if len(out) != nrows or any(len(row) != ncols for row in out):
        raise ValueError("map shape does not match adjacent dimensions")
    return out


def torsion(c: FiniteComplex) -> Fraction:
    """Alternating product of nested minors; the last map contributes with
    exponent +1.  Deterministic given the bases: subsets are scanned in
    lexicographic order.

    Exactness is read off the same eliminations: im d_i lies in ker d_{i+1},
    which the projection onto the unused rows maps injectively, so the
    restricted rank of d_i reaches the row count exactly when the complex
    is exact at C_{i+1}; no row may be left over after d_0.

    Raises:
        NotExactError: the complex is not exact, so no torsion is defined.
    """
    num = den = 1
    # rows available to the map ending at each term; starts as all of C_k
    rows = list(range(c.dims[-1])) if c.dims else []
    for i in range(len(c.maps) - 1, -1, -1):
        m = c.maps[i]
        a, scale = int_rows(m[r] for r in rows)
        cols, minor = echelon(a)
        if len(cols) < len(rows):
            raise NotExactError("torsion undefined: complex is not exact")
        # the rational minor is minor / scale; every other map enters inverted
        if (len(c.maps) - 1 - i) % 2:
            minor, scale = scale, minor
        num, den = num * minor, den * scale
        used = set(cols)
        rows = [j for j in range(c.dims[i]) if j not in used]
    if rows:
        raise NotExactError("torsion undefined: complex is not exact")
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# the resultant complex of a pair of binary forms


def koszul_complex(f: BinaryForm, g: BinaryForm, m: int) -> FiniteComplex:
    """0 -> P_{m-2d} -> P_{m-d} + P_{m-d} -> P_m -> 0 with
    h |-> (-g h, f h) and (p, q) |-> f p + g q, where P_k is the space of
    polynomials of degree at most k (empty for k < 0).

    Preconditions: deg f == deg g == d >= 1 and m >= 2d - 1.
    """
    if f.degree != g.degree:
        raise ValueError("forms must have equal declared degree")
    d = f.degree
    if d < 1:
        raise ValueError("degree must be at least 1")
    m = int(m)
    if m < 2 * d - 1:
        raise ValueError("need m >= 2d - 1")
    dims = []
    maps = []
    mid = m - d + 1
    top = m - 2 * d + 1
    if top > 0:
        dims.append(top)
        b = [[Fraction(0)] * top for _ in range(2 * mid)]
        for c in range(top):
            for j, coeff in enumerate(g.coeffs):
                b[c + j][c] = -coeff
            for j, coeff in enumerate(f.coeffs):
                b[mid + c + j][c] = coeff
        maps.append(tuple([tuple(row) for row in b]))
    dims.append(2 * mid)
    a = [[Fraction(0)] * (2 * mid) for _ in range(m + 1)]
    for c in range(mid):
        for j, coeff in enumerate(f.coeffs):
            a[c + j][c] = coeff
        for j, coeff in enumerate(g.coeffs):
            a[c + j][mid + c] = coeff
    maps.append(tuple([tuple(row) for row in a]))
    dims.append(m + 1)
    return FiniteComplex(tuple(dims), tuple(maps))


def koszul_resultant(f: BinaryForm, g: BinaryForm, m: int) -> Fraction:
    """Torsion of the pair complex at width m.

    Raises:
        NotExactError: the complex is inexact, which for this complex means
            the resultant of the pair vanishes.
    """
    return torsion(koszul_complex(f, g, m))


def weighted_euler_degree(h0: Sequence[int]) -> int:
    """Alternating weighted sum sum_j (-1)^(j+1) j h0[j] of a dimension list."""
    return sum((-1) ** (j + 1) * j * int(v) for j, v in enumerate(h0))
