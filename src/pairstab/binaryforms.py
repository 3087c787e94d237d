"""Binary forms: resultants, discriminants, root-order profiles, the exact
SL(2) pair criterion, and the Chow/discriminant vertex polytopes.

A form of declared degree d is stored by its affine coefficients a_0..a_d
(a_i multiplies z^i); vanishing leading coefficients encode roots at the
point at infinity of the projective line.  All arithmetic is exact.

Resultant convention.  resultant(P, Q) with deg P = m, deg Q = n is the
determinant of the (m+n) x (m+n) matrix whose first m rows are the shifted
descending coefficients of Q and whose last n rows are those of P.  With
that row order the value is lead(Q)^m * prod P(beta) over the roots of Q,
and resultant(P, Q) = (-1)^(mn) resultant(Q, P).

Discriminant convention.  discriminant(P) = resultant(P, dP/dz) at degrees
(d, d-1).  Against the common normalization this satisfies
discriminant(P) = (-1)^(d(d-1)/2) * a_d * disc_textbook(P); for instance
d = 2 gives -a2*(a1^2 - 4*a0*a2) and the monic cubic z^3 + p*z + q gives
+(4*p^3 + 27*q^2).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import _linalg, _poly
from .lattice import contains, hull

Coeffs = tuple[Fraction, ...]


class InfinityPoint:
    """Marker for the point at infinity in an order profile."""

    _instance: Optional["InfinityPoint"] = None

    def __new__(cls) -> "InfinityPoint":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITY"


INFINITY = InfinityPoint()


@dataclass(frozen=True)
class BinaryForm:
    """Form of a declared degree with rational coefficients a_0..a_d."""

    degree: int
    coeffs: Coeffs

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        cs = _linalg.fractions(self.coeffs)
        if len(cs) > self.degree + 1:
            raise ValueError("more coefficients than the degree allows")
        cs = cs + (Fraction(0),) * (self.degree + 1 - len(cs))
        if all(c == 0 for c in cs):
            raise ValueError("the zero form is not allowed")
        object.__setattr__(self, "coeffs", cs)

    @property
    def affine_degree(self) -> int:
        return max(i for i, c in enumerate(self.coeffs) if c != 0)

    @property
    def ord_infinity(self) -> int:
        return self.degree - self.affine_degree

    def affine(self) -> Coeffs:
        """Trimmed affine coefficient list."""
        return self.coeffs[: self.affine_degree + 1]


def form(coeffs: Sequence, degree: Optional[int] = None) -> BinaryForm:
    cs = [Fraction(c) for c in coeffs]
    if degree is None:
        degree = len(cs) - 1 if cs else 0
    return BinaryForm(degree, tuple(cs))


# ---------------------------------------------------------------------------
# resultant and discriminant


def resultant(P: BinaryForm, Q: BinaryForm) -> Fraction:
    """Sylvester determinant at the declared degrees (see module docstring).

    Vanishing leading coefficients are legal; the matrix is built from the
    padded coefficient lists, which is the homogeneous convention.
    """
    return _linalg.det(_sylvester(P.coeffs[::-1], Q.coeffs[::-1], 0))


def _sylvester(pdesc: Sequence, qdesc: Sequence, zero) -> list[list]:
    """Sylvester rows of the module docstring from the descending coefficients
    of P and Q: deg P shifted copies of Q's, then deg Q shifted copies of P's,
    padded with ``zero``."""
    m, n = len(pdesc) - 1, len(qdesc) - 1
    rows = [[zero] * i + list(qdesc) + [zero] * (m - 1 - i) for i in range(m)]
    rows += [[zero] * i + list(pdesc) + [zero] * (n - 1 - i) for i in range(n)]
    return rows


def derivative(P: BinaryForm) -> BinaryForm:
    if P.degree < 1:
        raise ValueError("cannot differentiate a degree-0 form")
    return BinaryForm(
        P.degree - 1, tuple(i * P.coeffs[i] for i in range(1, P.degree + 1))
    )


def discriminant(P: BinaryForm) -> Fraction:
    """resultant(P, P') at degrees (d, d-1); requires a_d nonzero."""
    if P.degree < 2:
        raise ValueError("discriminant needs degree at least 2")
    if P.coeffs[P.degree] == 0:
        raise ValueError("leading coefficient must be nonzero")
    return resultant(P, derivative(P))


# ---------------------------------------------------------------------------
# dense univariate helpers (lists of ints, low to high): primitive pseudo-
# remainder gcds (Collins 1967, Brown 1971), exact quotients (Gauss's lemma)


def _primitive(p: Sequence[int]) -> list[int]:
    """p without trailing zeros, divided by its content."""
    while p and not p[-1]:
        p = p[:-1]
    g = math.gcd(*p) or 1
    return [c // g for c in p]


def _monic(p: list[int]) -> list[Fraction]:
    return [Fraction(c, p[-1]) for c in p]


def _deriv(p: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(p)][1:]


def _exquo(p: list[int], q: list[int]) -> list[int]:
    """p / q for a primitive divisor q of p; zero top coefficients of p stay."""
    r, out = p[:], []
    for shift in range(len(p) - len(q), -1, -1):
        c = r[shift + len(q) - 1] // q[-1]
        out.append(c)
        for i, x in enumerate(q):
            r[shift + i] -= c * x
    return out[::-1]


def _gcd(p: list[int], q: list[int]) -> list[int]:
    """Primitive gcd; a zero argument is an empty list."""
    a, b = _primitive(p), _primitive(q)
    while b:
        r = a
        while len(r) >= len(b):
            f, shift = r[-1], len(r) - len(b)
            r = [b[-1] * c for c in r[:-1]]
            for i, c in enumerate(b[:-1]):
                r[shift + i] -= f * c
        a, b = b, _primitive(r)
    return a


def _yun(p: Sequence) -> list[tuple[list[int], int]]:
    """Yun's algorithm (1976) on the rational polynomial p, in integers:
    primitive squarefree factors, whose monic forms are the unique ones."""
    b = _primitive(_linalg.primitive(p))
    if len(b) <= 1:
        return []
    a = _gcd(b, _deriv(b))
    b, c = _exquo(b, a), _exquo(_deriv(b), a)
    out, i = [], 1
    while len(b) > 1:
        d = [x - y for x, y in itertools.zip_longest(c, _deriv(b), fillvalue=0)]
        g = _gcd(b, d)
        if len(g) > 1:
            out.append((g, i))
        b, c = _exquo(b, g), _exquo(d, g)
        i += 1
    return out


def squarefree_decomposition(p: list[Fraction]) -> list[tuple[list[Fraction], int]]:
    """Yun's algorithm: monic squarefree factors with multiplicities."""
    return [(_monic(g), i) for g, i in _yun(p)]


def order_at(a: Sequence[int], p0: int, p1: int) -> int:
    """Order of the integer form sum a_i x0^i x1^(d-i) at the point (p0 : p1)
    of coprime integers ((r : 1) is z = r, (1 : 0) infinity): how often
    p1 x0 - p0 x1 divides it, by exact integer division (Gauss's lemma)."""
    if not p0:
        return next(i for i, c in enumerate(a) if c)
    k = 0
    while len(a) > 1:
        q, b = [], 0
        for c in a[:-1]:
            b, r = divmod(p1 * b - c, p0)
            if r:
                return k
            q.append(b)
        if a[-1] != p1 * b:
            return k
        a, k = q, k + 1
    return k


# ---------------------------------------------------------------------------
# order profiles and the SL(2) criterion


@dataclass(frozen=True)
class OrdProfile:
    """Squarefree factors with multiplicities, plus the order at infinity."""

    degree: int
    entries: tuple  # ((coeff tuple | INFINITY, multiplicity), ...)

    def __post_init__(self) -> None:
        total = 0
        for factor, mult in self.entries:
            if mult < 1:
                raise ValueError("multiplicities must be positive")
            if factor is INFINITY:
                total += mult
            else:
                total += (len(factor) - 1) * mult
        if total != self.degree:
            raise ValueError("multiplicities do not account for the degree")

    def infinity_mult(self) -> int:
        for factor, mult in self.entries:
            if factor is INFINITY:
                return mult
        return 0

    def affine_entries(self) -> list[tuple[tuple[Fraction, ...], int]]:
        return [(f, m) for f, m in self.entries if f is not INFINITY]


def ord_profile(f: BinaryForm) -> OrdProfile:
    """Exact root-class orders: Yun factors plus the multiplicity at infinity."""
    entries: list = [
        (tuple(fac), mult)
        for fac, mult in squarefree_decomposition(list(f.affine()))
    ]
    if f.ord_infinity > 0:
        entries.append((INFINITY, f.ord_infinity))
    return OrdProfile(f.degree, tuple(entries))


@dataclass(frozen=True)
class OrderViolation:
    """Evidence refuting the pair criterion, checkable by exact division.

    kind "degree": g_value, f_value are the declared degrees (e > d).
    kind "infinity": orders of g and f at the point at infinity.
    kind "root-class": orders along the squarefree factor in `factor`.
    """

    kind: str
    bound: Fraction
    g_value: int
    f_value: int
    factor: Optional[tuple[Fraction, ...]] = None


def sl2_order_violation(f: BinaryForm, g: BinaryForm) -> Optional[OrderViolation]:
    """First refutation of the order criterion for the pair, or None."""
    e, d = f.degree, g.degree
    bound = Fraction(d - e, 2)
    if e > d:
        return OrderViolation("degree", bound, d, e)
    if g.ord_infinity - f.ord_infinity > bound:
        return OrderViolation("infinity", bound, g.ord_infinity, f.ord_infinity)
    f_entries = _yun(f.affine())
    for g_fac, j in _yun(g.affine()):
        if j <= bound:
            continue
        remaining = g_fac
        for f_fac, k in f_entries:
            if len(remaining) <= 1:
                break
            common = _gcd(remaining, f_fac)
            if len(common) > 1:
                if j - k > bound:
                    return OrderViolation("root-class", bound, j, k, tuple(_monic(common)))
                remaining = _exquo(remaining, common)
        if len(remaining) > 1:
            return OrderViolation("root-class", bound, j, 0, tuple(_monic(remaining)))
    return None


def sl2_pair_nss(f: BinaryForm, g: BinaryForm) -> bool:
    """Exact pair criterion for binary forms of degrees (e, d).

    True iff e <= d and at every projective point the root order of g
    exceeds that of f by at most (d - e)/2.  Root classes never need to be
    split into algebraic points: gcds of squarefree factors compare orders
    for a whole class at once.
    """
    return sl2_order_violation(f, g) is None


def rational_roots(f: BinaryForm) -> list[Fraction]:
    """All rational affine roots, without multiplicity, exactly."""
    p = list(f.affine())
    roots = []
    if p and p[0] == 0:
        roots.append(Fraction(0))
        while p and p[0] == 0:
            p.pop(0)
    if len(p) <= 1:
        return sorted(roots)
    # integerize, then run the rational root test on leading/trailing divisors
    ints = _linalg.primitive(p)
    lead, trail = ints[-1], ints[0]
    for q in _divisors(abs(lead)):
        for pnum in _divisors(abs(trail)):
            for cand in (Fraction(pnum, q), Fraction(-pnum, q)):
                if cand in roots:
                    continue
                if order_at(ints, cand.numerator, cand.denominator):
                    roots.append(cand)
    return sorted(roots)


def _divisors(n: int) -> list[int]:
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


# ---------------------------------------------------------------------------
# Chow and discriminant polytopes


def chow_polytope_vertices(d: int) -> list[tuple[int, ...]]:
    """Vertices indexed by subsets S of {1, ..., d-1}.

    The empty set contributes d at the endpoints; a nonempty S = {i_1 < ... <
    i_k} padded with i_0 = 0, i_{k+1} = d contributes V(i_0) = i_1,
    V(i_{k+1}) = d - i_k, and V(i_j) = i_{j+1} - i_{j-1} in between.  Every
    vertex sums to 2d.
    """
    if d < 1:
        raise ValueError("degree must be at least 1")
    out = set()
    for r in range(d):
        for S in itertools.combinations(range(1, d), r):
            v = [0] * (d + 1)
            if not S:
                v[0] = v[d] = d
            else:
                idx = (0,) + S + (d,)
                v[0] = idx[1]
                v[d] = d - idx[-2]
                for j in range(1, len(idx) - 1):
                    v[idx[j]] = idx[j + 1] - idx[j - 1]
            out.add(tuple(v))
    return sorted(out)


def disc_polytope_vertices(d: int) -> list[tuple[int, ...]]:
    """Chow vertices minus one at each endpoint coordinate; sums are 2d-2."""
    if d < 2:
        raise ValueError("degree must be at least 2")
    out = []
    for v in chow_polytope_vertices(d):
        w = list(v)
        w[0] -= 1
        w[d] -= 1
        out.append(tuple(w))
    return sorted(set(out))


def scaled_containment_check(d: int) -> bool:
    """Exact check that (2d-2) times the Chow polytope sits inside 2d times
    the discriminant polytope, plus the per-vertex convex identity
    (2d-2)v = 2(d-1)(v - e0 - ed) + 2(d-1, 0, ..., 0, d-1)."""
    if d < 2:
        raise ValueError("degree must be at least 2")
    chow = chow_polytope_vertices(d)
    disc = disc_polytope_vertices(d)
    corner = tuple([d - 1] + [0] * (d - 1) + [d - 1])
    if corner not in disc:
        return False
    for v in chow:
        shifted = tuple(
            c - (1 if i in (0, d) else 0) for i, c in enumerate(v)
        )
        if shifted not in disc:
            return False
        left = tuple((2 * d - 2) * c for c in v)
        right = tuple(
            2 * (d - 1) * s + 2 * c for s, c in zip(shifted, corner)
        )
        if left != right:
            return False
    scaled_chow = hull([tuple((2 * d - 2) * c for c in v) for v in chow])
    scaled_disc = hull([tuple(2 * d * c for c in v) for v in disc])
    return bool(contains(scaled_disc, scaled_chow))


# ---------------------------------------------------------------------------
# symbolic discriminant (generic coefficients) for the Newton polytope check


def symbolic_discriminant(d: int) -> dict:
    """discriminant of the generic degree-d form, divided by its leading
    coefficient, as an integer polynomial in the d+1 coefficient variables.

    The Sylvester determinant is expanded directly: every entry is a_i,
    i*a_i or zero, so it is the signed sum over the permutations that avoid
    the zeros, with no division.  The result always carries the leading
    coefficient as a factor, and dividing it out is what makes the exponent
    hull match the vertex construction.  Capped at d <= 4.

    Raises:
        ArithmeticError: a term of the determinant lacks a_d.
    """
    if not 2 <= d <= 4:
        raise ValueError("symbolic expansion capped at 2 <= d <= 4")
    nv = d + 1
    pdesc = [_poly.variable(nv, i) for i in range(d, -1, -1)]
    qdesc = [
        _poly.mul(_poly.const(nv, i), _poly.variable(nv, i))
        for i in range(d, 0, -1)
    ]
    det = _leibniz_det(_sylvester(pdesc, qdesc, {}), nv)
    return _poly.div_by_variable(det, d)


def _leibniz_det(rows: list[list[dict]], nvars: int) -> dict:
    """Determinant of a square polynomial matrix by Leibniz's formula: the
    product of the entries picked by each permutation that avoids the zero
    entries, signed by the parity of its inversions."""
    out: dict = {}

    def extend(i: int, cols: tuple, term: dict) -> None:
        nonlocal out
        if i == len(rows):
            flips = sum(a > b for a, b in itertools.combinations(cols, 2))
            out = _poly.add(out, _poly.neg(term) if flips % 2 else term)
            return
        for j, entry in enumerate(rows[i]):
            if entry and j not in cols:
                extend(i + 1, cols + (j,), _poly.mul(term, entry))

    extend(0, (), _poly.const(nvars, 1))
    return out


def disc_newton_polytope_matches(d: int) -> bool:
    """Newton polytope of the expanded discriminant vs the vertex list."""
    expanded = symbolic_discriminant(d)
    newton = hull(expanded.keys())
    vertex_hull = hull(disc_polytope_vertices(d))
    return newton == vertex_hull


# ---------------------------------------------------------------------------
# degree bookkeeping for the resultant/discriminant pair in higher dimension


def hyperdisc_degree(n: int, d: int, dmu: int) -> int:
    """n(n+1)d - dmu; positive by precondition.

    Raises:
        ValueError: parameters out of range or nonpositive result.
    """
    if n < 1 or d < 2:
        raise ValueError("need n >= 1 and d >= 2")
    out = n * (n + 1) * d - dmu
    if out <= 0:
        raise ValueError("nonpositive degree: dmu too large")
    return out


def normalize_pair_degrees(n: int, d: int, dmu: int) -> tuple[int, int, int]:
    """(degR, degDelta, r) with degR = d(n+1) and r their product.

    When dmu is a multiple of n (true for the geometric quantities this
    models) r is divisible by both n and n+1.
    """
    deg_delta = hyperdisc_degree(n, d, dmu)
    deg_r = d * (n + 1)
    return deg_r, deg_delta, deg_r * deg_delta
