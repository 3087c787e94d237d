"""The semistable-pair engine.

A pair is two nonzero vectors in modules over the same SL(N+1).  The engine
computes one-parameter-subgroup weights, the generalized Futaki pairing,
fixed-torus numerical checks with exact destabilizing witnesses, a
conjugate-sweep semi-decision over all maximal tori, characteristics of
unstable directions, and restricted automorphism characters.

Verdict semantics are honest: ``Unstable`` always stores enough data to be
rechecked (and is rechecked, exactly, before being returned, whenever it
carries a witness); ``NotRefuted`` counts the tori that were tested and
claims nothing more; ``ProvenSemistable`` is reserved for exact deciders.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Iterable, Iterator, Optional, Sequence, Union

from . import _linalg, binaryforms
from .lattice import (
    Cocharacter,
    HeightZeroError,
    SeparatingFunctional,
    Weight,
    WitnessError,
    contains,
    hull,
    member,
    min_norm_point,
    pairing,
)
from .rep import (
    ElementaryProduct,
    Matrix,
    Sym,
    Trivial,
    WeightedVector,
    image_supports,
    int_vector,
    matrix_action,
    weight_polytope,
)


@dataclass(frozen=True)
class Pair:
    """Two nonzero vectors over the same group rank."""

    v: WeightedVector
    w: WeightedVector

    def __post_init__(self) -> None:
        if self.v.module.N != self.w.module.N:
            raise ValueError("pair members must share the group rank")

    @property
    def N(self) -> int:
        return self.v.module.N


def weight_1ps(v: WeightedVector, u: Cocharacter | Sequence[int]) -> int:
    """Minimum pairing of the support against the cocharacter.

    This is the exponent of the leading term of the orbit through the
    one-parameter subgroup: the unique q such that t^(-q) u(t).v has a
    nonzero limit as t goes to 0.  Raw integer weights are used; the value
    only depends on the weight classes because cocharacters are traceless.
    """
    uu = u if isinstance(u, Cocharacter) else Cocharacter(tuple(u))
    return min(pairing(wt, uu) for wt in v.support())


def futaki_gen(p: Pair, u: Cocharacter | Sequence[int]) -> int:
    """weight_1ps of w minus weight_1ps of v."""
    return weight_1ps(p.w, u) - weight_1ps(p.v, u)


# ---------------------------------------------------------------------------
# fixed-torus check


@dataclass(frozen=True)
class FixedTorusResult:
    ok: bool
    witness: Optional[Cocharacter] = None
    futaki: Optional[int] = None
    separator: Optional[SeparatingFunctional] = None

    def __bool__(self) -> bool:
        return self.ok


def _witness_from_separator(sep: SeparatingFunctional, n: int) -> Cocharacter:
    """Integer trace-zero cocharacter from a rational separating functional.

    The functional acts on traceless representatives, so subtracting its
    mean changes nothing there; clearing denominators preserves the strict
    sign.  Negation turns "large on the inner point" into "small", which is
    the direction the minimum-weight pairing rewards.
    """
    g = [-c for c in sep.coeffs]
    mean = sum(g) / n
    return Cocharacter(tuple(_linalg.primitive([c - mean for c in g])))


def nss_fixed_torus(p: Pair) -> FixedTorusResult:
    """Weight-polytope containment N(v) inside N(w) at the diagonal torus.

    On failure the result carries an integer cocharacter with strictly
    positive futaki_gen, built from the LP separating functional and
    verified exactly before being returned.
    """
    return _supports_test(p.v.support(), p.w.support())


def _supports_test(vs: Sequence, ws: Sequence) -> FixedTorusResult:
    """``nss_fixed_torus`` on the supports vs of v and ws of w, all it reads."""
    outer = hull([Weight(w).traceless() for w in ws])
    # the least inner point is a vertex of N(v); most refutations come
    # there, before N(v) is built
    inner = [Weight(w).traceless() for w in vs]
    sep = member(outer, min(inner)).separator or contains(outer, hull(inner)).separator
    if sep is None:
        return FixedTorusResult(True)
    u = _witness_from_separator(sep, len(vs[0]))
    val = min(pairing(wt, u) for wt in ws) - min(pairing(wt, u) for wt in vs)
    if val <= 0:
        raise WitnessError("separator produced a non-positive witness")
    return FixedTorusResult(False, u, val, sep)


# ---------------------------------------------------------------------------
# verdicts and the conjugate sweep


@dataclass(frozen=True)
class Unstable:
    """Refuted: some maximal torus sees a polytope violation.

    When ``witness`` is present, futaki_gen on the conjugated pair equals
    ``futaki`` and is strictly positive; ``conjugator`` is the group element
    carrying the diagonal torus to the refuting one (identity when the
    diagonal torus itself refutes).  The exact binary-form decider can also
    refute through a root class with no rational representative; such
    verdicts carry no witness, only a fixed sentence in ``detail``
    (``binaryforms.sl2_order_violation`` names the violating class).
    """

    conjugator: Optional[Matrix]
    witness: Optional[Cocharacter]
    futaki: Optional[int]
    detail: str = ""

    status = "unstable"


@dataclass(frozen=True)
class NotRefuted:
    tori_tested: int

    status = "not-refuted"


@dataclass(frozen=True)
class ProvenSemistable:
    method: str

    status = "proven-semistable"


Verdict = Union[Unstable, NotRefuted, ProvenSemistable]


def identity_matrix(n: int) -> Matrix:
    return _fraction_matrix([[int(i == j) for j in range(n)] for i in range(n)])


def _fraction_matrix(sigma: Sequence[Sequence]) -> Matrix:
    return tuple([_linalg.fractions(row) for row in sigma])


def _int_conjugator(rng: random.Random, n: int) -> ElementaryProduct:
    """Product of 3 to 6 elementary matrices with entries in [-3, 3]."""
    mat = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(3, 6)):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        # right-multiply by I + c E_ij
        for r in range(n):
            mat[r][j] += c * mat[r][i]
    return ElementaryProduct(mat)


def random_conjugator(rng: random.Random, n: int) -> Matrix:
    """``_int_conjugator``'s draw as a ``Fraction`` matrix."""
    return _fraction_matrix(_int_conjugator(rng, n))


def conjugate_pair(p: Pair, sigma: Sequence[Sequence]) -> Pair:
    return Pair(matrix_action(sigma, p.v), matrix_action(sigma, p.w))


def _as_binary_form(v: WeightedVector) -> Optional[binaryforms.BinaryForm]:
    shape = v.module.shape
    if v.module.N != 1:
        return None
    if isinstance(shape, Trivial):
        return binaryforms.form([v.coeffs[0][1]], degree=0)
    if isinstance(shape, Sym):
        coeffs = [Fraction(0)] * (shape.degree + 1)
        for key, c in v.coeffs:
            coeffs[key[0]] = c
        return binaryforms.form(coeffs, degree=shape.degree)
    return None


def _sl2_root_conjugators(
    f: binaryforms.BinaryForm, g: binaryforms.BinaryForm
) -> Iterator[Matrix]:
    """The identity, the flip, and the shears taking each rational root to 0."""
    one, zero = Fraction(1), Fraction(0)
    yield identity_matrix(2)
    yield ((zero, -one), (one, zero))
    roots = set(binaryforms.rational_roots(g)) | set(binaryforms.rational_roots(f))
    for r in sorted(roots):
        yield ((one, zero), (r, one))


def _sl2_refutation_conjugators(
    f: binaryforms.BinaryForm, g: binaryforms.BinaryForm, rng: random.Random
) -> Iterator[Matrix]:
    """Candidate conjugators aimed at the destabilizing root classes.

    A violating root must be mapped exactly onto 0 or infinity before the
    diagonal torus can see it, so after the identity and the flip, rational
    roots of either form pick targeted Moebius conjugators; six shears and
    24 random elementary products mop up the generic cases (support widening
    when degrees mismatch).  Each is made only when the sweep reaches it.
    """
    one, zero = Fraction(1), Fraction(0)
    yield from _sl2_root_conjugators(f, g)
    for c in (1, -1, 2, -2, 3, -3):
        yield ((one, zero), (Fraction(c), one))
    for _ in range(24):
        yield random_conjugator(rng, 2)


def _order_refutes(f: list[int], g: list[int], sigma: Matrix) -> bool:
    """Whether the torus of sigma refutes the binary forms f, g (as integer
    lists).  ``matrix_action`` substitutes sigma^T x, so that torus fixes the
    points given by sigma's rows, and N(f) lies in N(g) there iff
    2 (ord g - ord f) <= deg g - deg f at both (deg f > deg g too)."""
    return any(
        2 * (binaryforms.order_at(g, *pt) - binaryforms.order_at(f, *pt)) > len(g) - len(f)
        for pt in map(_linalg.primitive, sigma)
    )


def _first_refutation(
    p: Pair, sigmas: Iterable[Sequence[Sequence]], contained: set
) -> Optional[Unstable]:
    """The first conjugator whose torus refutes the pair, or None.

    Each torus is tested on the supports that ``image_supports`` returns;
    ``contained`` collects the support pairs already shown contained.  The
    pair is cleared once; conjugators may hold ints, and the refuting one
    is returned in ``Fraction``.
    """
    vectors = (int_vector(p.v), int_vector(p.w))
    for sigma in sigmas:
        key = image_supports(sigma, vectors)
        if key not in contained:
            res = _supports_test(*key)
            if not res:
                return Unstable(_fraction_matrix(sigma), res.witness, res.futaki)
            contained.add(key)
    return None


def nss_check(p: Pair, samples: int = 64, seed: int = 0, decider: bool = True) -> Verdict:
    """Semi-decision over all maximal tori, deterministic under the seed.

    Binary-form pairs over SL(2) are decided exactly first.  An unstable
    one runs the polytope test, which builds the witness, only at the first
    candidate torus an integer order test flags (WitnessError if it does
    not refute there); with none flagged, the violating root class has no
    rational point.  Otherwise the fixed torus and ``samples`` random
    conjugates are tested in order and the first refutation wins;
    exhaustion is reported as NotRefuted, never as a proof.  Each torus is
    tested on the supports of the two images, each distinct pair once per
    call; ``NotRefuted.tori_tested`` still counts every torus swept.

    ``decider=False`` turns the exact binary-form shortcut and the order
    test off, so such pairs run the polytope test on the same candidates
    like any others: an independent oracle for testing the criterion.

    Raises:
        ValueError: samples is negative.
    """
    if samples < 0:
        raise ValueError("samples must be nonnegative")
    rng = random.Random(seed)
    f = _as_binary_form(p.v)
    g = _as_binary_form(p.w)
    if f is not None and g is not None:
        if not decider:
            swept = list(_sl2_refutation_conjugators(f, g, rng))
            return _first_refutation(p, swept, set()) or NotRefuted(len(swept))
        if binaryforms.sl2_pair_nss(f, g):
            return ProvenSemistable("sl2-binary-forms")
        # with deg f <= deg g the order test flags only roots of g, which
        # the root conjugators already reach when they are rational
        if f.degree <= g.degree:
            candidates = _sl2_root_conjugators(f, g)
        else:
            candidates = _sl2_refutation_conjugators(f, g, rng)
        fi, gi = _linalg.primitive(f.coeffs), _linalg.primitive(g.coeffs)
        sigma = next((s for s in candidates if _order_refutes(fi, gi, s)), None)
        if sigma is None:
            detail = "order criterion fails on a root class with no rational point"
            return Unstable(None, None, None, detail)
        res = _supports_test(*image_supports(sigma, (p.v, p.w)))
        if res:
            raise WitnessError("the order test flagged a torus that does not refute")
        return Unstable(sigma, res.witness, res.futaki)
    key = (p.v.support(), p.w.support())
    fixed = _supports_test(*key)
    if not fixed:
        return Unstable(identity_matrix(p.N + 1), fixed.witness, fixed.futaki)
    # integer conjugators: a refuting one leaves the sweep as Fractions
    sigmas = (_int_conjugator(rng, p.N + 1) for _ in range(samples))
    refuted = _first_refutation(p, sigmas, {key})
    return refuted or NotRefuted(samples + 1)


# ---------------------------------------------------------------------------
# characteristic of an unstable direction


@dataclass(frozen=True)
class Characteristic:
    """Minimal-distance data of a weight polytope missing the origin.

    chi_min is reported in the coordinates of the input support (the
    traceless minimizer plus the common coordinate mean); h is the
    normalized direction 2 chi / |chi|^2 on traceless representatives.
    """

    chi_min: tuple[Fraction, ...]
    chi_min_traceless: tuple[Fraction, ...]
    h: tuple[Fraction, ...]
    ht_sq: Fraction
    h_dominant: tuple[Fraction, ...]

    @property
    def ht(self) -> float:
        return sqrt(self.ht_sq)


def characteristic(v: WeightedVector) -> Characteristic:
    """Closest point of N(v) to the origin and the paired direction.

    Raises:
        HeightZeroError: the origin lies in the weight polytope.
        ValueError: the polytope dimension exceeds the exact solver bound.
    """
    P = weight_polytope(v)
    origin = (Fraction(0),) * P.ambient
    if member(P, origin):
        raise HeightZeroError("height zero: the weight polytope contains the origin")
    sums = {sum(wt) for wt in v.support()}
    if len(sums) != 1:
        raise AssertionError("module support with non-constant coordinate sum")
    shift = Fraction(next(iter(sums)), P.ambient)
    mn = min_norm_point(P)
    chi_t = mn.point
    chi_raw = tuple(c + shift for c in chi_t)
    h = tuple(2 * c / mn.norm_sq for c in chi_t)
    return Characteristic(
        chi_min=chi_raw,
        chi_min_traceless=chi_t,
        h=h,
        ht_sq=mn.norm_sq,
        h_dominant=tuple(sorted(h, reverse=True)),
    )


# ---------------------------------------------------------------------------
# automorphism characters on tori


@dataclass(frozen=True)
class TorusCharacter:
    """Difference character of a pair on a stabilizing torus.

    kind "cocharacters": values are additive integers, one per generator.
    kind "diagonal": values are multiplicative rationals, one per element.
    """

    kind: str
    values: tuple

    def is_zero(self) -> bool:
        neutral = 0 if self.kind == "cocharacters" else 1
        return all(v == neutral for v in self.values)


def _common_pairing(v: WeightedVector, u: Cocharacter) -> int:
    vals = {pairing(wt, u) for wt in v.support()}
    if len(vals) != 1:
        raise ValueError(
            "torus does not stabilize the line: support weights pair unequally"
        )
    return next(iter(vals))


def _character_value(v: WeightedVector, diag: Sequence[Fraction]) -> Fraction:
    vals = set()
    for wt in v.support():
        out = Fraction(1)
        for t, e in zip(diag, wt):
            out *= Fraction(t) ** e
        vals.add(out)
    if len(vals) != 1:
        raise ValueError(
            "torus does not stabilize the line: support weights pair unequally"
        )
    return next(iter(vals))


def futaki_character_torus(p: Pair, T: Sequence) -> TorusCharacter:
    """Difference character (w side minus v side) on a stabilizing torus.

    T is either a list of Cocharacters (a sublattice given by generators)
    or a list of diagonal determinant-one rational matrices.

    Raises:
        ValueError: an element fails to stabilize both lines, or a matrix
            is not diagonal with determinant one.
    """
    if not T:
        raise ValueError("empty torus data")
    if all(isinstance(t, Cocharacter) for t in T):
        values = tuple(
            _common_pairing(p.w, u) - _common_pairing(p.v, u) for u in T
        )
        return TorusCharacter("cocharacters", values)
    values = []
    for t in T:
        mat = [[Fraction(x) for x in row] for row in t]
        n = p.N + 1
        if len(mat) != n or any(len(row) != n for row in mat):
            raise ValueError("torus element has the wrong size")
        for i in range(n):
            for j in range(n):
                if i != j and mat[i][j] != 0:
                    raise ValueError("torus elements must be diagonal")
        diag = [mat[i][i] for i in range(n)]
        det = Fraction(1)
        for x in diag:
            det *= x
        if det != 1:
            raise ValueError("torus elements must have determinant one")
        values.append(_character_value(p.w, diag) / _character_value(p.v, diag))
    return TorusCharacter("diagonal", tuple(values))
