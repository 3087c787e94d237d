import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairstab import _poly, binaryforms
from pairstab.binaryforms import (
    INFINITY,
    OrderViolation,
    OrdProfile,
    chow_polytope_vertices,
    disc_newton_polytope_matches,
    disc_polytope_vertices,
    discriminant,
    form,
    hyperdisc_degree,
    normalize_pair_degrees,
    ord_profile,
    rational_roots,
    resultant,
    scaled_containment_check,
    sl2_order_violation,
    sl2_pair_nss,
    squarefree_decomposition,
    symbolic_discriminant,
)


def test_form_padding_and_degrees():
    f = form([1, 2], 3)
    assert f.coeffs == (1, 2, 0, 0)
    assert f.affine_degree == 1
    assert f.ord_infinity == 2


def test_form_rejects_zero():
    with pytest.raises(ValueError):
        form([0, 0])


def test_resultant_linear_pair():
    assert resultant(form([-1, 1]), form([-2, 1])) == 1


def test_resultant_even_quadratics():
    f, g = form([-1, 0, 1]), form([-4, 0, 1])
    assert resultant(f, g) == 9
    assert resultant(g, f) == 9


def test_resultant_shared_root():
    assert resultant(form([-1, 1]), form([1, -2, 1])) == 0


def test_resultant_antisymmetry_sign():
    f, g = form([1, 1]), form([-2, 0, 1])  # degrees 1, 2
    assert resultant(f, g) == (-1) ** (1 * 2) * resultant(g, f)
    a, b = form([3, 1]), form([5, 1])
    assert resultant(a, b) == -resultant(b, a)


def test_resultant_empty_degrees():
    assert resultant(form([7], 0), form([3], 0)) == 1


def test_discriminant_quadratic_example():
    # matches -a2 (a1^2 - 4 a0 a2) on a fixed case
    a0, a1, a2 = 2, 7, 3
    f = form([a0, a1, a2])
    assert discriminant(f) == -a2 * (a1 * a1 - 4 * a0 * a2)


def test_discriminant_depressed_cubic():
    # z^3 + p z + q -> 4 p^3 + 27 q^2 in this normalization
    p, q = 5, 2
    f = form([q, p, 0, 1])
    assert discriminant(f) == 4 * p**3 + 27 * q**2


def test_discriminant_detects_repeated_root():
    f = form([1, -2, 1])  # (z-1)^2
    assert discriminant(f) == 0


def test_discriminant_requires_degree_two():
    with pytest.raises(ValueError):
        discriminant(form([1, 1]))


def test_discriminant_requires_top_coefficient():
    with pytest.raises(ValueError):
        discriminant(form([1, 1], 2))


def test_squarefree_decomposition():
    # z^2 (z - 1)
    f = [Fraction(c) for c in [0, 0, -1, 1]]
    out = squarefree_decomposition(f)
    got = {(tuple(fac), m) for fac, m in out}
    assert got == {((0, 1), 2), ((-1, 1), 1)}


def test_ord_profile_infinity():
    f = form([0, 1], 4)  # z declared as degree 4
    prof = ord_profile(f)
    assert prof.infinity_mult() == 3
    assert prof.degree == 4


def test_sl2_pair_cases():
    assert not sl2_pair_nss(form([1]), form([0, 0, 1]))
    assert sl2_pair_nss(form([-1, 1]), form([0, -1, 0, 1]))
    assert sl2_pair_nss(form([1]), form([1, 0, 1]))
    assert not sl2_pair_nss(form([0, 1]), form([4, 0, -4, 0, 1]))
    assert not sl2_pair_nss(form([0, 0, 1]), form([0, 1]))
    assert sl2_pair_nss(form([1, 1], 2), form([1, 1], 2))


def test_sl2_degree_d_minus_one_always_unstable():
    # the half-integer bound (d-e)/2 = 1/2 cannot absorb any root of g
    for d in (2, 3, 4, 5):
        g = form([1] + [0] * (d - 1) + [1])
        assert not sl2_pair_nss(form([1], d - 1), g)
        assert not sl2_pair_nss(form([1, 1], d - 1), g)


def test_sl2_equal_degree_iff_same_root_classes():
    f = form([0, 1])       # z
    g = form([0, 2])       # 2z, same class
    assert sl2_pair_nss(f, g)
    h = form([1, 1])       # z + 1
    assert not sl2_pair_nss(f, h)


def test_order_violation_payloads():
    v = sl2_order_violation(form([1]), form([0, 0, 1]))
    assert v.kind == "root-class"
    assert v.bound == 1 and v.g_value == 2 and v.f_value == 0
    assert v.factor == (0, 1)

    v = sl2_order_violation(form([0, 1]), form([4, 0, -4, 0, 1]))
    assert v.factor == (-2, 0, 1)

    v = sl2_order_violation(form([0, 0, 1]), form([0, 1]))
    assert v.kind == "degree"

    v = sl2_order_violation(form([1], 0), form([1], 3))
    assert v is not None and v.kind == "infinity"


def test_rational_roots():
    assert rational_roots(form([0, -4, 0, 1])) == [-2, 0, 2]
    assert rational_roots(form([1, 0, 1])) == []
    assert rational_roots(form([-1, 2], 1)) == [Fraction(1, 2)]


def test_chow_vertices_small():
    assert set(chow_polytope_vertices(2)) == {(1, 2, 1), (2, 0, 2)}
    assert len(chow_polytope_vertices(3)) == 4


def test_disc_vertices_small():
    assert set(disc_polytope_vertices(2)) == {(0, 2, 0), (1, 0, 1)}
    assert set(disc_polytope_vertices(3)) == {
        (0, 2, 2, 0),
        (0, 3, 0, 1),
        (1, 0, 3, 0),
        (2, 0, 0, 2),
    }


def test_vertex_counts_match_subset_enumeration():
    for d in (2, 3, 4, 5):
        assert len(chow_polytope_vertices(d)) == 2 ** (d - 1)


def test_scaled_containment_small_degrees():
    for d in (2, 3, 4):
        assert scaled_containment_check(d)


def test_symbolic_discriminant_quadratic():
    # the function reports det/a2; multiplying the factor back gives
    # -a2 (a1^2 - 4 a0 a2) exactly
    got = symbolic_discriminant(2)
    a0 = _poly.variable(3, 0)
    a1 = _poly.variable(3, 1)
    a2 = _poly.variable(3, 2)
    assert got == _poly.sub(_poly.mul(_poly.const(3, 4), _poly.mul(a0, a2)), _poly.mul(a1, a1))
    with_factor = _poly.mul(a2, got)
    expected = _poly.neg(
        _poly.mul(a2, _poly.sub(_poly.mul(a1, a1), _poly.mul(_poly.const(3, 4), _poly.mul(a0, a2))))
    )
    assert with_factor == expected


def test_symbolic_newton_polytope_matches():
    assert disc_newton_polytope_matches(2)
    assert disc_newton_polytope_matches(3)


def test_hyperdisc_degree_line():
    # the n = 1 case collapses to the classical 2d - 2
    assert hyperdisc_degree(1, 3, 2) == 2 * 3 - 2
    assert hyperdisc_degree(1, 5, 2) == 2 * 5 - 2


def test_hyperdisc_degree_guards():
    with pytest.raises(ValueError):
        hyperdisc_degree(1, 1, 5)
    with pytest.raises(ValueError):
        hyperdisc_degree(1, 2, 10)


def test_hyperdisc_divisibility_on_geometric_inputs():
    rng = random.Random(0)
    for _ in range(40):
        n = rng.randint(1, 4)
        d = rng.randint(2, 9)
        dmu = n * rng.randint(1, (n + 1) * d - 1)
        _, _, r = normalize_pair_degrees(n, d, dmu)
        assert r % n == 0 and r % (n + 1) == 0


def test_normalize_pair_degrees():
    assert normalize_pair_degrees(1, 2, 2) == (4, 2, 8)
    assert normalize_pair_degrees(1, 3, 2) == (6, 4, 24)


monic_roots = st.lists(st.integers(-4, 4), min_size=1, max_size=4)


def _from_roots(roots, lead=1):
    coeffs = [Fraction(lead)]
    for r in roots:
        coeffs = [0] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] = coeffs[i] - r * coeffs[i + 1]
    return form(coeffs)


@settings(deadline=None, max_examples=60)
@given(monic_roots, monic_roots)
def test_resultant_product_formula(ra, rb):
    f = _from_roots(ra)
    g = _from_roots(rb)
    # evaluate f at every root of g; lead(g)^deg f picks up the remaining factor
    expected = Fraction(1)
    for b in rb:
        expected *= sum(c * Fraction(b) ** i for i, c in enumerate(f.coeffs))
    assert resultant(f, g) == expected


@settings(deadline=None, max_examples=40)
@given(monic_roots, monic_roots, monic_roots)
def test_resultant_multiplicative_in_second_slot(ra, rb, rc):
    f = _from_roots(ra)
    g, h = _from_roots(rb), _from_roots(rc)
    gh = _from_roots(rb + rc)
    assert resultant(f, gh) == resultant(f, g) * resultant(f, h)


@settings(deadline=None, max_examples=50)
@given(monic_roots)
def test_discriminant_zero_iff_repeated_root(roots):
    f = _from_roots(roots)
    if f.degree < 2:
        return
    assert (discriminant(f) == 0) == (len(set(roots)) < len(roots))


@settings(deadline=None, max_examples=40)
@given(monic_roots, st.integers(1, 5))
def test_sl2_criterion_scale_invariant(roots, c):
    g = _from_roots(roots)
    f = form([1])
    scaled = form([c * x for x in g.coeffs])
    assert sl2_pair_nss(f, g) == sl2_pair_nss(f, scaled)


@settings(deadline=None, max_examples=50)
@given(monic_roots)
def test_ord_profile_accounts_degree(roots):
    f = _from_roots(roots)
    prof = ord_profile(f)
    total = prof.infinity_mult()
    for fac, m in prof.affine_entries():
        total += (len(fac) - 1) * m
    assert total == f.degree


# ---------------------------------------------------------------------------
# the integer Yun decomposition against the Fraction one it replaced


def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _monic(p):
    if not p:
        return p
    lead = p[-1]
    return [c / lead for c in p]


def _divmod(p, q):
    q = _trim(q[:])
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = _trim(p[:])
    quot = [Fraction(0)] * max(0, len(rem) - len(q) + 1)
    while rem and len(rem) >= len(q):
        shift = len(rem) - len(q)
        factor = rem[-1] / q[-1]
        quot[shift] = factor
        for i, c in enumerate(q):
            rem[shift + i] -= factor * c
        _trim(rem)
    return _trim(quot), rem


def _gcd(p, q):
    a, b = _trim(p[:]), _trim(q[:])
    while b:
        a, b = b, _divmod(a, b)[1]
    return _monic(a)


def _deriv(p):
    return _trim([i * c for i, c in enumerate(p)][1:])


def _squarefree_decomposition_fraction(p):
    """The Fraction ``squarefree_decomposition``, kept verbatim."""
    p = _monic(_trim(p[:]))
    if len(p) <= 1:
        return []
    out = []
    a = _gcd(p, _deriv(p))
    b = _divmod(p, a)[0]
    c = _divmod(_deriv(p), a)[0]
    d = _trim([x - y for x, y in itertools.zip_longest(c, _deriv(b), fillvalue=Fraction(0))])
    i = 1
    while len(b) > 1:
        g = _gcd(b, d) if d else _monic(b)
        if len(g) > 1:
            out.append((g, i))
        b = _divmod(b, g)[0]
        c = _divmod(d, g)[0] if d else []
        d = _trim(
            [x - y for x, y in itertools.zip_longest(c, _deriv(b), fillvalue=Fraction(0))]
        )
        i += 1
    return out


def _ord_profile_fraction(f):
    """``ord_profile`` on the Fraction decomposition."""
    entries = [
        (tuple(fac), mult)
        for fac, mult in _squarefree_decomposition_fraction(list(f.affine()))
    ]
    if f.ord_infinity > 0:
        entries.append((INFINITY, f.ord_infinity))
    return OrdProfile(f.degree, tuple(entries))


def _sl2_order_violation_fraction(f, g):
    """The Fraction ``sl2_order_violation``, kept verbatim but for the
    profile and helper names."""
    e, d = f.degree, g.degree
    bound = Fraction(d - e, 2)
    if e > d:
        return OrderViolation("degree", bound, d, e)
    if g.ord_infinity - f.ord_infinity > bound:
        return OrderViolation("infinity", bound, g.ord_infinity, f.ord_infinity)
    f_entries = _ord_profile_fraction(f).affine_entries()
    for g_fac, j in _ord_profile_fraction(g).affine_entries():
        if j <= bound:
            continue
        remaining = list(g_fac)
        for f_fac, k in f_entries:
            if len(remaining) <= 1:
                break
            common = _gcd(remaining, list(f_fac))
            if len(common) > 1:
                if j - k > bound:
                    return OrderViolation("root-class", bound, j, k, tuple(common))
                remaining = _divmod(remaining, common)[0]
        if len(remaining) > 1 and j > bound:
            return OrderViolation("root-class", bound, j, 0, tuple(remaining))
    return None


def _times(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


# irreducible over Q, constant coefficient first
_IRREDUCIBLE = ((1, 0, 1), (-2, 0, 1), (1, 1, 1), (-3, 0, 2), (5, 2, 3))


def _factored_poly(rng, budget):
    """A rational polynomial of degree at most ``budget``: a rational scale
    (content and denominators) times factors with multiplicities up to 6,
    linear ones with rational roots, irreducible quadratics and random
    quadratics, which may split or repeat a root; sometimes padded with a
    zero above the top coefficient."""
    p = [1]
    for _ in range(rng.randint(0, 3)):
        r = rng.random()
        if r < 0.5:
            fac = [rng.randint(-4, 4), rng.choice((1, 1, 2, 3))]
        elif r < 0.75:
            fac = rng.choice(_IRREDUCIBLE)
        else:
            fac = [rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(1, 3)]
        for _ in range(min(rng.randint(1, 6), (budget - len(p) + 1) // (len(fac) - 1))):
            p = _times(p, fac)
    scale = Fraction(rng.choice((-6, -3, -2, -1, 1, 2, 4, 9)), rng.choice((1, 2, 3, 5)))
    return [scale * c for c in p] + [Fraction(0)] * (rng.random() < 0.1)


def test_integer_yun_matches_fraction_yun():
    rng = random.Random(1976)
    mults, sizes = set(), set()
    for k in range(2_000):
        p = _factored_poly(rng, 7) if k % 50 else [Fraction(0)] * (k % 3)
        got = squarefree_decomposition(p)
        assert repr(got) == repr(_squarefree_decomposition_fraction(p))
        mults.update(m for _, m in got)
        sizes.update(len(fac) for fac, _ in got)
        sizes.add(len(_trim(p[:])))
    # zero, constants and linear forms; factors of degree 1-4, multiplicity 1-6
    assert {0, 1, 2} <= sizes and {2, 3, 4, 5} <= sizes
    assert set(range(1, 7)) <= mults


def test_integer_order_violation_matches_fraction_one():
    # f and g share the factors of a common part, so root classes meet
    rng = random.Random(1971)
    kinds = {}
    for _ in range(1_000):
        common = _trim(_factored_poly(rng, 2))
        forms = []
        for power in (1, rng.randint(1, 2)):
            p = common
            for _ in range(power - 1):
                p = _times(p, common)
            p = _trim(_times(p, _factored_poly(rng, 2)))
            forms.append(form(p, len(p) - 1 + rng.choice((0, 0, 0, 1, 2))))
        f, g = forms if rng.random() < 0.9 else forms[::-1]
        got = sl2_order_violation(f, g)
        assert repr(got) == repr(_sl2_order_violation_fraction(f, g))
        kind = got and got.kind + ("-0" if got.kind == "root-class" and not got.f_value else "")
        kinds[kind] = kinds.get(kind, 0) + 1
    # every kind of verdict, root classes with and without f vanishing there
    want = ("degree", "infinity", "root-class", "root-class-0", None)
    assert min(kinds.get(k, 0) for k in want) >= 20, kinds


# ---------------------------------------------------------------------------
# the fraction-free Bareiss expansion of the symbolic discriminant, verbatim,
# as the oracle for the direct Sylvester expansion that replaced it


def _lead(p):
    e = max(p)
    return e, p[e]


def _divexact(p, q):
    """Exact quotient p/q; raises if the division leaves a remainder."""
    if not q:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = dict(p)
    out = {}
    qe, qc = _lead(q)
    while rem:
        re, rc = _lead(rem)
        exp = tuple(a - b for a, b in zip(re, qe))
        if any(x < 0 for x in exp) or rc % qc:
            raise ArithmeticError("inexact polynomial division")
        t = {exp: rc // qc}
        out = _poly.add(out, t)
        rem = _poly.sub(rem, _poly.mul(t, q))
    return out


def _bareiss_det(matrix, nvars):
    """Determinant of a square polynomial matrix, fraction-free.

    Classic two-step condensation: every intermediate division is exact over
    the integers, so no rational coefficients ever appear.
    """
    n = len(matrix)
    if n == 0:
        return _poly.const(nvars, 1)
    a = [[dict(matrix[i][j]) for j in range(n)] for i in range(n)]
    sign = 1
    prev = _poly.const(nvars, 1)
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((r for r in range(k + 1, n) if a[r][k]), None)
            if swap is None:
                return {}
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = _poly.sub(_poly.mul(a[i][j], a[k][k]), _poly.mul(a[i][k], a[k][j]))
                a[i][j] = _divexact(num, prev) if num else {}
            a[i][k] = {}
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return det if sign == 1 else _poly.neg(det)


def _symbolic_discriminant_bareiss(d):
    if not 2 <= d <= 4:
        raise ValueError("symbolic expansion capped at 2 <= d <= 4")
    nv = d + 1
    pdesc = [_poly.variable(nv, i) for i in range(d, -1, -1)]
    qdesc = [
        _poly.mul(_poly.const(nv, i), _poly.variable(nv, i))
        for i in range(d, 0, -1)
    ]
    size = 2 * d - 1
    rows = []
    for i in range(d):
        rows.append(
            [_poly.const(nv, 0)] * i
            + qdesc
            + [_poly.const(nv, 0)] * (size - i - len(qdesc))
        )
    for i in range(d - 1):
        rows.append(
            [_poly.const(nv, 0)] * i
            + pdesc
            + [_poly.const(nv, 0)] * (size - i - len(pdesc))
        )
    det = _bareiss_det(rows, nv)
    return _poly.div_by_variable(det, d)


def test_symbolic_discriminant_matches_bareiss_oracle():
    for d in (2, 3, 4):
        got = symbolic_discriminant(d)
        assert sorted(got.items()) == sorted(_symbolic_discriminant_bareiss(d).items())


def _monomial_matrix(rng, n, nvars):
    """n x n entries, each zero or one monomial with a small coefficient;
    sometimes a row repeats another or a column is zeroed."""
    rows = [
        [
            {}
            if rng.random() < 0.35
            else {tuple(rng.randint(0, 2) for _ in range(nvars)): rng.choice((-3, -2, -1, 1, 2, 3))}
            for _ in range(n)
        ]
        for _ in range(n)
    ]
    shape = rng.random() if n > 1 else 1.0
    if shape < 0.15:
        rows[rng.randrange(1, n)] = list(rows[0])
    elif shape < 0.3:
        col = rng.randrange(n)
        for row in rows:
            row[col] = {}
    return rows, shape


def test_leibniz_det_matches_bareiss_det():
    rng = random.Random(1968)
    repeated = zero_col = nonzero = 0
    for k in range(400):
        n, nvars = k % 7, rng.randint(1, 3)
        rows, shape = _monomial_matrix(rng, n, nvars)
        got = binaryforms._leibniz_det(rows, nvars)
        assert sorted(got.items()) == sorted(_bareiss_det(rows, nvars).items())
        repeated += shape < 0.15
        zero_col += 0.15 <= shape < 0.3
        nonzero += bool(got)
    assert repeated >= 30 and zero_col >= 30 and nonzero >= 150


def test_symbolic_discriminant_evaluates_to_numeric_discriminant():
    # a_d times the expansion is the Sylvester determinant of the form, so it
    # must agree with the numeric resultant(P, P') through the shared rows
    rng = random.Random(1841)
    polys = {d: symbolic_discriminant(d) for d in (2, 3, 4)}
    zeros = 0
    for k in range(360):
        d = 2 + k % 3
        coeffs = [rng.randint(-2, 2) for _ in range(d)] + [rng.choice((-3, -2, -1, 1, 2, 3))]
        value = sum(
            c * math.prod(a**e for a, e in zip(coeffs, exp)) for exp, c in polys[d].items()
        )
        expected = discriminant(form(coeffs))
        assert coeffs[d] * value == expected
        zeros += expected == 0
    assert zeros >= 20


def test_leading_coefficient_division_rejects_term_without_it(monkeypatch):
    det = binaryforms._leibniz_det
    monkeypatch.setattr(
        binaryforms, "_leibniz_det", lambda rows, nv: _poly.add(det(rows, nv), {(2, 0, 0): 1})
    )
    with pytest.raises(ArithmeticError):
        symbolic_discriminant(2)
