import itertools
import random
from fractions import Fraction

import pytest

from pairstab.binaryforms import derivative, discriminant, form, resultant
from pairstab.koszul import (
    FiniteComplex,
    NotExactError,
    koszul_complex,
    koszul_resultant,
    torsion,
    weighted_euler_degree,
)


def _mx(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def test_single_map_torsion_is_det():
    c = FiniteComplex((2, 2), (_mx([[1, 2], [3, 4]]),))
    assert torsion(c) == -2


def test_empty_complex():
    assert torsion(FiniteComplex((), ())) == 1
    assert FiniteComplex((), ()).is_exact()


def test_three_term_unit():
    c = FiniteComplex((1, 2, 1), (_mx([[1], [1]]), _mx([[1, -1]])))
    assert c.is_exact()
    assert torsion(c) == 1


def test_complex_validation():
    with pytest.raises(ValueError):
        FiniteComplex((2, 2), ())  # missing map
    with pytest.raises(ValueError):
        FiniteComplex((2, 2), (_mx([[1, 2]]),))  # wrong shape
    with pytest.raises(ValueError):
        # d o d != 0
        FiniteComplex((1, 1, 1), (_mx([[1]]), _mx([[1]])))


def test_inexact_raises():
    c = FiniteComplex((2, 2), (_mx([[1, 2], [2, 4]]),))
    assert not c.is_exact()
    with pytest.raises(NotExactError):
        torsion(c)


def test_koszul_shapes():
    f = form([-1, 0, 1], 2)
    g = form([-4, 0, 1], 2)
    assert koszul_complex(f, g, 3).dims == (4, 4)
    assert koszul_complex(f, g, 4).dims == (1, 6, 5)


def test_koszul_guards():
    f = form([-1, 0, 1], 2)
    with pytest.raises(ValueError):
        koszul_complex(f, form([1, 1], 1), 3)  # unequal degrees
    with pytest.raises(ValueError):
        koszul_complex(f, f, 2)  # m below 2d-1
    with pytest.raises(ValueError):
        koszul_complex(form([2], 0), form([3], 0), 1)


def test_koszul_resultant_frozen():
    f = form([-1, 0, 1], 2)
    g = form([-4, 0, 1], 2)
    assert resultant(f, g) == 9
    for m in (3, 4, 5):
        assert koszul_resultant(f, g, m) == 9
    f1, g1 = form([0, 1], 1), form([1, 1], 1)
    assert resultant(f1, g1) == -1
    assert koszul_resultant(f1, g1, 1) == -1
    assert koszul_resultant(f1, g1, 2) == 1


def test_koszul_common_root_inexact():
    f = form([-1, 0, 1], 2)
    with pytest.raises(NotExactError):
        koszul_resultant(f, f, 4)


def test_koszul_exact_iff_resultant_nonzero():
    coeff_sets = itertools.product((-1, 0, 1), repeat=2)
    forms = [form([a, b, 1], 2) for a, b in coeff_sets]
    for f in forms:
        for g in forms:
            c = koszul_complex(f, g, 4)
            assert c.is_exact() == (resultant(f, g) != 0)


def test_koszul_matches_sylvester_up_to_sign_random():
    rng = random.Random(3)
    for _ in range(20):
        d = rng.randint(1, 3)
        f = form([rng.randint(-4, 4) for _ in range(d)] + [rng.randint(1, 4)], d)
        g = form([rng.randint(-4, 4) for _ in range(d)] + [rng.randint(1, 4)], d)
        r = resultant(f, g)
        m = rng.randint(2 * d - 1, 2 * d + 2)
        if r == 0:
            with pytest.raises(NotExactError):
                koszul_resultant(f, g, m)
        else:
            assert abs(koszul_resultant(f, g, m)) == abs(r)


def test_torsion_multiplicative_on_direct_sums():
    a = _mx([[1, 2], [3, 4]])
    b = _mx([[5]])
    block = _mx([[1, 2, 0], [3, 4, 0], [0, 0, 5]])
    ca = FiniteComplex((2, 2), (a,))
    cb = FiniteComplex((1, 1), (b,))
    cab = FiniteComplex((3, 3), (block,))
    assert abs(torsion(cab)) == abs(torsion(ca) * torsion(cb))


def test_torsion_sign_stable_under_row_permutation():
    f = form([-1, 0, 1], 2)
    g = form([-4, 0, 1], 2)
    c = koszul_complex(f, g, 4)
    base = torsion(c)
    rng = random.Random(9)
    for _ in range(10):
        perm = list(range(c.dims[-1]))
        rng.shuffle(perm)
        last = tuple(c.maps[-1][i] for i in perm)
        shuffled = FiniteComplex(c.dims, c.maps[:-1] + (last,))
        assert abs(torsion(shuffled)) == abs(base)


def test_squared_torsion_is_polynomial_in_coefficients():
    # |R|^2 has degree 2d in the coefficients of f along any line; probe
    # with finite differences of (torsion)^2, which quotient the sign.
    d = 2
    g = form([-4, 0, 1], 2)

    def val(t):
        # f = z^2 + (2 + t); R(f, g) = (6 + t)^2 stays nonzero for t >= 0
        f = form([2 + t, 0, 1], d)
        return koszul_resultant(f, g, 4) ** 2

    n = 2 * d  # R is degree d in the f-coefficients, so R^2 has degree 2d
    samples = [val(t) for t in range(n + 2)]
    for step in range(n + 1):
        if step == n:
            assert any(samples), "probe degenerated below the expected degree"
        samples = [b - a for a, b in zip(samples, samples[1:])]
    assert samples == [0]


def test_weighted_euler_degree():
    assert weighted_euler_degree([0, 4]) == 4
    assert weighted_euler_degree([0, 2]) == 2
    assert weighted_euler_degree([1, 2, 1]) == 0
    assert weighted_euler_degree([]) == 0


# ---------------------------------------------------------------------------
# the Fraction elimination that the integer kernel replaced, kept as oracle


def _oracle_rank(m):
    rows = [list(r) for r in m]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _oracle_det(m):
    n = len(m)
    rows = [list(r) for r in m]
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for i in range(col + 1, n):
            if rows[i][col] != 0:
                f = rows[i][col] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    return det


def _oracle_first_invertible_cols(m, rows, r):
    ncols = len(m[0]) if m else 0
    kept = []
    for j in range(ncols):
        if len(kept) == r:
            break
        trial = kept + [j]
        sub = tuple(tuple(m[a][b] for b in trial) for a in rows)
        if _oracle_rank(sub) == len(trial):
            kept.append(j)
    assert len(kept) == r
    return tuple(kept)


def _oracle_composes_to_zero(maps):
    for a, b in zip(maps[1:], maps):
        for row in a:
            for j in range(len(b[0]) if b else 0):
                if sum(row[k] * b[k][j] for k in range(len(b))) != 0:
                    return False
    return True


def _oracle_is_exact(dims, ranks):
    for i, d in enumerate(dims):
        left = ranks[i - 1] if i > 0 else 0
        right = ranks[i] if i < len(ranks) else 0
        if left + right != d:
            return False
    return True


def _oracle_torsion(dims, maps, ranks):
    k = len(maps)
    result = Fraction(1)
    rows = tuple(range(dims[k])) if dims else ()
    for i in range(k - 1, -1, -1):
        m = maps[i]
        cols = _oracle_first_invertible_cols(m, rows, ranks[i])
        minor = _oracle_det(tuple(tuple(m[a][b] for b in cols) for a in rows))
        result *= minor if (k - 1 - i) % 2 == 0 else 1 / minor
        rows = tuple(j for j in range(dims[i]) if j not in set(cols))
    assert not rows
    return result


def _oracle_det_fraction(rows):
    n = len(rows)
    a = [row[:] for row in rows]
    out = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            out = -out
        out *= a[col][col]
        inv = a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] / inv
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return out


def _oracle_resultant(P, Q):
    m, n = P.degree, Q.degree
    size = m + n
    pdesc = list(reversed(P.coeffs))
    qdesc = list(reversed(Q.coeffs))
    rows = [[Fraction(0)] * i + qdesc + [Fraction(0)] * (size - i - len(qdesc)) for i in range(m)]
    rows += [[Fraction(0)] * i + pdesc + [Fraction(0)] * (size - i - len(pdesc)) for i in range(n)]
    return _oracle_det_fraction(rows)


# ---------------------------------------------------------------------------
# pinned-seed agreement of the integer kernel with the oracle


def _rand_q(rng, rational, lo=-4, hi=4):
    num = rng.randint(lo, hi)
    return Fraction(num, rng.randint(1, 5)) if rational else Fraction(num)


def _rand_coeffs(rng, d, rational):
    cs = [_rand_q(rng, rational) for _ in range(d + 1)]
    if rng.random() < 0.85 and cs[-1] == 0:
        cs[-1] = Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3) if rational else 1)
    if not any(cs):
        cs[0] = Fraction(1)
    return cs


def _times_linear(cs, r):
    # coefficients of (z - r) * p, low to high
    return [-r * cs[0]] + [cs[i - 1] - r * cs[i] for i in range(1, len(cs))] + [cs[-1]]


def _koszul_case(rng, rational, shared):
    d = rng.randint(1, 3)
    m = rng.randint(2 * d - 1, 2 * d + 1)
    if shared:
        r = _rand_q(rng, rational, -3, 3)
        f = form(_times_linear(_rand_coeffs(rng, d - 1, rational), r), d)
        g = form(_times_linear(_rand_coeffs(rng, d - 1, rational), r), d)
    else:
        f = form(_rand_coeffs(rng, d, rational), d)
        g = form(_rand_coeffs(rng, d, rational), d)
    c = koszul_complex(f, g, m)
    return c.dims, [[list(row) for row in mp] for mp in c.maps]


def _conjugate(rng, dims, maps):
    """Random rational elementary basis changes x -> E x on random terms:
    rows of the incoming map by E, columns of the outgoing one by E^-1."""
    for _ in range(rng.randint(1, 6)):
        j = rng.randrange(len(dims))
        n = dims[j]
        if n == 0:
            continue
        into = maps[j - 1] if j > 0 else None
        out = maps[j] if j < len(maps) else None
        a, b = rng.randrange(n), rng.randrange(n)
        op = rng.randrange(3)
        if op == 0 and a != b:
            t = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
            if into is not None:
                into[b] = [x + t * y for x, y in zip(into[b], into[a])]
            if out is not None:
                for row in out:
                    row[a] -= t * row[b]
        elif op == 1:
            s = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
            if into is not None:
                into[a] = [x * s for x in into[a]]
            if out is not None:
                for row in out:
                    row[a] /= s
        else:
            if into is not None:
                into[a], into[b] = into[b], into[a]
            if out is not None:
                for row in out:
                    row[a], row[b] = row[b], row[a]
    return dims, maps


def _single_map_case(rng):
    """One n x k map: square (half of them singular), or one column more or
    fewer, so that exactness fails at the source or at the target."""
    n = rng.randint(1, 5)
    k = n + rng.choice((0, 0, 0, 1, -1))
    rational = rng.random() < 0.5
    m = [[_rand_q(rng, rational, -3, 3) for _ in range(k)] for _ in range(n)]
    if n == k and rng.random() < 0.5:
        # last row a combination of the others, or zero
        coef = [_rand_q(rng, rational, -2, 2) for _ in range(n - 1)]
        m[-1] = [sum((c * m[i][j] for i, c in enumerate(coef)), Fraction(0)) for j in range(k)]
    return (k, n), [m]


def _perturb(rng, dims, maps):
    """One entry of one map moved, so the maps usually stop composing to zero."""
    nonempty = [i for i, mp in enumerate(maps) if mp and mp[0]]
    i = rng.choice(nonempty)
    mp = maps[i]
    r, c = rng.randrange(len(mp)), rng.randrange(len(mp[0]))
    mp[r][c] += Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3))
    return dims, maps


def _check_against_oracle(dims, maps):
    maps = tuple(tuple(map(tuple, mp)) for mp in maps)
    if not _oracle_composes_to_zero(maps):
        with pytest.raises(ValueError, match="compose to zero"):
            FiniteComplex(tuple(dims), maps)
        return "not-a-complex"
    c = FiniteComplex(tuple(dims), maps)
    ranks = tuple(_oracle_rank(mp) for mp in c.maps)
    assert c.ranks() == ranks
    exact = _oracle_is_exact(c.dims, ranks)
    assert c.is_exact() == exact
    if not exact:
        with pytest.raises(NotExactError):
            torsion(c)
        return "inexact"
    assert torsion(c) == _oracle_torsion(c.dims, c.maps, ranks)
    return "exact"


def test_integer_kernel_matches_fraction_oracle_on_complexes():
    rng = random.Random(20240)
    kinds = ("koszul-int", "koszul-rational", "shared-root", "conjugated", "single-map")
    seen = {}
    for i in range(1500):
        kind = kinds[i % len(kinds)]
        if kind == "single-map":
            dims, maps = _single_map_case(rng)
        elif kind == "conjugated":
            base = _koszul_case(rng, rng.random() < 0.5, rng.random() < 0.3)
            dims, maps = _conjugate(rng, *base)
        else:
            dims, maps = _koszul_case(rng, kind == "koszul-rational", kind == "shared-root")
        outcome = _check_against_oracle(dims, maps)
        seen[kind, outcome] = seen.get((kind, outcome), 0) + 1
        if len(maps) > 1 and i % 3 == 0:
            outcome = _check_against_oracle(*_perturb(rng, dims, maps))
            seen["perturbed", outcome] = seen.get(("perturbed", outcome), 0) + 1
    assert sum(seen.values()) >= 1500
    # pairs of random forms rarely share a root: a few inexact ones suffice
    assert seen.get(("koszul-int", "inexact"), 0) >= 5, seen
    for key in (
        ("koszul-int", "exact"),
        ("koszul-rational", "exact"),
        ("shared-root", "inexact"),
        ("conjugated", "exact"),
        ("conjugated", "inexact"),
        ("single-map", "exact"),
        ("single-map", "inexact"),
        ("perturbed", "not-a-complex"),
    ):
        assert seen.get(key, 0) >= 20, (key, seen)


def test_sylvester_resultant_matches_fraction_oracle():
    rng = random.Random(20241)
    zero = nonzero = discs = 0
    for i in range(1000):
        rational = i % 2 == 1
        dp, dq = rng.randint(0, 5), rng.randint(0, 5)
        P = form(_rand_coeffs(rng, dp, rational), dp)
        Q = form(_rand_coeffs(rng, dq, rational), dq)
        if i % 5 == 0 and dp and dq:
            r = _rand_q(rng, rational, -3, 3)
            P = form(_times_linear(_rand_coeffs(rng, dp - 1, rational), r), dp)
            Q = form(_times_linear(_rand_coeffs(rng, dq - 1, rational), r), dq)
        value = resultant(P, Q)
        assert value == _oracle_resultant(P, Q)
        zero += value == 0
        nonzero += value != 0
        if dp >= 2 and P.coeffs[dp] != 0:
            assert discriminant(P) == _oracle_resultant(P, derivative(P))
            discs += 1
    assert zero >= 100 and nonzero >= 500 and discs >= 300, (zero, nonzero, discs)
