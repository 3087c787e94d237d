import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairstab import _linalg
from pairstab.lattice import contains, hull
from pairstab.pairs import _int_conjugator, random_conjugator
from pairstab.rep import (
    Module,
    Sym,
    Tensor,
    Trivial,
    Wedge,
    WeightedVector,
    attainable_polytopes,
    dominance_leq,
    image_supports,
    int_vector,
    matrix_action,
    parse_shape,
    shape_name,
    sl3_contraction_kernel,
    vector,
    weight_polytope,
    weyl_orbit_polytope,
)


def test_dimensions():
    assert Module(1, Sym(3)).dimension == 4
    assert Module(2, Wedge(2)).dimension == 3
    assert Module(2, Tensor((Sym(2), Wedge(2)))).dimension == 18
    assert Module(3, Trivial()).dimension == 1


def test_shape_name_roundtrip():
    for text in ("Sym(3)", "Wedge(2)", "Trivial", "Tensor(Sym(2),Wedge(2))"):
        assert shape_name(parse_shape(text)) == text


def test_weights_of_sym_basis():
    m = Module(1, Sym(2))
    assert m.weight_of((2, 0)) == (2, 0)
    assert m.weight_of((1, 1)) == (1, 1)


def test_wedge_weight():
    m = Module(2, Wedge(2))
    assert m.weight_of((0, 2)) == (1, 0, 1)


def test_vector_rejects_alien_key():
    m = Module(1, Sym(2))
    with pytest.raises(ValueError):
        vector(m, {(3, 0): 1})


def test_vector_rejects_zero():
    m = Module(1, Sym(2))
    with pytest.raises(ValueError):
        vector(m, {(2, 0): 0})


def test_action_column_convention():
    # upper-triangular curve sending e1 to t*e0 + (1/t)*e1
    m = Module(1, Sym(3))
    v = vector(m, {(2, 1): 1})
    t = Fraction(3)
    sigma = ((t, Fraction(1) / t**2), (Fraction(0), Fraction(1) / t))
    out = matrix_action(sigma, v).coeff_map()
    assert out == {(3, 0): Fraction(1), (2, 1): Fraction(3)}


def test_action_det_one_required():
    m = Module(1, Sym(2))
    v = vector(m, {(2, 0): 1})
    with pytest.raises(ValueError):
        matrix_action(((2, 0), (0, 1)), v)


def _sl2(rng):
    mats = [
        ((Fraction(1), Fraction(rng.randint(-3, 3))), (Fraction(0), Fraction(1))),
        ((Fraction(1), Fraction(0)), (Fraction(rng.randint(-3, 3)), Fraction(1))),
    ]
    out = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    for _ in range(3):
        m = mats[rng.randint(0, 1)]
        out = tuple(
            tuple(sum(out[i][k] * m[k][j] for k in range(2)) for j in range(2))
            for i in range(2)
        )
    return out


@settings(deadline=None, max_examples=40)
@given(st.randoms(use_true_random=False))
def test_action_is_multiplicative(rng):
    m = Module(1, Sym(3))
    v = vector(m, {(3, 0): 2, (1, 2): -1})
    a, b = _sl2(rng), _sl2(rng)
    ab = tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )
    assert matrix_action(ab, v) == matrix_action(a, matrix_action(b, v))


def test_weight_polytope_traceless():
    m = Module(1, Sym(2))
    v = vector(m, {(2, 0): 1, (0, 2): 1})
    P = weight_polytope(v)
    assert P.vertices == ((-1, 1), (1, -1))


def test_weyl_orbit_polytope_sl3():
    P = weyl_orbit_polytope((3, 1, 0))
    assert len(P.vertices) == 6
    traceless = tuple(Fraction(c) - Fraction(4, 3) for c in (3, 1, 0))
    assert tuple(sorted(traceless)) in {tuple(sorted(v)) for v in P.vertices}


def test_weyl_orbit_validates():
    with pytest.raises(ValueError):
        weyl_orbit_polytope((1, 3, 0))
    with pytest.raises(ValueError):
        weyl_orbit_polytope((2, 1, 1))


def test_dominance_examples():
    assert dominance_leq((2, 1, 1, 0), (2, 2, 0, 0))
    assert not dominance_leq((3, 1, 0, 0), (2, 2, 0, 0))
    assert dominance_leq((1, 1, 1, 1), (4, 0, 0, 0))


def test_dominance_unequal_sums_centered():
    # (2,0,0) and (2,2,0) have different sums; the centered comparison is
    # what matches orbit polytope containment
    assert not dominance_leq((2, 0, 0), (2, 2, 0))
    assert not dominance_leq((2, 2, 0), (2, 0, 0))
    assert not dominance_leq((4, 0, 0, 0), (4, 4, 4, 0))


def test_dominance_matches_containment_spot():
    # polytopes take the last-coordinate-zero normalization; dominance is a
    # class property so the shift does not matter
    for lam, mu in [((2, 1, 1, 0), (2, 2, 0, 0)), ((2, 0, 0), (2, 2, 0)),
                    ((3, 3, 0), (4, 2, 0)), ((1, 1, 1), (2, 1, 0))]:
        dom = dominance_leq(lam, mu)
        lam_n = tuple(c - lam[-1] for c in lam)
        mu_n = tuple(c - mu[-1] for c in mu)
        cont = bool(contains(weyl_orbit_polytope(mu_n), weyl_orbit_polytope(lam_n)))
        assert dom == cont


def test_attainable_polytopes_counts():
    assert len(attainable_polytopes(Module(1, Sym(1)))) == 3
    assert len(attainable_polytopes(Module(1, Sym(2)))) == 6


def test_contraction_kernel():
    kernel = sl3_contraction_kernel()
    assert len(kernel.basis) == 15
    amb = kernel.ambient
    hw = vector(amb, {((2, 0, 0), (0, 1)): 1})
    w_fix = vector(amb, {((1, 1, 0), (0, 1)): 1})
    assert kernel.contains(hw)
    assert kernel.contains(w_fix)
    not_in = vector(amb, {((2, 0, 0), (1, 2)): 1})
    assert not kernel.contains(not_in)


def test_unipotent_orbit_support():
    amb = Module(2, Tensor((Sym(2), Wedge(2))))
    w_fix = vector(amb, {((1, 1, 0), (0, 1)): 1})
    e01 = (
        (Fraction(1), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    )
    moved = matrix_action(e01, w_fix)
    assert moved.support() == ((2, 2, 0), (3, 1, 0))
    assert sl3_contraction_kernel().contains(moved)


def test_tensor_weight_additivity():
    amb = Module(2, Tensor((Sym(2), Wedge(2))))
    assert amb.weight_of(((2, 0, 0), (0, 1))) == (3, 1, 0)
    assert amb.weight_of(((1, 1, 0), (0, 1))) == (2, 2, 0)


partitions = st.lists(st.integers(0, 3), min_size=2, max_size=3).map(
    lambda xs: tuple(sorted(xs, reverse=True)[:-1]) + (0,)
)


@settings(deadline=None, max_examples=50)
@given(partitions, partitions)
def test_dominance_iff_containment(lam, mu):
    if len(lam) != len(mu):
        return
    dom = dominance_leq(lam, mu)
    cont = bool(contains(weyl_orbit_polytope(mu), weyl_orbit_polytope(lam)))
    assert dom == cont


def test_diagonal_action_fixes_weight_polytope():
    # torus elements rescale coefficients without moving the support
    m = Module(1, Sym(3))
    v = vector(m, {(3, 0): 1, (1, 2): -2})
    for t in (Fraction(2), Fraction(1, 3), Fraction(-5)):
        sigma = ((t, Fraction(0)), (Fraction(0), Fraction(1) / t))
        moved = matrix_action(sigma, v)
        assert moved.support() == v.support()
        assert weight_polytope(moved) == weight_polytope(v)


# ---------------------------------------------------------------------------
# the integer action against the Fraction action it replaced, kept verbatim


def _matrix_action_fraction(sigma, v):
    mod = v.module
    mat = tuple(tuple(Fraction(x) for x in row) for row in sigma)
    n = mod.n_vars
    if len(mat) != n or any(len(row) != n for row in mat):
        raise ValueError("matrix must be %d x %d" % (n, n))
    if _linalg.det(mat) != 1:
        raise ValueError("matrix determinant must be exactly 1")
    out: dict = {}
    for key, c in v.coeffs:
        for new_key, a in _key_action_fraction(mod.shape, n, mat, key).items():
            acc = out.get(new_key, Fraction(0)) + c * a
            if acc == 0:
                out.pop(new_key, None)
            else:
                out[new_key] = acc
    if not out:
        raise AssertionError("invertible action produced zero")
    return WeightedVector(mod, tuple(out.items()))


def _key_action_fraction(shape, n, mat, key):
    if isinstance(shape, Trivial):
        return {(): Fraction(1)}
    if isinstance(shape, Sym):
        poly = {(0,) * n: Fraction(1)}
        for i, e in enumerate(key):
            for _ in range(e):
                poly = _poly_mul_linear_fraction(poly, [mat[j][i] for j in range(n)], n)
        return poly
    if isinstance(shape, Wedge):
        k = len(key)
        out = {}
        for rows in itertools.combinations(range(n), k):
            minor = [[mat[r][c] for c in key] for r in rows]
            d = _linalg.det(minor)
            if d != 0:
                out[rows] = d
        return out
    if isinstance(shape, Tensor):
        parts = [_key_action_fraction(f, n, mat, k) for f, k in zip(shape.factors, key)]
        out = {}
        for combo in itertools.product(*(p.items() for p in parts)):
            keys = tuple(k for k, _ in combo)
            coeff = Fraction(1)
            for _, c in combo:
                coeff *= c
            acc = out.get(keys, Fraction(0)) + coeff
            if acc == 0:
                out.pop(keys, None)
            else:
                out[keys] = acc
        return out
    raise ValueError("no action implemented for shape %r" % (shape,))


def _poly_mul_linear_fraction(poly, linear, n):
    out: dict = {}
    for exp, c in poly.items():
        for j in range(n):
            if linear[j] == 0:
                continue
            new = list(exp)
            new[j] += 1
            new = tuple(new)
            acc = out.get(new, Fraction(0)) + c * linear[j]
            if acc == 0:
                out.pop(new, None)
            else:
                out[new] = acc
    return out


def _shapes(n):
    out = [Trivial()] + [Sym(d) for d in range(4)] + [Wedge(k) for k in range(1, n + 1)]
    out += [Tensor((Sym(2), Wedge(k))) for k in (1, n - 1)]
    out += [Tensor((Sym(1), Sym(2))), Tensor((Wedge(1), Wedge(n - 1), Sym(1)))]
    return out


def _rational(rng):
    return Fraction(rng.choice((-5, -3, -2, -1, 1, 2, 4, 7)), rng.choice((1, 1, 2, 3, 5)))


def _rational_sl(rng, n):
    """Determinant-one matrix with rational entries: a product of rational
    elementary matrices and a diagonal torus element, or the boundary curve
    ((t, 1/t^2), (0, 1/t)) of the ``boundary`` example for n = 2."""
    if n == 2 and rng.random() < 0.2:
        t = _rational(rng)
        return ((t, 1 / t**2), (Fraction(0), 1 / t))
    diag = [_rational(rng) for _ in range(n - 1)]
    diag.append(1 / math.prod(diag))
    mat = [[diag[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(1, 4)):
        i, j = rng.sample(range(n), 2)
        c = _rational(rng)
        for r in range(n):
            mat[r][j] += c * mat[r][i]
    return tuple(tuple(row) for row in mat)


def _action_cases(seed, count):
    rng = random.Random(seed)
    for k in range(count):
        n = 2 + k % 3
        mod = Module(n - 1, rng.choice(_shapes(n)))
        keys = rng.sample(mod.basis, min(len(mod.basis), rng.randint(1, 4)))
        v = vector(mod, {key: _rational(rng) for key in keys})
        kind = k % 10
        if kind < 4:
            sigma = random_conjugator(rng, n)
        elif kind < 8:
            sigma = _rational_sl(rng, n)
        elif kind < 9:
            # ((1, 0), (p/q, 1)) and its larger analogues
            sigma = tuple(
                tuple(Fraction(int(i == j)) if i <= j else _rational(rng) for j in range(n))
                for i in range(n)
            )
        else:
            # determinant -1, 2 or 1/3: both actions must refuse it
            scale = rng.choice((Fraction(-1), Fraction(2), Fraction(1, 3)))
            rows = [list(row) for row in random_conjugator(rng, n)]
            rows[0] = [scale * x for x in rows[0]]
            sigma = tuple(tuple(row) for row in rows)
        yield sigma, v


def test_integer_action_matches_fraction_action():
    refused = shapes = 0
    seen = set()
    for sigma, v in _action_cases(314, 1200):
        try:
            expected = _matrix_action_fraction(sigma, v)
        except ValueError:
            with pytest.raises(ValueError, match="determinant"):
                matrix_action(sigma, v)
            refused += 1
            continue
        assert repr(matrix_action(sigma, v)) == repr(expected)
        seen.add((v.module.N, shape_name(v.module.shape)))
    assert refused >= 100
    assert len(seen) >= 25


def test_boundary_example_curve_is_unchanged():
    # the 1/t^2 curve of ``cli._example_boundary``, through both actions
    v = vector(Module(1, Sym(3)), {(2, 1): 1})
    for t in (Fraction(1), Fraction(1, 2), Fraction(1, 10)):
        sigma = ((t, Fraction(1) / t**2), (Fraction(0), Fraction(1) / t))
        assert repr(matrix_action(sigma, v)) == repr(_matrix_action_fraction(sigma, v))


_SUPPORT_SHAPES = [Trivial()] + [Sym(d) for d in range(6)] + [
    Tensor((Sym(2), Wedge(1))),
    Tensor((Sym(1), Sym(3))),
    Tensor((Sym(0), Wedge(2))),
]


def test_image_supports_match_the_supports_of_matrix_action():
    # the Sym route runs over the whole basis and reads the support off its
    # nonzero entries in basis order; matrix_action builds the vector
    rng = random.Random(2024)
    sym_images = sparse = 0
    for k in range(240):
        n = 2 + k % 3
        mod = Module(n - 1, _SUPPORT_SHAPES[k // 3 % len(_SUPPORT_SHAPES)])
        vs = [
            vector(mod, {key: _rational(rng) for key in rng.sample(mod.basis, min(len(mod.basis), size))})
            for size in (1, rng.randint(2, 6))
        ]
        if k % 4 == 3:
            # a sparse matrix, so that some image coefficients vanish
            sigma = tuple(tuple(Fraction(int(i == j or j == i + 1)) for j in range(n)) for i in range(n))
        else:
            sigma = _int_conjugator(rng, n) if k % 2 else _rational_sl(rng, n)
        expected = tuple(matrix_action(sigma, v).support() for v in vs)
        assert image_supports(sigma, vs) == expected
        assert image_supports(sigma, [int_vector(v) for v in vs]) == expected
        if isinstance(mod.shape, Sym):
            sym_images += 2
            # Sym weights are distinct, so a shorter support has zero entries
            sparse += sum(len(s) < mod.dimension for s in expected)
    assert sym_images >= 280
    assert sparse >= 100
