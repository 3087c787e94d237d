import collections
import dataclasses
import functools
import hashlib
import itertools
import math
import operator
import random
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairstab import lattice
from pairstab._linalg import echelon, int_rows, primitive, solve
from pairstab.lattice import (
    Cocharacter,
    HeightZeroError,
    Point,
    SeparatingFunctional,
    Weight,
    _extreme_points,
    _facets,
    _in_hull_lp,
    contains,
    hull,
    member,
    min_norm_point,
    pairing,
    solve_phase1,
    support_min,
)


def test_pairing_values():
    assert pairing(Weight((2, 2, 0)), Cocharacter((1, 1, -2))) == 4
    assert pairing(Weight((3, 1, 0)), Cocharacter((-1, 1, 0))) == -2
    for u in [(1, -1, 0), (2, 3, -5), (0, 0, 0)]:
        assert pairing(Weight((1, 1, 1)), Cocharacter(u)) == 0


def test_pairing_shift_invariance():
    u = Cocharacter((2, -3, 1))
    for k in (-2, -1, 1, 5):
        chi = Weight((4, 0, 7))
        shifted = Weight(tuple(c + k for c in chi.coords))
        assert pairing(chi, u) == pairing(shifted, u)


def test_pairing_length_mismatch():
    with pytest.raises(ValueError):
        pairing(Weight((1, 0)), Cocharacter((1, 0, -1)))


def test_cocharacter_requires_zero_sum():
    with pytest.raises(ValueError):
        Cocharacter((1, 1))


def test_weight_class_equality():
    assert Weight((3, 1, 0)) == Weight((4, 2, 1))
    assert Weight((3, 1, 0)) != Weight((1, 3, 0))
    assert hash(Weight((3, 1, 0))) == hash(Weight((4, 2, 1)))


def test_hull_prunes_midpoint():
    P = hull([(1, 0), (0, 1), (Fraction(1, 2), Fraction(1, 2))])
    assert P.vertices == ((0, 1), (1, 0))


def test_hull_retains_extremes():
    P = hull([(2, 0, 2), (1, 2, 1)])
    assert len(P.vertices) == 2


def test_hull_singleton():
    P = hull([(5, -1)])
    assert P.vertices == ((5, -1),)


def test_hull_empty():
    with pytest.raises(ValueError):
        hull([])


def test_replace_builds_the_caches_of_the_new_hull():
    P = hull([(0, 0), (1, 0), (0, 1)])
    assert member(P, (1, 1)).separator is not None
    Q = dataclasses.replace(P, vertices=((0, 0), (3, 0), (0, 3)))
    assert member(Q, (1, 1))
    assert Q.effective_dim() == 2
    with pytest.raises(TypeError):
        lattice.LatticePolytope(((0, 0), (1, 0)), _hrep=P._hrep)
    with pytest.raises(TypeError):
        lattice.LatticePolytope(((0, 0), (1, 0)), _itab=P._itab)


def test_hull_square_interior():
    pts = [(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)]
    assert len(hull(pts).vertices) == 4


def test_contains_reflexive():
    P = hull([(0, 0, 0), (3, 1, 0), (1, 3, 0)])
    assert contains(P, P)


def test_contains_midpoint_class():
    P = hull([(3, 1, 0), (1, 3, 0)])
    Q = hull([(2, 2, 0)])
    assert contains(P, Q)


def test_contains_disjoint_singletons_with_separator():
    P = hull([(0, 3, 0)])
    Q = hull([(3, 0, 0)])
    res = contains(P, Q)
    assert not res
    sep = res.separator
    assert sep is not None
    # strict separation, exact
    val_w = sum(c * x for c, x in zip(sep.coeffs, sep.witness))
    assert val_w > sep.threshold
    for v in P.vertices:
        assert sum(c * x for c, x in zip(sep.coeffs, v)) <= sep.threshold


def test_contains_dimension_mismatch():
    with pytest.raises(ValueError):
        contains(hull([(0, 0)]), hull([(0, 0, 0)]))


def test_support_min_examples():
    P = hull([(3, 1, 0), (1, 3, 0)])
    assert support_min(P, Cocharacter((1, 1, -2))) == 4
    assert support_min(P, Cocharacter((1, -1, 0))) == -2
    S = hull([(2, 7, 1)])
    u = Cocharacter((3, -1, -2))
    assert support_min(S, u) == pairing(Weight((2, 7, 1)), u)


def test_min_norm_singleton_traceless():
    P = hull([(Fraction(2, 3), Fraction(2, 3), Fraction(-4, 3))])
    res = min_norm_point(P)
    assert res.point == (Fraction(2, 3), Fraction(2, 3), Fraction(-4, 3))
    assert res.norm_sq == Fraction(8, 3)


def test_min_norm_symmetric_segment():
    res = min_norm_point(hull([(1, -1, 0), (-1, 1, 0)]))
    assert res.point == (0, 0, 0)
    assert res.norm_sq == 0


def test_min_norm_segment_projection():
    res = min_norm_point(hull([(1, 0, -1), (0, 1, -1)]))
    assert res.point == (Fraction(1, 2), Fraction(1, 2), -1)
    assert res.norm_sq == Fraction(3, 2)


def test_min_norm_dimension_guard():
    pts = [tuple(3 if i == j else 0 for i in range(6)) for j in range(6)]
    with pytest.raises(ValueError):
        min_norm_point(hull(pts))


def test_member_high_dimension_lp_route():
    # 5-simplex vertices force the LP path
    pts = [tuple(5 if i == j else 0 for i in range(6)) for j in range(6)]
    P = hull(pts)
    center = tuple(Fraction(5, 6) for _ in range(6))
    assert member(P, center)
    assert not member(P, (6, 0, 0, 0, 0, 0))
    # neither is decided before the LP: one is inside, off the centroid, and
    # the centroid probe does not refute the other
    assert member(P, (2, 3, 0, 0, 0, 0))
    assert not member(P, (4, 1, 1, 0, 0, -1))


def test_member_lp_route_with_column_generation_matches_full_lp(monkeypatch):
    # the 32 points of {-1, 0, 1}^4 with three nonzero coordinates all lie on
    # one sphere, so each is a vertex; hulls of more than 24 vertices run
    # _in_hull_lp's column generation.  Separators may differ from those of
    # one LP on all columns, so only the verdicts are compared.
    pts = {
        tuple(a * b for a, b in zip(base, signs))
        for base in itertools.permutations((1, 1, 1, 0))
        for signs in itertools.product((1, -1), repeat=4)
    }
    P = hull(pts)
    assert len(P.vertices) == 32 and P.effective_dim() == 4
    lp_verdicts = []
    in_hull_lp = lattice._in_hull_lp

    def counting(vertices, x):
        res = in_hull_lp(vertices, x)
        lp_verdicts.append(res.feasible)
        return res

    monkeypatch.setattr(lattice, "_in_hull_lp", counting)
    cols = [v + (Fraction(1),) for v in P.vertices]
    rng = random.Random(2024)
    for _ in range(150):
        # a combination of three vertices scaled by 4/5 to 6/5 lands near
        # the boundary, on either side
        vs = rng.sample(P.vertices, 3)
        w = [rng.randint(1, 4) for _ in vs]
        s = Fraction(rng.randint(8, 12), 10)
        x = tuple(s * sum(a * v[j] for a, v in zip(w, vs)) / sum(w) for j in range(4))
        want = solve_phase1(cols, x + (Fraction(1),)).feasible
        assert bool(member(P, x)) == want
    assert lp_verdicts.count(True) >= 50 and lp_verdicts.count(False) >= 10


points2d = st.lists(
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=1, max_size=7
)
points3d = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)),
    min_size=1,
    max_size=6,
)


@settings(deadline=None, max_examples=60)
@given(points2d, st.randoms(use_true_random=False))
def test_member_accepts_convex_combinations(pts, rng):
    P = hull(pts)
    weights = [Fraction(rng.randint(0, 6)) for _ in pts]
    if sum(weights) == 0:
        weights[0] = Fraction(1)
    total = sum(weights)
    combo = tuple(
        sum(w * Fraction(p[i]) for w, p in zip(weights, pts)) / total
        for i in range(2)
    )
    assert member(P, combo)


@settings(deadline=None, max_examples=40)
@given(points3d, points3d)
def test_contains_separator_soundness(a, b):
    P, Q = hull(a), hull(b)
    res = contains(P, Q)
    if res:
        for v in Q.vertices:
            assert member(P, v)
    else:
        sep = res.separator
        wit = sum(c * x for c, x in zip(sep.coeffs, sep.witness))
        assert wit > sep.threshold
        for v in P.vertices:
            assert sum(c * x for c, x in zip(sep.coeffs, v)) <= sep.threshold


@settings(deadline=None, max_examples=30)
@given(points3d)
def test_min_norm_beats_random_combinations(pts):
    P = hull(pts)
    res = min_norm_point(P)
    assert member(P, res.point)
    rng = random.Random(0)
    verts = P.vertices
    for _ in range(60):
        weights = [Fraction(rng.randint(0, 5)) for _ in verts]
        if sum(weights) == 0:
            weights[0] = Fraction(1)
        total = sum(weights)
        combo = [
            sum(w * Fraction(v[i]) for w, v in zip(weights, verts)) / total
            for i in range(len(verts[0]))
        ]
        assert sum(c * c for c in combo) >= res.norm_sq


@settings(deadline=None, max_examples=40)
@given(points2d, st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
def test_support_min_is_vertex_min(pts, uraw):
    P = hull(pts)
    u = Cocharacter((uraw[0], -uraw[0]))
    got = support_min(P, u)
    assert got == min(
        sum(Fraction(c) * x for c, x in zip(v, u.coords)) for v in P.vertices
    )


@settings(deadline=None, max_examples=25)
@given(points2d, points2d, points2d)
def test_contains_transitive(a, b, c):
    A, B, C = hull(a), hull(b), hull(c)
    if contains(A, B) and contains(B, C):
        assert contains(A, C)


def test_contains_antisymmetric_on_canonical_forms():
    A = hull([(0, 0), (2, 0), (0, 2)])
    B = hull([(0, 0), (2, 0), (0, 2), (1, 1)])
    assert contains(A, B) and contains(B, A)
    assert A.vertices == B.vertices


# ---------------------------------------------------------------------------
# solve_phase1 against the Fraction pivot it replaced


def _phase1_fraction(columns, b):
    """The phase-1 simplex over ``Fraction``, pivot for pivot the one that
    ``solve_phase1`` runs in integers.  Returns the result and whether the
    Bland fallback ran."""
    m = len(b)
    n = len(columns)

    def _row_scale(i):
        acc = b[i].denominator
        for j in range(n):
            d = columns[j][i].denominator
            acc = acc * d // math.gcd(acc, d)
        return Fraction(acc if b[i] >= 0 else -acc)

    signs = [_row_scale(i) for i in range(m)]
    tab = [
        [signs[i] * columns[j][i] for j in range(n)]
        + [Fraction(1) if k == i else Fraction(0) for k in range(m)]
        + [signs[i] * b[i]]
        for i in range(m)
    ]
    total = n + m
    basis = list(range(n, n + m))
    rc = [Fraction(0)] * (total + 1)
    for j in range(n):
        rc[j] = -sum(tab[i][j] for i in range(m))
    rc[total] = -sum(tab[i][total] for i in range(m))
    bland = False
    stall = 0
    prev_obj = rc[total]
    while True:
        enter = -1
        if bland:
            for j in range(total):
                if rc[j] < 0:
                    enter = j
                    break
        else:
            worst = Fraction(0)
            for j in range(total):
                if rc[j] < worst:
                    worst = rc[j]
                    enter = j
        if enter < 0:
            break
        leave = -1
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][total] / tab[i][enter]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        piv = tab[leave][enter]
        tab[leave] = [v / piv for v in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [v - f * w for v, w in zip(tab[i], tab[leave])]
        if rc[enter] != 0:
            f = rc[enter]
            rc = [v - f * w for v, w in zip(rc, tab[leave])]
        basis[leave] = enter
        if not bland:
            if rc[total] == prev_obj:
                stall += 1
                if stall > m + 2:
                    bland = True
            else:
                stall = 0
                prev_obj = rc[total]
    if rc[total] == 0:
        x = [Fraction(0)] * n
        for i, bi in enumerate(basis):
            if bi < n:
                x[bi] = tab[i][total]
        return (True, tuple(x), None), bland
    y = tuple(signs[i] * (1 - rc[n + i]) for i in range(m))
    return (False, None, y), bland


def _random_rational(rng, size):
    return Fraction(rng.randint(-size, size), rng.randint(1, 3))


def _random_system(rng):
    """A small system  sum_j x_j col_j = b  with rational entries."""
    m = rng.randint(1, 5)
    n = rng.randint(1, 9)
    cols = [tuple(_random_rational(rng, 4) for _ in range(m)) for _ in range(n)]
    return cols, tuple(_random_rational(rng, 4) for _ in range(m))


def _degenerate_system(rng):
    """A system whose right-hand side is mostly zero, with zero, repeated and
    parallel columns mixed in; pivots stall on these, and a good share of
    them end in the Bland fallback."""
    m = rng.randint(4, 7)
    n = rng.randint(m, 2 * m)
    cols = [tuple(_random_rational(rng, 4) for _ in range(m)) for _ in range(n)]
    b = tuple(
        Fraction(0) if rng.random() < 0.8 else _random_rational(rng, 4)
        for _ in range(m)
    )
    for _ in range(rng.randint(1, m)):
        kind = rng.choice(("zero", "repeat", "parallel"))
        if kind == "zero":
            col = (Fraction(0),) * m
        else:
            scale = 1 if kind == "repeat" else _random_rational(rng, 3)
            col = tuple(scale * c for c in rng.choice(cols))
        cols.insert(rng.randint(0, len(cols)), col)
    return cols, b


def test_solve_phase1_matches_fraction_pivot():
    rng = random.Random(20260)
    outcomes = {True: 0, False: 0}
    bland_runs = 0
    for k in range(1500):
        cols, b = (_degenerate_system if k % 3 == 0 else _random_system)(rng)
        want, bland = _phase1_fraction(cols, b)
        got = solve_phase1(cols, b)
        assert (got.feasible, got.x, got.y) == want
        for part in (got.x or ()) + (got.y or ()):
            assert type(part) is Fraction
        outcomes[got.feasible] += 1
        bland_runs += bland
    # both verdicts and the Bland fallback are exercised
    assert min(outcomes.values()) >= 100
    assert bland_runs >= 25


# ---------------------------------------------------------------------------
# the per-dimension facet enumeration that ``lattice._facets`` replaced, kept
# verbatim as its oracle


def _facets_low_dim(coords: list[Point]) -> list[tuple[Point, Fraction]]:
    """Facet inequalities n . y <= c of a full-dimensional hull in dim <= 3."""
    d = len(coords[0]) if coords else 0
    facets: list[tuple[Point, Fraction]] = []
    seen: set[tuple] = set()

    def consider(normal: Point) -> None:
        # _primitive fixes the sign, so no stored normal negates another
        normal = _primitive(normal)
        if normal is None or normal in seen:
            return
        seen.add(normal)
        vals = [sum(a * b for a, b in zip(normal, y)) for y in coords]
        facets.append((normal, max(vals)))
        facets.append((tuple(-a for a in normal), -min(vals)))

    if d == 1:
        consider((Fraction(1),))
        return facets
    if d == 2:
        for p, q in itertools.combinations(coords, 2):
            dx, dy = q[0] - p[0], q[1] - p[1]
            consider((dy, -dx))
        return facets
    for p, q, r in itertools.combinations(coords, 3):
        u = tuple(b - a for a, b in zip(p, q))
        v = tuple(b - a for a, b in zip(p, r))
        normal = (
            u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0],
        )
        consider(normal)
    return facets


def _primitive(vec: Point) -> Optional[Point]:
    ints = primitive(vec)
    lead = next((v for v in ints if v), 0)
    if not lead:
        return None
    return tuple([Fraction(v if lead > 0 else -v) for v in ints])


def _flat_points(rng, ambient, k):
    """Rational points spanning an affine k-space in Q^ambient (almost
    always), with repeated points and points collinear or coplanar with
    earlier ones mixed in, in random order."""
    base = [_random_rational(rng, 3) for _ in range(ambient)]
    dirs = [[_random_rational(rng, 3) for _ in range(ambient)] for _ in range(k)]
    pts = []
    for _ in range(rng.randint(k + 1, 8)):
        ts = [_random_rational(rng, 3) for _ in dirs]
        pts.append(tuple(b + sum(t * d[j] for t, d in zip(ts, dirs)) for j, b in enumerate(base)))
    return _mix_in(rng, pts)


def _mix_in(rng, pts):
    """pts with up to three repeated points, or points collinear or coplanar
    with earlier ones, inserted at random places."""
    for _ in range(rng.randint(0, 3)):
        p, q, r = (rng.choice(pts) for _ in range(3))
        s, t = _random_rational(rng, 2), _random_rational(rng, 2)
        kind = rng.choice(("repeat", "collinear", "coplanar"))
        if kind == "repeat":
            new = p
        elif kind == "collinear":
            new = tuple(a + s * (b - a) for a, b in zip(p, q))
        else:
            new = tuple(a + s * (b - a) + t * (c - a) for a, b, c in zip(p, q, r))
        pts.insert(rng.randint(0, len(pts)), new)
    return pts


def test_facets_match_the_per_dimension_enumeration():
    rng = random.Random(1414)
    dims = [0] * 4
    for k in range(2100):
        pts = _flat_points(rng, rng.randint(k % 3 + 1, 5), k % 3 + 1)
        # every fourth case takes the hull's vertices, as _get_hrep does
        P = hull(pts) if k % 4 == 0 else SimpleNamespace(vertices=pts)
        base, basis = _affine_frame(P)
        rows = _coordinate_rows(basis)
        coords = [
            tuple(sum(r[j] * (v[j] - base[j]) for j in range(len(base))) for r in rows)
            for v in P.vertices
        ]
        if basis:
            assert _facets(coords) == _facets_low_dim(coords)
        dims[len(basis)] += 1
    assert min(dims[1:]) >= 500


# ---------------------------------------------------------------------------
# pinned verdicts and separators: any change to the membership kernels must
# leave every answer, witness included, exactly as it was


def _pinned_queries(rng, P, pts):
    """Vertices, convex combinations, points of the affine hull pushed
    outside it, and points off it, in Q^ambient."""
    verts = P.vertices
    out = [rng.choice(verts), rng.choice(pts)]
    for _ in range(2):
        ws = [Fraction(rng.randint(0, 3)) for _ in verts]
        total = sum(ws) or Fraction(1)
        out.append(tuple(sum(w * v[j] for w, v in zip(ws, verts)) / total for j in range(P.ambient)))
    for _ in range(2):
        p, q = rng.choice(verts), rng.choice(pts)
        t = _random_rational(rng, 3)
        out.append(tuple(a + t * (b - a) for a, b in zip(p, q)))
    out.append(tuple(_random_rational(rng, 3) for _ in range(P.ambient)))
    return out


def test_member_contains_and_extension_results_are_pinned():
    from pairstab.toric import ToricData, extension_criterion

    rng = random.Random(2016)
    h = hashlib.sha256()
    dims = [0] * 4
    for k in range(480):
        ambient = k % 5 + 1
        dim = min(k % 4, ambient)
        pts = _flat_points(rng, ambient, dim)
        P = hull(pts)
        dims[P.effective_dim()] += 1
        for x in _pinned_queries(rng, P, pts):
            h.update(repr(member(P, x)).encode())
        Q = hull(rng.sample(pts, rng.randint(1, len(pts))) + _pinned_queries(rng, P, pts)[2:4])
        h.update(repr((contains(P, Q), contains(Q, P))).encode())
    for k in range(600):
        dim = k % 3 + 1
        size = (4, 2, 1)[dim - 1]
        pool = list(itertools.product(range(-size, size + 1), repeat=dim))
        A = rng.sample(pool, rng.randint(2, min(8, len(pool))))
        B = rng.sample(A, rng.randint(1, len(A) - 1))
        h.update(repr(extension_criterion(ToricData(A, B, dim))).encode())
    assert min(dims) >= 60, dims
    assert h.hexdigest() == "72c58c0570326e61891fedc6e30bd16a225b136bd26a69b06a0052baeeeac33a"


# ---------------------------------------------------------------------------
# the Fraction frame that the facet route ran before its integer table,
# kept verbatim (its cache aside) as the oracle of ``_membership_facets``


def _affine_frame(P):
    """Base point and a basis of the affine hull's direction space: the
    first differences ``v - base``, in vertex order, independent of the
    earlier ones (the pivot columns of the differences as columns)."""
    base = P.vertices[0]
    diffs = [tuple([a - b for a, b in zip(v, base)]) for v in P.vertices[1:]]
    rows, _ = int_rows(zip(*diffs))
    return base, [diffs[j] for j in echelon(rows)[0]]


def _coordinate_rows(basis: list[Point]) -> list[Point]:
    """The d x ambient matrix with coord(x) = rows . (x - base): Gram-based
    affine coordinates, G^{-1} B (x - base), exact."""
    gram = [[sum(a * b for a, b in zip(u, v)) for v in basis] for u in basis]
    return [tuple(r) for r in solve(gram, basis)]


@functools.lru_cache(maxsize=1)
def _fraction_frame(P):
    """(base, rows, basis, facets) for effective dimension at most three."""
    base, basis = _affine_frame(P)
    rows = _coordinate_rows(basis)
    # rows . (v - base) for every vertex, in integers over rden * vden
    n = P.ambient
    [rflat], rden = int_rows([[x for r in rows for x in r]])
    [vflat], vden = int_rows([[c for v in P.vertices for c in v]])
    coords = [
        tuple([
            Fraction(sum(map(operator.mul, rflat[k : k + n], diff)), rden * vden)
            for k in range(0, len(rflat), n)
        ])
        for diff in ([a - b for a, b in zip(vflat[i : i + n], vflat)] for i in range(0, len(vflat), n))
    ]
    return base, rows, basis, _facets(coords)


def _membership_facets(P, x: Point):
    """Exact membership via the facet cache; returns (inside, separator)."""
    base, rows, basis, facets = _fraction_frame(P)
    d = len(basis)
    diff = [a - b for a, b in zip(x, base)]
    y = [sum(r[j] * diff[j] for j in range(len(diff))) for r in rows]
    # first check x lies in the affine hull at all
    proj = [base[j] + sum(y[i] * basis[i][j] for i in range(d)) for j in range(len(x))]
    perp = [a - b for a, b in zip(x, proj)]
    if any(v != 0 for v in perp):
        c0 = sum(g * p for g, p in zip(perp, P.vertices[0]))
        return False, SeparatingFunctional(tuple(perp), c0, x)
    for normal, cval in facets:
        val = sum(a * b for a, b in zip(normal, y))
        if val > cval:
            g = tuple([sum(normal[i] * rows[i][j] for i in range(d)) for j in range(len(x))])
            shift = sum(gj * bj for gj, bj in zip(g, base))
            return False, SeparatingFunctional(g, cval + shift, x)
    return True, None


def test_integer_frame_matches_the_fraction_frame():
    rng = random.Random(1968)
    seen = collections.Counter()
    for k in range(1000):
        ambient = k % 5 + 1
        pts = _flat_points(rng, ambient, min(k % 4, ambient))
        P = hull(pts)
        for x in [x for _ in range(3) for x in _pinned_queries(rng, P, pts)]:
            x = tuple(Fraction(c) for c in x)
            want = _membership_facets(P, x)
            assert lattice._membership_facets(P, x) == want
            seen[P.effective_dim(), want[0]] += 1
    assert sum(seen.values()) >= 20000
    assert min(seen.values()) >= 500, seen


# ---------------------------------------------------------------------------
# the LP loop that ``lattice._extreme_points`` runs only above dimension two,
# kept verbatim as the oracle of its integer route


def _extreme_points_lp(pts: list[Point]) -> list[Point]:
    if len(pts) <= 2:
        return pts
    # equal-norm shortcut: distinct points on a sphere are all extreme,
    # by strict convexity of the ball
    norms = {sum(c * c for c in p) for p in pts}
    if len(norms) == 1:
        return pts
    keep = []
    for i, p in enumerate(pts):
        others = [q for j, q in enumerate(pts) if j != i]
        if not _in_hull_lp(others, p).feasible:
            keep.append(p)
    return keep


def _low_dim_points(rng, ambient, k):
    """Rational points in an affine k-space of Q^ambient, from integer
    parameters (lattice points, so many lie inside an edge) or rational
    ones, mixed in as in ``_flat_points``."""
    base = [_random_rational(rng, 3) for _ in range(ambient)]
    dirs = [[_random_rational(rng, 3) for _ in range(ambient)] for _ in range(k)]
    grid = rng.random() < 0.5
    pts = []
    for _ in range(rng.randint(k + 1, 9)):
        ts = [Fraction(rng.randint(-2, 2)) if grid else _random_rational(rng, 3) for _ in dirs]
        pts.append(tuple(b + sum(t * d[j] for t, d in zip(ts, dirs)) for j, b in enumerate(base)))
    return _mix_in(rng, pts)


def test_low_dimensional_hull_matches_the_lp_route():
    rng = random.Random(1979)
    dims = [0] * 3
    pruned = 0
    for i in range(2400):
        k = i % 3
        raw = _low_dim_points(rng, rng.randint(max(k, 1), 5), k)
        pts = sorted({tuple(Fraction(c) for c in p) for p in raw})
        expected = _extreme_points_lp(pts)
        assert _extreme_points(pts)[0] == expected
        assert hull(raw).vertices == tuple(expected)
        dims[len(_affine_frame(SimpleNamespace(vertices=pts))[1])] += 1
        pruned += len(expected) < len(pts)
    assert min(dims) >= 600, dims
    assert pruned >= 1000, pruned


def _lp_route_points(rng, k, big):
    """Rational points spanning an affine k-space: random points of Q^k or,
    when ``big``, 25 or 26 points of the moment curve (t, ..., t^k), all of
    them vertices; sheared, with convex combinations mixed in, then up to
    two pinned coordinates inserted and, half the time, a last coordinate
    that gives every point one coordinate sum."""
    if big:
        ts = rng.sample(range(-14, 15), rng.randint(25, 26))
        pts = [[Fraction(t, 4) ** (j + 1) for j in range(k)] for t in ts]
    else:
        pts = [[_random_rational(rng, 3) for _ in range(k)] for _ in range(rng.randint(k + 2, 10))]
    for _ in range(2):
        i, j = rng.sample(range(k), 2)
        c = _random_rational(rng, 2)
        for p in pts:
            p[i] += c * p[j]
    for _ in range(rng.randint(1, 3)):
        ws = [rng.randint(0, 2) for _ in pts]
        total = sum(ws) or 1
        pts.append([sum(w * p[j] for w, p in zip(ws, pts)) / total for j in range(k)])
    for _ in range(rng.randint(0, 2)):
        c, at = _random_rational(rng, 3), rng.randint(0, len(pts[0]))
        for p in pts:
            p.insert(at, c)
    if rng.random() < 0.5:
        s = _random_rational(rng, 3)
        for p in pts:
            p.append(s - sum(p))
    rng.shuffle(pts)
    return [tuple(p) for p in pts]


def test_lp_route_results_are_pinned(monkeypatch):
    # hull vertices of effective dimension 3-6, and member and contains on
    # the LP route (dimension 4-6); the extra queries are points of the
    # affine hull moved along one coordinate, which breaks a pinned
    # coordinate or the common sum when there is one
    verdicts = []
    in_hull_lp = lattice._in_hull_lp

    def counting(vertices, x):
        res = in_hull_lp(vertices, x)
        verdicts.append(res.feasible)
        return res

    monkeypatch.setattr(lattice, "_in_hull_lp", counting)
    rng = random.Random(1968)
    h = hashlib.sha256()
    dims = [0] * 7
    big = 0
    for i in range(84):
        raw = _lp_route_points(rng, i % 4 + 3, i % 28 in (1, 10, 19))
        P = hull(raw)
        assert P.vertices == tuple(_extreme_points_lp(sorted(set(raw))))
        dims[P.effective_dim()] += 1
        big += len(P.vertices) > 24
        h.update(repr(P.vertices).encode())
        queries = _pinned_queries(rng, P, raw)
        for x in queries[2:4]:
            j = rng.randrange(P.ambient)
            queries.append(x[:j] + (x[j] + _random_rational(rng, 2),) + x[j + 1 :])
        for x in queries:
            h.update(repr(member(P, x)).encode())
        Q = hull(rng.sample(raw, rng.randint(1, len(raw))) + queries[2:4])
        h.update(repr((contains(P, Q), contains(Q, P))).encode())
    assert min(dims[3:]) >= 21 and big >= 9, (dims, big)
    assert verdicts.count(True) >= 250 and verdicts.count(False) >= 90
    assert h.hexdigest() == "5fb75a0586a636e3f99a078e555df960eb363eca823380dfcafecae29ec89ce1"


_FORGED_WITNESSES = """
import sys
from fractions import Fraction
from pairstab import _linalg, lattice, pairs, toric
from pairstab.lattice import (
    Cocharacter, SeparatingFunctional, WitnessError, _check_separator, hull,
)
from pairstab.rep import Module, Sym, Trivial, vector

if __debug__:
    sys.exit("not running under -O")
P = hull([(0, 0), (1, 0), (0, 1)])
x = (Fraction(1), Fraction(0))
pair = pairs.Pair(vector(Module(1, Trivial()), {(): 1}), vector(Module(1, Sym(2)), {(2, 0): 1}))
line = toric.ToricData(A=[(0,), (1,), (2,), (3,)], B=[(0,), (1,)], dim=1)


def patched(owner, name, value, call):
    # each forge runs against otherwise unpatched code
    saved = getattr(owner, name)
    setattr(owner, name, value)
    try:
        call()
    finally:
        setattr(owner, name, saved)


def forge_futaki():
    forged = lambda sep, n: Cocharacter((-1, 1))
    patched(pairs, "_witness_from_separator", forged, lambda: pairs.nss_fixed_torus(pair))


def forge_star():
    forged = lambda v: [0] * len(v)
    patched(_linalg, "primitive", forged, lambda: toric.extension_criterion(line))


def forge_argmin():
    forged = lambda pts, S, dim: (0,) * dim
    patched(toric, "_face_functional", forged, lambda: toric.accessible_faces([(0,), (1,)]))


def forge_facet():
    forged = lambda P, x: (
        False, SeparatingFunctional(x, Fraction(1, 2), (Fraction(2), Fraction(0)))
    )
    patched(lattice, "_membership_facets", forged, lambda: lattice.member(P, (2, 0)))


checks = {
    # the vertex (1, 0) lies above the threshold
    "threshold": lambda: _check_separator(
        P, SeparatingFunctional(x, Fraction(1, 2), (Fraction(2), Fraction(0)))
    ),
    # the witness does not lie above it
    "witness": lambda: _check_separator(
        P, SeparatingFunctional(x, Fraction(1), (Fraction(1, 2), Fraction(0)))
    ),
    # a cocharacter with negative futaki value
    "futaki": forge_futaki,
    # a functional that satisfies the star condition
    "star": forge_star,
    # a face functional whose argmin is all of A
    "argmin": forge_argmin,
    # a facet-route separator that cuts the vertex (1, 0)
    "facet": forge_facet,
}
for name, forge in checks.items():
    try:
        forge()
    except WitnessError:
        print(name, "refused")
    else:
        sys.exit(name + " accepted")
"""


def test_check_separator_refuses_forgeries_under_optimize(src_env):
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _FORGED_WITNESSES], capture_output=True, text=True, env=src_env
    )
    assert proc.returncode == 0, proc.stderr
    names = ("threshold", "witness", "futaki", "star", "argmin", "facet")
    assert proc.stdout.splitlines() == [name + " refused" for name in names]
