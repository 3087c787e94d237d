"""The shared integer kernel against the Fraction routines it replaced.

Each oracle below is the per-module ``Fraction`` code as it stood before
``_linalg`` took its job over, kept verbatim.  Every result of the kernel is
an exact rational that does not depend on the method, so the two must agree
exactly, and a system one of them finds singular the other must too.
"""

import math
import random
from fractions import Fraction
from types import SimpleNamespace

from pairstab import _linalg
from pairstab.binaryforms import _divisors, form, rational_roots
from pairstab.lattice import SeparatingFunctional, _get_hrep, _project_origin, hull
from pairstab.pairs import _witness_from_separator, random_conjugator
from pairstab.rep import Module, Sym, Tensor, Wedge, WeightedVector, _contract_key
from pairstab.rep import sl3_contraction_kernel
from test_lattice import _coordinate_rows


# ---------------------------------------------------------------------------
# oracles: the replaced Fraction code


def _det_fraction(mat):
    """Exact determinant by fraction Gaussian elimination."""
    n = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    result = Fraction(1)
    for col in range(n):
        piv = None
        for r in range(col, n):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            result = -result
        result *= a[col][col]
        inv = a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] / inv
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return result


def _nullspace_fraction(rows):
    """Sparse nullspace basis from the reduced row echelon form."""
    mat = [row[:] for row in rows]
    ncols = len(mat[0])
    pivots = []
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = mat[r][col]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [(fc, Fraction(1))]
        for prow, pc in zip(mat[:len(pivots)], pivots):
            if prow[fc] != 0:
                vec.append((pc, -prow[fc]))
        vec.sort()
        basis.append(vec)
    return basis


def _invert_fraction(mat):
    n = len(mat)
    aug = [list(mat[i]) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col]
        aug[col] = [v / inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _coordinate_rows_fraction(basis, ambient):
    d = len(basis)
    gram = [[sum(a * b for a, b in zip(u, v)) for v in basis] for u in basis]
    ginv = _invert_fraction(gram)
    return [
        tuple(sum(ginv[i][k] * basis[k][j] for k in range(d)) for j in range(ambient))
        for i in range(d)
    ]


def _solve_unique_fraction(aug, n):
    mat = [row[:] for row in aug]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if mat[r][col] != 0:
                piv = r
                break
        if piv is None:
            return None
        mat[col], mat[piv] = mat[piv], mat[col]
        inv = mat[col][col]
        mat[col] = [v / inv for v in mat[col]]
        for r in range(n):
            if r != col and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
    return [mat[i][n] for i in range(n)]


def _kkt_fraction(subset):
    """The KKT system that ``_project_origin`` solved, as augmented rows."""
    k = len(subset)
    gram = [[sum(a * b for a, b in zip(p, q)) for q in subset] for p in subset]
    aug = [
        [2 * gram[i][j] for j in range(k)] + [Fraction(1)] + [Fraction(0)]
        for i in range(k)
    ]
    aug.append([Fraction(1)] * k + [Fraction(0), Fraction(1)])
    return aug


def _affine_frame_fraction(P):
    base = P.vertices[0]
    diffs = [tuple(a - b for a, b in zip(v, base)) for v in P.vertices[1:]]
    basis = []
    mat = []
    for dvec in diffs:
        row = list(dvec)
        for bmrow in mat:
            lead = next(i for i, v in enumerate(bmrow) if v != 0)
            if row[lead] != 0:
                f = row[lead] / bmrow[lead]
                row = [a - f * b for a, b in zip(row, bmrow)]
        if any(v != 0 for v in row):
            mat.append(row)
            basis.append(dvec)
    return base, basis


def _integerize_fraction(coords):
    denom = 1
    for c in coords:
        denom = denom * c.denominator // math.gcd(denom, c.denominator)
    ints = [int(c * denom) for c in coords]
    common = 0
    for c in ints:
        common = math.gcd(common, abs(c))
    return tuple(c // common for c in ints) if common else tuple(ints)


def _witness_fraction(sep, n):
    g = [-c for c in sep.coeffs]
    mean = sum(g) / n
    g = [c - mean for c in g]
    denom = 1
    for c in g:
        denom = denom * c.denominator // math.gcd(denom, c.denominator)
    ints = [int(c * denom) for c in g]
    common = 0
    for c in ints:
        common = math.gcd(common, abs(c))
    return tuple(c // common for c in ints)


def _eval_poly(p, x):
    """The Horner evaluation ``rational_roots`` used before its integer root
    test, kept verbatim."""
    out = Fraction(0)
    for c in reversed(p):
        out = out * x + c
    return out


def _rational_roots_fraction(f):
    p = list(f.affine())
    roots = []
    if p and p[0] == 0:
        roots.append(Fraction(0))
        while p and p[0] == 0:
            p.pop(0)
    if len(p) <= 1:
        return sorted(roots)
    mult = 1
    for c in p:
        mult = mult * c.denominator // math.gcd(mult, c.denominator)
    ints = [int(c * mult) for c in p]
    lead, trail = ints[-1], ints[0]
    for q in _divisors(abs(lead)):
        for pnum in _divisors(abs(trail)):
            for cand in (Fraction(pnum, q), Fraction(-pnum, q)):
                if cand in roots:
                    continue
                if _eval_poly(p, cand) == 0:
                    roots.append(cand)
    return sorted(roots)


# ---------------------------------------------------------------------------
# generators


def _q(rng, size=4):
    return Fraction(rng.randint(-size, size), rng.randint(1, 3))


def _matrix(rng, nrows, ncols):
    """A rational matrix, often rank-deficient: some rows are zero or
    combinations of earlier rows, and some columns repeat."""
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if rows and kind < 0.2:
            rows.append([Fraction(0)] * ncols)
        elif rows and kind < 0.45:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = _q(rng, 2), _q(rng, 2)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append([_q(rng) if rng.random() < 0.7 else Fraction(0) for _ in range(ncols)])
    if ncols > 1 and rng.random() < 0.2:
        j, k = rng.sample(range(ncols), 2)
        for row in rows:
            row[k] = row[j]
    return rows


def _affine_points(rng, ambient, dim, count):
    """Points in a random affine subspace of the given dimension."""
    base = [_q(rng, 3) for _ in range(ambient)]
    dirs = [[_q(rng, 3) for _ in range(ambient)] for _ in range(dim)]
    pts = []
    for _ in range(count):
        ts = [rng.randint(-2, 2) for _ in range(dim)]
        pts.append(tuple(b + sum(t * d[j] for t, d in zip(ts, dirs)) for j, b in enumerate(base)))
    return pts


# ---------------------------------------------------------------------------
# tests


def test_det_matches_fraction_elimination():
    rng = random.Random(7301)
    zero = 0
    for k in range(1200):
        n = rng.randint(1, 5)
        if k % 4 == 0 and n > 1:
            mat = random_conjugator(rng, n)
        else:
            mat = _matrix(rng, n, n)
        got = _linalg.det(mat)
        assert type(got) is Fraction
        assert got == _det_fraction(mat)
        zero += got == 0
    assert zero >= 200
    assert _linalg.det([]) == 1


def test_solve_matches_gram_inverse_and_kkt_elimination():
    rng = random.Random(7302)
    singular = {"gram": 0, "kkt": 0}
    for _ in range(600):
        ambient = rng.randint(1, 5)
        basis = [tuple(_q(rng, 3) for _ in range(ambient)) for _ in range(rng.randint(0, 4))]
        if len(basis) > 1 and rng.random() < 0.3:
            basis[-1] = tuple(2 * c for c in basis[0])
        gram = [[sum(a * b for a, b in zip(u, v)) for v in basis] for u in basis]
        try:
            want = _coordinate_rows_fraction(basis, ambient)
        except StopIteration:
            singular["gram"] += 1
            assert _linalg.solve(gram, basis) is None
            continue
        assert _coordinate_rows(basis) == want
        # the integer Gram frame: adj(G) B over det G
        ints, _ = _linalg.int_rows(basis)
        gram = [[sum(a * b for a, b in zip(u, v)) for v in ints] for u in ints]
        adj_b, delta = _linalg.cramer([g + b for g, b in zip(gram, ints)], len(ints))
        assert delta == _det_fraction(gram) > 0
        assert [tuple([Fraction(v, delta) for v in r]) for r in adj_b] == _coordinate_rows(ints)
    for _ in range(600):
        ambient = rng.randint(1, 5)
        subset = [tuple(_q(rng, 3) for _ in range(ambient)) for _ in range(rng.randint(1, 5))]
        if len(subset) > 1 and rng.random() < 0.2:
            subset[-1] = subset[0]
        k = len(subset)
        aug = _kkt_fraction(subset)
        want = _solve_unique_fraction(aug, k + 1)
        got = _linalg.solve([row[:-1] for row in aug], [row[-1:] for row in aug])
        if want is None:
            singular["kkt"] += 1
            assert got is None
            assert _project_origin(subset) is None
        else:
            assert [row[0] for row in got] == want
            lams = want[:k]
            old = None
            if all(l >= 0 for l in lams):
                point = tuple(sum(l * p[j] for l, p in zip(lams, subset)) for j in range(ambient))
                old = (point, sum(c * c for c in point))
            new = _project_origin(subset)
            assert (new and (new.point, new.norm_sq)) == old
    assert min(singular.values()) >= 100


def test_nullspace_matches_reduced_echelon():
    rng = random.Random(7303)
    for _ in range(600):
        rows = _matrix(rng, rng.randint(1, 5), rng.randint(1, 8))
        want = _nullspace_fraction(rows)
        got = _linalg.nullspace(rows)
        assert [[(j, v) for j, v in enumerate(vec) if v] for vec in got] == want


def test_contraction_kernel_is_unchanged():
    ambient = Module(2, Tensor((Sym(2), Wedge(2))))
    keys = ambient.basis
    rows = [[Fraction(0)] * len(keys) for _ in range(3)]
    for col, key in enumerate(keys):
        for j, val in _contract_key(key).items():
            rows[j][col] = val
    want = tuple(
        WeightedVector(ambient, tuple((keys[i], c) for i, c in vec))
        for vec in _nullspace_fraction(rows)
    )
    assert sl3_contraction_kernel().basis == want


def test_affine_frame_matches_greedy_elimination():
    rng = random.Random(7304)
    dims = [0] * 6
    for k in range(3000):
        ambient = rng.randint(1, 6)
        dim = rng.randint(0, min(5, ambient))
        pts = _affine_points(rng, ambient, dim, rng.randint(1, 8))
        # every tenth point set goes in as given, to reach low-rank vertex
        # lists that a hull would prune
        if k % 10 == 0:
            verts = sorted(set(pts))
            [flat], den = _linalg.int_rows([[c for v in verts for c in v]])
            ints = [flat[i : i + ambient] for i in range(0, len(flat), ambient)]
            P = SimpleNamespace(vertices=verts, _hrep=None, _itab=(den, ints, None))
        else:
            P = hull(pts)
        _, basis = _affine_frame_fraction(P)
        # the integer frame's basis is the same differences times den
        d, frame = _get_hrep(P)
        assert d == len(basis)
        if frame is not None:
            den = P._itab[0]
            assert frame[0] == [[den * c for c in b] for b in basis]
        dims[d] += 1
    assert min(dims) >= 50


def test_primitive_matches_denominator_clearing_loops():
    rng = random.Random(7305)
    for _ in range(1500):
        n = rng.randint(1, 6)
        vec = tuple(_q(rng, 6) if rng.random() < 0.7 else Fraction(0) for _ in range(n))
        if rng.random() < 0.1:
            vec = (Fraction(0),) * n
        assert tuple(_linalg.primitive(vec)) == _integerize_fraction(vec)
        if n > 1 and len(set(vec)) > 1:
            sep = SeparatingFunctional(vec, Fraction(0), vec)
            assert _witness_from_separator(sep, n).coords == _witness_fraction(sep, n)
    assert _linalg.primitive([Fraction(-3, 4), Fraction(0), Fraction(3, 2)]) == [-1, 0, 2]


def test_rational_roots_match_lcm_loop():
    rng = random.Random(7306)
    for k in range(400):
        if k % 3 == 0:
            coeffs = [_q(rng, 5) for _ in range(rng.randint(1, 6))]
        else:
            # a rational multiple of a product of rational linear factors
            coeffs = [_q(rng, 3) or Fraction(1, 2)]
            for _ in range(rng.randint(0, 4)):
                r = _q(rng, 3)
                coeffs = [Fraction(0)] + coeffs
                for i in range(len(coeffs) - 1):
                    coeffs[i] -= r * coeffs[i + 1]
        if any(coeffs):
            f = form(coeffs)
            assert rational_roots(f) == _rational_roots_fraction(f)
