import hashlib
import itertools
import random

import pytest

from pairstab import _linalg, toric
from pairstab.lattice import WitnessError, solve_phase1
from pairstab.toric import (
    FaceCertificate,
    ToricData,
    accessible_faces,
    boundary_witness,
    extension_criterion,
    max_certificate_coordinate,
    star_condition,
)


def test_toricdata_validation():
    with pytest.raises(ValueError):
        ToricData(A=[(0,), (1,)], B=[(2,)], dim=1)  # B not inside A
    with pytest.raises(ValueError):
        ToricData(A=[(0, 0), (1,)], B=[], dim=2)  # ragged
    with pytest.raises(ValueError):
        ToricData(A=[], B=[], dim=1)


def test_toricdata_dedups_and_sorts():
    d = ToricData(A=[(1,), (0,), (1,)], B=[(0,)], dim=1)
    assert d.A == ((0,), (1,))
    assert d.complement() == ((1,),)


def test_star_condition_interval():
    # A = {0,1,2,3}, B = {0,3}: interior points extend
    d = ToricData(A=[(0,), (1,), (2,), (3,)], B=[(0,), (3,)], dim=1)
    assert star_condition(d, (1,))
    assert star_condition(d, (-1,))
    assert extension_criterion(d)


def test_star_violation_missing_end():
    d = ToricData(A=[(0,), (1,), (2,), (3,)], B=[(0,), (1,)], dim=1)
    assert not star_condition(d, (-1,))
    res = extension_criterion(d)
    assert not res
    assert not star_condition(d, res.star_violator)


def test_star_check_refuses_a_bad_violator(monkeypatch):
    d = ToricData(A=[(0,), (1,), (2,), (3,)], B=[(0,), (1,)], dim=1)
    # the zero functional satisfies the star condition
    monkeypatch.setattr(_linalg, "primitive", lambda v: [0] * len(v))
    with pytest.raises(WitnessError):
        extension_criterion(d)


def test_argmin_check_refuses_a_bad_certificate(monkeypatch):
    # the zero functional has every point in its argmin
    monkeypatch.setattr(toric, "_face_functional", lambda pts, S, dim: (0,) * dim)
    with pytest.raises(WitnessError):
        accessible_faces([(0,), (1,)])


def test_extension_vacuous_when_all_marked():
    d = ToricData(A=[(0,), (5,)], B=[(0,), (5,)], dim=1)
    assert extension_criterion(d)
    assert star_condition(d, (7,))


def test_square_with_center_marked_fails():
    sq = [(0, 0), (1, 0), (0, 1), (1, 1)]
    d = ToricData(A=sq + [(2, 2)], B=sq, dim=2)
    res = extension_criterion(d)
    assert not res
    u = res.star_violator
    assert all(isinstance(c, int) for c in u)
    assert not star_condition(d, u)


def test_extension_origin_plus_spread():
    # B = {0}, unmarked points on both sides of 0: hull({0} u B) = {0}
    d = ToricData(A=[(-1,), (0,), (1,)], B=[(0,)], dim=1)
    res = extension_criterion(d)
    assert not res


def test_extension_cone_positive():
    d = ToricData(A=[(0, 0), (1, 0), (0, 1), (1, 1)], B=[(1, 0), (0, 1), (1, 1)], dim=2)
    assert extension_criterion(d)


def test_boundary_witness_argmin_set():
    pts = [(0, 0), (2, 0), (0, 2), (1, 0)]
    assert boundary_witness(pts, (1, 0)) == ((0, 0), (0, 2))
    assert boundary_witness(pts, (0, -1)) == ((0, 2),)
    assert boundary_witness(pts, (0, 0)) == tuple(sorted(pts))


def test_mixed_dimensions_and_a_wrong_length_functional_are_refused():
    for A in ([(0,), (1, 2)], [(0, 0), (1,), (2, 5)]):
        with pytest.raises(ValueError, match="points of mixed ambient dimension"):
            accessible_faces(A)
        with pytest.raises(ValueError, match="points of mixed ambient dimension"):
            boundary_witness(A, (1, 0))
    for u in [(1,), (1, 0, 0)]:
        with pytest.raises(ValueError, match="functional has the wrong length"):
            boundary_witness([(0, 0), (1, 2)], u)

def test_accessible_faces_segment():
    certs = accessible_faces([(0,), (1,), (2,)])
    subsets = {c.subset for c in certs}
    assert subsets == {((0,),), ((2,),), ((0,), (1,), (2,))}
    whole = next(c for c in certs if len(c.subset) == 3)
    assert whole.u == (0,)


def test_accessible_faces_square():
    sq = [(0, 0), (1, 0), (0, 1), (1, 1)]
    certs = accessible_faces(sq)
    assert len(certs) == 9  # 4 vertices + 4 edges + the whole square
    sizes = sorted(len(c.subset) for c in certs)
    assert sizes == [1, 1, 1, 1, 2, 2, 2, 2, 4]
    for c in certs:
        assert boundary_witness(sq, c.u) == c.subset


def test_accessible_faces_excludes_interior_vertex_sets():
    pts = [(0,), (1,), (2,)]
    subsets = {c.subset for c in accessible_faces(pts)}
    assert ((1,),) not in subsets  # interior point alone is not a face
    assert ((0,), (1,)) not in subsets


def test_certificates_are_integral():
    for c in accessible_faces([(0, 0), (3, 0), (0, 3)]):
        assert all(isinstance(x, int) for x in c.u)


def test_max_certificate_coordinate():
    certs = accessible_faces([(0,), (1,)])
    assert max_certificate_coordinate(certs) >= 1
    assert max_certificate_coordinate([FaceCertificate(((0,),), (0,))]) == 0


def _star_sweep(d, box=3):
    rng = range(-box, box + 1)
    return all(
        star_condition(d, u)
        for u in itertools.product(rng, repeat=d.dim)
        if any(u)
    )


def test_extension_matches_star_sweep_random():
    rng = random.Random(11)
    for _ in range(60):
        dim = rng.randint(1, 2)
        npts = rng.randint(2, 5)
        A = {tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(npts)}
        A = sorted(A)
        if len(A) < 2:
            continue
        k = rng.randint(1, len(A))
        B = rng.sample(A, k)
        d = ToricData(A=A, B=B, dim=dim)
        res = extension_criterion(d)
        swept = _star_sweep(d)
        if res:
            assert swept
        else:
            assert not star_condition(d, res.star_violator)
            assert not swept


def _accessible_faces_sweep(A):
    # the subset sweep that accessible_faces replaced: one LP per nonempty
    # subset of A
    pts = tuple(sorted({tuple(int(c) for c in a) for a in A}))
    if not pts:
        raise ValueError("empty character set")
    dim = len(pts[0])
    out = []
    for r in range(1, len(pts) + 1):
        for S in itertools.combinations(pts, r):
            u = toric._face_functional(pts, set(S), dim)
            if u is None:
                continue
            if boundary_witness(pts, u) != tuple(sorted(S)):
                raise WitnessError("certified functional has the wrong argmin")
            out.append(FaceCertificate(tuple(sorted(S)), u))
    return out


def _affine_rank(A):
    pts = sorted(set(A))
    rows = [[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]
    return len(_linalg.echelon(rows)[0]) if rows else 0


def _oracle_sets(seed=12, count=1040):
    """Random sets of dimension 1-3 with 1-8 points, every third one drawn
    from a line or a plane (p0 + a v1 + b v2) and every fifth one with a
    point repeated."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        dim = rng.randint(1, 3)
        m = 1 + i % 8
        if i % 3 == 0 and dim > 1:
            p0 = [rng.randint(-2, 2) for _ in range(dim)]
            span = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(rng.randint(1, dim - 1))]
            A = []
            for _ in range(m):
                cs = [rng.randint(-2, 2) for _ in span]
                A.append(tuple(p0[j] + sum(c * v[j] for c, v in zip(cs, span)) for j in range(dim)))
        else:
            box = rng.choice((1, 2, 3))
            A = [tuple(rng.randint(-box, box) for _ in range(dim)) for _ in range(m)]
        if i % 5 == 0:
            A.append(A[rng.randrange(len(A))])
        out.append(A)
    return out


def test_accessible_faces_matches_the_subset_sweep():
    sets = _oracle_sets()
    lower = [A for A in sets if 1 < len(A[0]) and 0 < _affine_rank(A) < len(A[0])]
    assert len(lower) >= 100
    assert any(len(set(A)) == 1 for A in sets)
    assert any(len(set(A)) == 8 for A in sets)
    assert any(len(set(A)) < len(A) for A in sets)
    for A in sets:
        assert repr(accessible_faces(A)) == repr(_accessible_faces_sweep(A)), A


def test_accessible_faces_runs_one_lp_per_face(monkeypatch):
    calls = []
    real = toric._face_functional

    def counting(pts, S, dim):
        calls.append(S)
        return real(pts, S, dim)

    monkeypatch.setattr(toric, "_face_functional", counting)
    for A in _oracle_sets(seed=13, count=40):
        calls.clear()
        result = accessible_faces(A)
        assert len(calls) == len(result)


def _face_functional_tagged(pts, S, dim):
    """``toric._face_functional`` as it stood with tagged LP rows, kept
    verbatim as the reference for the direct build."""
    rest = [p for p in pts if p not in S]
    base = next(iter(sorted(S)))
    # unknowns: u (split into positive and negative parts), c, slacks;
    # rows: equalities over S, inequalities with slack over the rest
    rows = []
    rhs = []
    for p in sorted(S):
        if p == base:
            continue
        rows.append(("eq", [a - b for a, b in zip(p, base)]))
        rhs.append(0)
    for p in rest:
        rows.append(("ge", [a - b for a, b in zip(p, base)]))
        rhs.append(1)
    if not rows:
        return (0,) * dim
    columns = []
    for sign in (1, -1):
        for j in range(dim):
            columns.append([sign * diff[j] for _, diff in rows])
    for i, (kind, _) in enumerate(rows):
        if kind == "ge":
            col = [0] * len(rows)
            col[i] = -1
            columns.append(col)
    x = solve_phase1(columns, rhs).x
    if x is None:
        return None
    u_frac = [x[j] - x[dim + j] for j in range(dim)]
    return tuple(_linalg.primitive(u_frac))


def _pinned_character_sets(seed, count):
    """Sets of dimension 1-4 with 1-8 points in a box, every fourth one on a
    line through a random point."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        dim, m = k % 4 + 1, rng.randint(1, 8)
        if k % 4 == 3:
            p0 = [rng.randint(-2, 2) for _ in range(dim)]
            v = [rng.randint(-2, 2) for _ in range(dim)]
            A = [tuple(a + t * b for a, b in zip(p0, v)) for t in rng.sample(range(-4, 4), m)]
        else:
            box = (3, 2, 1, 1)[dim - 1]
            A = [tuple(rng.randint(-box, box) for _ in range(dim)) for _ in range(m)]
        out.append(A)
    return out


def test_face_functional_matches_the_tagged_row_build():
    rng = random.Random(2024)
    feasible = 0
    for A in _pinned_character_sets(2025, 300):
        pts = tuple(sorted(set(A)))
        for _ in range(6):
            S = set(rng.sample(pts, rng.randint(1, len(pts))))
            u = toric._face_functional(pts, S, len(pts[0]))
            assert u == _face_functional_tagged(pts, S, len(pts[0])), (pts, S)
            feasible += u is not None
    assert 900 <= feasible <= 1_500, feasible


def test_face_certificates_and_extension_results_are_pinned():
    rng = random.Random(1971)
    h = hashlib.sha256()
    faces = refuted = 0
    for A in _pinned_character_sets(1970, 400):
        certs = accessible_faces(A)
        faces += len(certs)
        h.update(repr(certs).encode())
        pts = sorted(set(A))
        B = rng.sample(pts, rng.randint(1, len(pts)))
        res = extension_criterion(ToricData(A, B, len(pts[0])))
        refuted += not res
        h.update(repr(res).encode())
    assert faces >= 2_000 and refuted >= 150, (faces, refuted)
    assert h.hexdigest() == "6acb41a18ecfe8848d3ecdf83f796d76416b18b207a39c12223b36fe7b8a4fbe"
