import itertools
import random

import pytest

from pairstab import _linalg, toric
from pairstab.lattice import WitnessError
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
