import importlib.util
import math
import pathlib
import random
from fractions import Fraction

import pytest

from pairstab.energy import (
    HermitianStructure,
    InfimumSample,
    asymptotic_slope,
    default_grid,
    distance_identity_residual,
    energy,
    energy_along_1ps,
    fs_distance,
    sample_energy_infimum,
)
from pairstab.lattice import Cocharacter, pairing
from pairstab.pairs import (
    Pair,
    Unstable,
    conjugate_pair,
    futaki_gen,
    nss_check,
    random_conjugator,
)
from pairstab.rep import Module, Sym, Tensor, Trivial, Wedge, matrix_action, vector


def _triv():
    return vector(Module(1, Trivial()), {(): 1})


def _sym(d, entries):
    return vector(Module(1, Sym(d)), entries)


def _ident(n):
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))


def test_energy_identity_zero():
    p = Pair(_triv(), _sym(2, {(2, 0): 1}))
    assert energy(p, _ident(2)) == 0.0


def test_energy_diagonal_character():
    # diag(a, 1/a) scales e0^2 by a^2, so nu = log a^4
    p = Pair(_triv(), _sym(2, {(2, 0): 1}))
    a = Fraction(3)
    sigma = ((a, Fraction(0)), (Fraction(0), 1 / a))
    assert abs(energy(p, sigma) - 4 * math.log(3)) < 1e-12


def test_energy_antisymmetry():
    v = _sym(2, {(2, 0): 1, (0, 2): 2})
    w = _sym(2, {(1, 1): 3})
    rng = random.Random(1)
    for _ in range(10):
        sigma = random_conjugator(rng, 2)
        assert energy(Pair(v, w), sigma) + energy(Pair(w, v), sigma) == 0.0


def test_energy_difference_scale_invariant():
    v = _sym(2, {(2, 0): 1})
    w = _sym(2, {(1, 1): 1, (0, 2): 1})
    v2 = _sym(2, {(2, 0): 7})
    rng = random.Random(2)
    sig = random_conjugator(rng, 2)
    tau = random_conjugator(rng, 2)
    d1 = energy(Pair(v, w), sig) - energy(Pair(v, w), tau)
    d2 = energy(Pair(v2, w), sig) - energy(Pair(v2, w), tau)
    assert abs(d1 - d2) < 1e-9


def test_bombieri_structure_guard():
    with pytest.raises(ValueError):
        HermitianStructure(Module(2, Sym(2)), "bombieri")
    with pytest.raises(ValueError):
        HermitianStructure(Module(1, Sym(2)), "no-such-kind")


def test_bombieri_norm_values():
    H = HermitianStructure(Module(1, Sym(4)), "bombieri")
    x = vector(Module(1, Sym(4)), {(4, 0): 1, (2, 2): 3})
    assert H.norm_sq(x) == Fraction(5, 2)
    assert H.basis_norm_sq((2, 2)) == Fraction(1, 6)


def test_bombieri_rotation_isometry_exact():
    H = HermitianStructure(Module(1, Sym(4)), "bombieri")
    x = vector(Module(1, Sym(4)), {(4, 0): 2, (3, 1): -1, (1, 3): 5})
    rot = ((Fraction(3, 5), Fraction(4, 5)), (Fraction(-4, 5), Fraction(3, 5)))
    assert H.norm_sq(matrix_action(rot, x)) == H.norm_sq(x)


def test_bombieri_energy_su_invariance():
    m = Module(1, Sym(3))
    v = vector(m, {(3, 0): 1, (0, 3): -2})
    w = vector(m, {(2, 1): 1, (1, 2): 1})
    p = Pair(v, w)
    H = (HermitianStructure(m, "bombieri"), HermitianStructure(m, "bombieri"))
    rot = ((Fraction(3, 5), Fraction(4, 5)), (Fraction(-4, 5), Fraction(3, 5)))
    rng = random.Random(4)
    for _ in range(5):
        sigma = random_conjugator(rng, 2)
        rotated = tuple(
            tuple(sum(rot[i][k] * sigma[k][j] for k in range(2)) for j in range(2))
            for i in range(2)
        )
        assert abs(energy(p, rotated, H) - energy(p, sigma, H)) <= 1e-12


def test_structure_module_mismatch():
    H = HermitianStructure(Module(1, Sym(2)))
    with pytest.raises(ValueError):
        H.norm_sq(_sym(3, {(3, 0): 1}))


def test_fs_distance_values():
    m = Module(1, Sym(1))
    H = HermitianStructure(m)
    e0 = vector(m, {(1, 0): 1})
    e1 = vector(m, {(0, 1): 1})
    diag = vector(m, {(1, 0): 1, (0, 1): 1})
    assert abs(fs_distance(e0, e1, H) - math.pi / 2) < 1e-12
    assert abs(fs_distance(e0, diag, H) - math.pi / 4) < 1e-12
    assert fs_distance(e0, e0, H) == 0.0


def test_distance_identity_residual_tolerances():
    p = Pair(_triv(), _sym(2, {(2, 0): 1, (0, 2): 1}))
    assert distance_identity_residual(p, _ident(2)) < 1e-12
    rng = random.Random(6)
    for _ in range(40):
        sigma = random_conjugator(rng, 2)
        if any(abs(x) > 5 for row in sigma for x in row):
            continue
        assert distance_identity_residual(p, sigma) < 1e-9


def test_profile_pure_weight_slope_matches_futaki():
    u = Cocharacter((1, -1))
    for d in (2, 3, 5):
        for k in range(d + 1):
            p = Pair(_triv(), _sym(d, {(k, d - k): 1}))
            prof = energy_along_1ps(p, u)
            slope = asymptotic_slope(prof)
            assert abs(slope - (2 * k - d)) < 1e-9
            assert futaki_gen(p, u) == 2 * k - d


def test_profile_finite_deep():
    p = Pair(_triv(), _sym(2, {(2, 0): 1}))
    prof = energy_along_1ps(p, Cocharacter((1, -1)), grid=[1.0, 1e-4, 1e-9])
    t, nu = prof.samples[-1]
    assert t == 1e-9
    assert abs(nu - 4 * math.log(1e-9)) < 1e-9


def test_profile_matches_direct_energy_at_milli():
    v = _sym(2, {(2, 0): 1, (0, 2): 3})
    w = _sym(2, {(1, 1): 2, (2, 0): -1})
    p = Pair(v, w)
    t = Fraction(1, 1000)
    sigma = ((t, Fraction(0)), (Fraction(0), 1 / t))
    direct = energy(p, sigma)
    prof = energy_along_1ps(p, Cocharacter((1, -1)), grid=[1.0, 0.1, 1e-3])
    assert abs(prof.values()[-1] - direct) < 1e-8


def test_profile_self_pair_constant():
    v = _sym(3, {(3, 0): 1, (1, 2): -1})
    prof = energy_along_1ps(Pair(v, v), Cocharacter((1, -1)))
    assert all(nu == 0.0 for nu in prof.values())


def test_profile_semistable_slopes_nonpositive():
    # squarefree cubic: 0 lies in the weight polytope, both orientations drift down
    p = Pair(_triv(), _sym(3, {(1, 2): -1, (3, 0): 1}))
    for coords in ((1, -1), (-1, 1)):
        slope = asymptotic_slope(energy_along_1ps(p, Cocharacter(coords)))
        assert slope <= 1e-9


def test_profile_nilpotent_orbit_slope():
    amb = Module(2, Tensor((Sym(2), Wedge(2))))
    vmod = Module(2, Tensor((Wedge(2), Wedge(2))))
    o = vector(amb, {((2, 0, 0), (0, 1)): 1, ((1, 1, 0), (0, 1)): 1})
    v_fix = vector(vmod, {((0, 1), (0, 1)): 1})
    p = Pair(v_fix, o)
    tail = [t * 1e-5 for t in default_grid(1e-4)]
    prof = energy_along_1ps(p, Cocharacter((-1, 1, 0)), grid=tail)
    assert abs(asymptotic_slope(prof) - (-2)) < 1e-9


def test_grid_validation():
    p = Pair(_triv(), _sym(2, {(2, 0): 1}))
    u = Cocharacter((1, -1))
    with pytest.raises(ValueError):
        energy_along_1ps(p, u, grid=[])
    with pytest.raises(ValueError):
        energy_along_1ps(p, u, grid=[1.0, 1.5])
    with pytest.raises(ValueError):
        energy_along_1ps(p, u, grid=[0.5, 0.5])
    with pytest.raises(ValueError):
        energy_along_1ps(p, u, grid=[0.5, 1e-3, 0.0])


def test_default_grid_shape():
    g = default_grid()
    assert g[0] == 1.0
    assert len(g) == 25
    assert all(b < a for a, b in zip(g, g[1:]))
    assert min(g) >= 1e-6
    with pytest.raises(ValueError):
        default_grid(2.0)


def test_slope_validation():
    from pairstab.energy import EnergyProfile

    with pytest.raises(ValueError):
        asymptotic_slope(EnergyProfile((1, -1), ((1.0, 0.0), (0.5, 0.0))))
    with pytest.raises(ValueError):
        asymptotic_slope(
            EnergyProfile((1, -1), ((1.0, 0.0), (0.5, 0.0), (0.2, 0.0)))
        )


def test_sampler_deterministic_and_bounded():
    p = Pair(_triv(), _sym(2, {(2, 0): 1, (0, 2): 1}))
    a = sample_energy_infimum(p, samples=30, seed=5)
    b = sample_energy_infimum(p, samples=30, seed=5)
    assert isinstance(a, InfimumSample)
    assert a.best_value == b.best_value
    assert a.best_element == b.best_element
    assert a.tried == 31
    assert a.best_value <= energy(p, _ident(2))


def _log_norm_sq_per_point(exps, t):
    """The profile term as it stood with one float conversion per grid
    point, kept verbatim as the oracle of the per-profile conversion."""
    emin = min(exps)
    acc = 0.0
    for e, s in exps.items():
        acc += float(s) * t ** (2 * (e - emin))
    return 2.0 * emin * math.log(t) + math.log(acc)


def _exact_weights(v, u, H):
    out = {}
    for key, c in v.coeffs:
        e = pairing(v.module.weight_of(key), u)
        out[e] = out.get(e, Fraction(0)) + c * c * H.basis_norm_sq(key)
    return out


def test_profiles_match_per_point_conversion_on_the_benchmark_pairs():
    # the seed-1 pair-verdicts pool of the benchmark: every witnessed
    # refutation's profile along its witness, on the benchmark's grid
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    pool = workloads.PairVerdicts(1)
    profiles = 0
    for block in pool.blocks:
        for inst in block:
            verdict = nss_check(inst[1])
            if not isinstance(verdict, Unstable) or verdict.witness is None:
                continue
            p = conjugate_pair(inst[1], verdict.conjugator)
            u = verdict.witness
            hv, hw = HermitianStructure(p.v.module), HermitianStructure(p.w.module)
            ev, ew = _exact_weights(p.v, u, hv), _exact_weights(p.w, u, hw)
            # the benchmark's deep grid, and the default one, where the
            # higher exponents still reach the sums
            for grid in (workloads.ENERGY_GRID, default_grid()):
                profile = energy_along_1ps(p, u, grid)
                want = tuple(
                    (t, _log_norm_sq_per_point(ew, t) - _log_norm_sq_per_point(ev, t))
                    for t in grid
                )
                assert [(a.hex(), b.hex()) for a, b in profile.samples] == [
                    (a.hex(), b.hex()) for a, b in want
                ]
            profiles += 1
    assert profiles >= 500, profiles
