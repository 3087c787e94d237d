import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairstab import pairs
from pairstab.lattice import Cocharacter, HeightZeroError, WitnessError, contains
from pairstab.pairs import (
    NotRefuted,
    Pair,
    ProvenSemistable,
    TorusCharacter,
    Unstable,
    characteristic,
    conjugate_pair,
    futaki_character_torus,
    futaki_gen,
    identity_matrix,
    nss_check,
    nss_fixed_torus,
    random_conjugator,
    weight_1ps,
)
from pairstab.rep import Module, Sym, Tensor, Trivial, Wedge, vector, weight_polytope


def _triv():
    return vector(Module(1, Trivial()), {(): 1})


def _sym(d, entries):
    return vector(Module(1, Sym(d)), entries)


def test_pair_requires_matching_rank():
    v = vector(Module(2, Trivial()), {(): 1})
    w = _sym(2, {(2, 0): 1})
    with pytest.raises(ValueError):
        Pair(v, w)


def test_weight_1ps_is_min_pairing():
    w = _sym(3, {(3, 0): 1, (0, 3): 2})
    u = Cocharacter((1, -1))
    assert weight_1ps(w, u) == -3
    assert weight_1ps(w, Cocharacter((-1, 1))) == -3


def test_futaki_gen_difference():
    p = Pair(_triv(), _sym(2, {(2, 0): 1}))
    assert futaki_gen(p, Cocharacter((1, -1))) == 2
    assert futaki_gen(p, Cocharacter((-1, 1))) == -2


def test_fixed_torus_squarefree_cubic():
    # (1, z^3 - z): 0 is inside the weight polytope of w
    p = Pair(_triv(), _sym(3, {(1, 2): -1, (3, 0): 1}))
    assert nss_fixed_torus(p)


def test_fixed_torus_refutes_double_root_with_witness():
    p = Pair(_triv(), _sym(2, {(2, 0): 1}))
    res = nss_fixed_torus(p)
    assert not res
    assert res.witness.coords == (1, -1)
    assert res.futaki == 2
    assert futaki_gen(p, res.witness) == res.futaki


def test_futaki_check_refuses_a_bad_witness(monkeypatch):
    p = Pair(_triv(), _sym(2, {(2, 0): 1}))
    # the negated witness has futaki -2
    monkeypatch.setattr(pairs, "_witness_from_separator", lambda sep, n: Cocharacter((-1, 1)))
    with pytest.raises(WitnessError):
        nss_fixed_torus(p)


def test_nss_check_proves_squarefree_binary():
    p = Pair(_triv(), _sym(3, {(1, 2): -1, (3, 0): 1}))
    verdict = nss_check(p)
    assert isinstance(verdict, ProvenSemistable)
    assert verdict.method == "sl2-binary-forms"


def test_nss_check_sym3_double_root_spec_values():
    # w = e0^2 e1 in degree 3: witness (1,-1), value 1
    p = Pair(_triv(), _sym(3, {(2, 1): 1}))
    verdict = nss_check(p)
    assert isinstance(verdict, Unstable)
    assert verdict.witness.coords == (1, -1)
    assert verdict.futaki == 1


def test_nss_check_translated_double_root_uses_conjugator():
    # (z-1)^2 z: the double root sits away from 0, a translation exposes it
    p = Pair(_triv(), _sym(3, {(1, 2): 1, (2, 1): -2, (3, 0): 1}))
    verdict = nss_check(p)
    assert isinstance(verdict, Unstable)
    assert verdict.conjugator is not None
    conj = conjugate_pair(p, verdict.conjugator)
    assert futaki_gen(conj, verdict.witness) == verdict.futaki
    assert verdict.futaki > 0


def test_nss_check_irrational_class_reports_detail():
    # (z, (z^2-2)^2): refuted only through an irrational root class
    f = _sym(1, {(1, 0): 1})
    g = _sym(4, {(0, 4): 4, (2, 2): -4, (4, 0): 1})
    verdict = nss_check(Pair(f, g))
    assert isinstance(verdict, Unstable)
    assert verdict.witness is None
    assert "root class" in verdict.detail


def test_nss_check_degree_gap_one():
    p = Pair(_sym(1, {(1, 0): 1}), _sym(2, {(0, 2): 1, (2, 0): 1}))
    assert isinstance(nss_check(p), Unstable)


def test_verdict_statuses():
    assert ProvenSemistable("x").status == "proven-semistable"
    assert NotRefuted(5).status == "not-refuted"
    assert Unstable(None, None, None).status == "unstable"


def _xnil_pair():
    amb = Module(2, Tensor((Sym(2), Wedge(2))))
    vmod = Module(2, Tensor((Wedge(2), Wedge(2))))
    w_fix = vector(amb, {((1, 1, 0), (0, 1)): 1})
    v_fix = vector(vmod, {((0, 1), (0, 1)): 1})
    return Pair(v_fix, w_fix)


def test_xnil_pair_not_refuted():
    verdict = nss_check(_xnil_pair(), samples=64, seed=0)
    assert isinstance(verdict, NotRefuted)
    assert verdict.tori_tested == 65


def test_characteristic_nilpotent_fixture():
    amb = Module(2, Tensor((Sym(2), Wedge(2))))
    o = vector(amb, {((2, 0, 0), (0, 1)): 1, ((1, 1, 0), (0, 1)): 1})
    ch = characteristic(o)
    assert ch.chi_min == (2, 2, 0)
    assert ch.h == (Fraction(1, 2), Fraction(1, 2), -1)
    assert ch.ht_sq == Fraction(8, 3)
    assert weight_1ps(o, Cocharacter((-1, 1, 0))) == -2
    for wt in o.support():
        val = sum(Fraction(c) * h for c, h in zip(wt, ch.h))
        assert val >= 2
    assert min(
        sum(Fraction(c) * h for c, h in zip(wt, ch.h)) for wt in o.support()
    ) == 2


def test_characteristic_segment_example():
    m = Module(2, Sym(3))
    v = vector(m, {(2, 1, 0): 1, (1, 2, 0): 1})
    ch = characteristic(v)
    assert ch.chi_min == (Fraction(3, 2), Fraction(3, 2), 0)
    assert ch.chi_min_traceless == (Fraction(1, 2), Fraction(1, 2), -1)
    assert ch.h == (Fraction(2, 3), Fraction(2, 3), Fraction(-4, 3))
    assert ch.ht_sq == Fraction(3, 2)


def test_characteristic_height_zero():
    v = _sym(2, {(2, 0): 1, (0, 2): 1})
    with pytest.raises(HeightZeroError):
        characteristic(v)


def test_futaki_character_cocharacter_torus():
    p = Pair(_triv(), _sym(2, {(2, 0): 1}))
    T = [Cocharacter((1, -1))]
    ch = futaki_character_torus(p, T)
    assert ch.values == (2,)
    assert not ch.is_zero()


def test_futaki_character_zero_for_semistable():
    p = Pair(_triv(), _sym(2, {(1, 1): 1}))
    ch = futaki_character_torus(p, [Cocharacter((1, -1)), Cocharacter((-1, 1))])
    assert ch.is_zero()


def test_futaki_character_diagonal_matrices():
    p = Pair(_triv(), _sym(2, {(2, 0): 1}))
    sigma = ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(1, 2)))
    ch = futaki_character_torus(p, [sigma])
    assert ch.values == (4,)


def test_conjugation_preserves_fixed_torus_on_diagonals():
    p = Pair(_triv(), _sym(3, {(1, 2): -1, (3, 0): 1}))
    diag = ((Fraction(3), Fraction(0)), (Fraction(0), Fraction(1, 3)))
    assert bool(nss_fixed_torus(p)) == bool(nss_fixed_torus(conjugate_pair(p, diag)))


def test_nss_fixed_torus_is_polytope_containment():
    for entries in [{(2, 0): 1}, {(1, 1): 1}, {(2, 0): 1, (0, 2): 3}]:
        p = Pair(_triv(), _sym(2, entries))
        direct = contains(weight_polytope(p.w), weight_polytope(p.v))
        assert bool(nss_fixed_torus(p)) == bool(direct)


sym_entries = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda k: sum(k) == 3),
    st.integers(-3, 3).filter(bool),
    min_size=1,
    max_size=4,
)


@settings(deadline=None, max_examples=50)
@given(sym_entries, sym_entries)
def test_fixed_torus_witness_always_checks(ev, ew):
    p = Pair(_sym(3, ev), _sym(3, ew))
    res = nss_fixed_torus(p)
    if not res:
        assert futaki_gen(p, res.witness) == res.futaki
        assert res.futaki > 0
    else:
        rng = random.Random(0)
        for _ in range(25):
            a = rng.randint(-4, 4)
            assert futaki_gen(p, Cocharacter((a, -a))) <= 0


@settings(deadline=None, max_examples=20)
@given(st.randoms(use_true_random=False))
def test_unstable_verdicts_survive_reconjugation(rng):
    p = Pair(_triv(), _sym(2, {(2, 0): 1}))
    sigma = random_conjugator(rng, 2)
    moved = conjugate_pair(p, sigma)
    verdict = nss_check(moved, samples=16, seed=7)
    assert isinstance(verdict, Unstable)


def test_random_conjugator_det_one():
    from pairstab._linalg import det

    rng = random.Random(5)
    for n in (2, 3):
        for _ in range(20):
            assert det(random_conjugator(rng, n)) == 1
