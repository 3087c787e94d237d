import hashlib
import itertools
import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairstab import _linalg, binaryforms, pairs
from pairstab.lattice import Cocharacter, HeightZeroError, WitnessError, contains
from pairstab.pairs import (
    NotRefuted,
    Pair,
    ProvenSemistable,
    TorusCharacter,
    Unstable,
    _as_binary_form,
    _sl2_refutation_conjugators,
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
from pairstab.rep import (
    ElementaryProduct,
    Module,
    Sym,
    Tensor,
    Trivial,
    Wedge,
    image_supports,
    matrix_action,
    vector,
    weight_polytope,
)


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


def test_negative_samples_are_refused():
    with pytest.raises(ValueError, match="samples must be nonnegative"):
        nss_check(_xnil_pair(), samples=-5)


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


def _random_conjugator_fraction(rng, n):
    """The Fraction-arithmetic ``random_conjugator``, kept verbatim."""
    mat = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(3, 6)):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        # right-multiply by I + c E_ij
        for r in range(n):
            mat[r][j] += c * mat[r][i]
    return tuple(tuple(row) for row in mat)


def test_random_conjugator_matches_fraction_build():
    new, old = random.Random(11), random.Random(11)
    for k in range(600):
        n = 2 + k % 3
        assert repr(random_conjugator(new, n)) == repr(_random_conjugator_fraction(old, n))
    assert new.random() == old.random()


def test_int_conjugator_draws_what_random_conjugator_draws():
    # the sweep's integer draws: the same matrices and the same generator
    # state as random_conjugator and the Fraction build above
    ints, fractions, old = random.Random(12), random.Random(12), random.Random(12)
    for k in range(600):
        n = 2 + k % 3
        sigma = pairs._int_conjugator(ints, n)
        assert {type(x) for row in sigma for x in row} == {int}
        # the actions skip their determinant check on these draws
        assert isinstance(sigma, ElementaryProduct) and _linalg.det(sigma) == 1
        wrapped = tuple(tuple(Fraction(x) for x in row) for row in sigma)
        assert repr(wrapped) == repr(random_conjugator(fractions, n))
        assert repr(wrapped) == repr(_random_conjugator_fraction(old, n))
        assert ints.getstate() == fractions.getstate() == old.getstate()


def test_swept_conjugator_is_a_fraction_matrix():
    rng = random.Random(41)
    swept = 0
    for i in range(400):
        verdict = nss_check(_sl3_pair(rng), samples=16, seed=i)
        if isinstance(verdict, Unstable) and verdict.conjugator != identity_matrix(3):
            assert isinstance(verdict.conjugator, tuple)
            assert all(isinstance(row, tuple) for row in verdict.conjugator)
            assert {type(x) for row in verdict.conjugator for x in row} == {Fraction}
            swept += 1
    assert swept >= 30, swept


# ---------------------------------------------------------------------------
# the support-memoised sweep against the sweep without the memo


def _sl2_refutation_conjugator_list(f, g, rng):
    """``_sl2_refutation_conjugators`` as it stood before its draws were made
    lazy and the identity moved into it, kept verbatim."""
    one = Fraction(1)
    zero = Fraction(0)
    flip = ((zero, -one), (one, zero))
    out = [flip]
    roots = set(binaryforms.rational_roots(g)) | set(binaryforms.rational_roots(f))
    for r in sorted(roots):
        out.append(((one, zero), (r, one)))
    for c in (1, -1, 2, -2, 3, -3):
        out.append(((one, zero), (Fraction(c), one)))
    for _ in range(24):
        out.append(random_conjugator(rng, 2))
    return out


def _nss_check_unmemoised(p, samples=64, seed=0, decider=True):
    """``nss_check`` as it stood before the support memo, kept verbatim
    apart from the name of the candidate list: every torus of the sweep
    runs ``nss_fixed_torus``."""
    rng = random.Random(seed)
    f = _as_binary_form(p.v)
    g = _as_binary_form(p.w)
    if f is not None and g is not None:
        if decider and binaryforms.sl2_pair_nss(f, g):
            return ProvenSemistable("sl2-binary-forms")
        candidates = [identity_matrix(2)] + _sl2_refutation_conjugator_list(f, g, rng)
        for sigma in candidates:
            res = nss_fixed_torus(conjugate_pair(p, sigma))
            if not res:
                return Unstable(sigma, res.witness, res.futaki)
        if decider:
            return Unstable(
                None,
                None,
                None,
                "order criterion fails on a root class with no rational point",
            )
        return NotRefuted(len(candidates))
    fixed = nss_fixed_torus(p)
    if not fixed:
        return Unstable(identity_matrix(p.N + 1), fixed.witness, fixed.futaki)
    for _ in range(samples):
        sigma = random_conjugator(rng, p.N + 1)
        res = nss_fixed_torus(conjugate_pair(p, sigma))
        if not res:
            return Unstable(sigma, res.witness, res.futaki)
    return NotRefuted(samples + 1)


# irreducible quadratics over Q, constant coefficient first
_QUADRATICS = ((1, 0, 1), (-2, 0, 1), (1, 1, 1), (-3, 0, 1), (2, 0, 1))


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _binary_vector(rng, degree, quadratic):
    """A binary form of the given degree from its roots: rational ones (so
    repeated roots are common), irreducible quadratic factors when
    ``quadratic``, and sometimes a root at infinity; degree 0 is sometimes
    the trivial module instead."""
    if degree == 0 and rng.random() < 0.5:
        return vector(Module(1, Trivial()), {(): rng.choice((1, 2))})
    coeffs = [Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 3)))]
    left = degree - (rng.random() < 0.25 and degree > 0)
    while left:
        if quadratic and left >= 2 and rng.random() < 0.5:
            coeffs = _poly_mul(coeffs, rng.choice(_QUADRATICS))
            left -= 2
        else:
            coeffs = _poly_mul(coeffs, [-Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))), 1])
            left -= 1
    return vector(
        Module(1, Sym(degree)), {(i, degree - i): c for i, c in enumerate(coeffs) if c}
    )


def _sl2_pair(rng, quadratic):
    dg = rng.randint(1, 6)
    return Pair(
        _binary_vector(rng, rng.randint(0, dg), quadratic),
        _binary_vector(rng, dg, quadratic),
    )


def _sl3_vector(rng, d, size):
    if d == 0:
        return vector(Module(2, Trivial()), {(): 1})
    keys = [k for k in itertools.product(range(d + 1), repeat=3) if sum(k) == d]
    picked = rng.sample(keys, min(size, len(keys)))
    return vector(
        Module(2, Sym(d)),
        {k: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2))) for k in picked},
    )


def _sl3_pair(rng):
    return Pair(
        _sl3_vector(rng, rng.randint(0, 3), rng.randint(1, 3)),
        _sl3_vector(rng, rng.randint(1, 3), rng.randint(1, 4)),
    )


def _moved_conic(rng):
    """(1, smooth conic) moved by a random SL(3) element: a smooth conic is
    stable, so no torus refutes the pair."""
    fermat = vector(Module(2, Sym(2)), {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    w = matrix_action(random_conjugator(rng, 3), fermat)
    return Pair(vector(Module(2, Trivial()), {(): 1}), w)


def _sweep_cases(seed):
    """1,001 pinned (pair, nss_check keywords) cases: 100 SL(2) pairs with
    rational or irrational roots under both ``decider`` settings, 795 SL(3)
    ``Sym(<=3)`` pairs (most on a short sweep) and 6 moved smooth conics."""
    rng = random.Random(seed)
    cases = []
    for i in range(100):
        p = _sl2_pair(rng, i % 2 == 1)
        cases += [(p, {"decider": True}), (p, {"decider": False})]
    for i in range(795):
        cases.append((_sl3_pair(rng), {"samples": 64 if i % 25 == 0 else 4, "seed": i}))
    cases += [(_moved_conic(rng), {}) for _ in range(6)]
    return cases


def test_memoised_sweep_matches_unmemoised_sweep():
    outcomes = {}
    for p, kwargs in _sweep_cases(606):
        verdict = nss_check(p, **kwargs)
        assert repr(verdict) == repr(_nss_check_unmemoised(p, **kwargs))
        kind = (p.N, type(verdict).__name__, getattr(verdict, "witness", 0) is None)
        outcomes[kind] = outcomes.get(kind, 0) + 1
        if p.w.module == Module(2, Sym(2)) and not kwargs:
            assert verdict == NotRefuted(65)
    # refutations with and without a witness, proofs and exhausted sweeps
    assert outcomes[(1, "Unstable", False)] >= 50
    assert outcomes[(1, "Unstable", True)] >= 5
    assert outcomes[(1, "ProvenSemistable", False)] >= 20
    assert outcomes[(1, "NotRefuted", False)] >= 20
    assert outcomes[(2, "Unstable", False)] >= 500
    assert outcomes[(2, "NotRefuted", False)] >= 100


def test_fixed_torus_runs_once_per_support_key(monkeypatch):
    tested, met, built = [], [], []
    test = pairs._supports_test

    def counting_test(vs, ws):
        tested.append((vs, ws))
        return test(vs, ws)

    def recording_supports(sigma, vectors):
        supports = image_supports(sigma, vectors)
        met.append(supports)
        return supports

    monkeypatch.setattr(pairs, "_supports_test", counting_test)
    monkeypatch.setattr(pairs, "image_supports", recording_supports)
    monkeypatch.setattr(pairs, "conjugate_pair", lambda p, sigma: built.append(sigma))
    monkeypatch.setattr(pairs, "matrix_action", lambda sigma, v: built.append(sigma))
    rng = random.Random(33)
    exhausted = 0
    for p, kwargs in [(_moved_conic(rng), {}) for _ in range(3)] + [
        (_sl2_pair(rng, i % 2 == 1), {"decider": False}) for i in range(40)
    ]:
        tested.clear()
        met.clear()
        verdict = nss_check(p, **kwargs)
        # every support pair the sweep met was tested, and tested once, and
        # no conjugated pair was built
        assert met
        assert len(tested) == len(set(tested))
        assert set(met) <= set(tested)
        assert built == []
        if isinstance(verdict, NotRefuted):
            assert len(tested) < verdict.tori_tested
            exhausted += 1
    assert exhausted >= 10


def _verdict_digest(cases):
    h = hashlib.sha256()
    for p, decider in cases:
        verdict = nss_check(p, decider=decider)
        conj = None
        if isinstance(verdict, Unstable) and verdict.conjugator is not None:
            conj = conjugate_pair(p, verdict.conjugator)
        h.update(repr((verdict, conj)).encode())
    return h.hexdigest()


def test_verdicts_and_conjugated_pairs_match_pinned_digest():
    # SHA-256 of the repr of every (verdict, conjugated pair) on a pool of
    # 328 pairs, as computed before the support memo and the integer action;
    # any change of verdict, conjugator, witness or futaki value moves it
    rng = random.Random(2024)
    cases = [(_sl2_pair(rng, i % 2 == 1), i % 4 < 2) for i in range(200)]
    cases += [(_sl3_pair(rng), True) for _ in range(120)]
    cases += [(_moved_conic(rng), True) for _ in range(8)]
    assert _verdict_digest(cases) == (
        "f310b4aec578c8c1925a0869337fad724718ecce45373888f3079e9f13b87240"
    )


# ---------------------------------------------------------------------------
# the integer order gate against the polytope test at each candidate torus


def _int_coeffs(values):
    """The rational values times their least common denominator."""
    den = math.lcm(*(Fraction(c).denominator for c in values))
    return [int(c * den) for c in values]


def _sym_matrix(sigma, d):
    """Column i holds the x0-degree coefficients of L0^i L1^(d-i), where
    sigma^T x = (L0, L1), cleared over one denominator: the integer matrix
    of F -> F(sigma^T x) on degree-d forms, up to a positive scale."""
    s00, s01, s10, s11 = _int_coeffs([x for row in sigma for x in row])
    powers0, powers1 = [[1]], [[1]]
    for _ in range(d):
        # low x0-degree first
        powers0.append(_poly_mul(powers0[-1], [s10, s00]))
        powers1.append(_poly_mul(powers1[-1], [s11, s01]))
    cols = [_poly_mul(powers0[i], powers1[d - i]) for i in range(d + 1)]
    return [list(row) for row in zip(*cols)]


def _gate_pairs(seed, count):
    """Pinned SL(2) pairs from ``_sl2_pair`` (trivial f, roots at infinity,
    rational roots with denominator 2, irreducible quadratics); every fifth
    one swapped, so deg f > deg g."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        p = _sl2_pair(rng, i % 2 == 1)
        out.append(Pair(p.w, p.v) if i % 5 == 4 else p)
    return out


def test_order_gate_matches_polytope_test_on_every_candidate():
    # The polytope test at a torus reads only the two weight segments of
    # the conjugated pair.  Every candidate expands both conjugated forms in
    # integers, independently of ``rep``, and keys the polytope verdict by
    # the segments' ends (times 2, centred); a new key runs nss_fixed_torus
    # on conjugate_pair, whose supports must have those ends.
    verdicts, sym = {}, {}
    seen = dict.fromkeys(
        ("trivial f", "infinity", "non-integral root", "quadratic", "e > d", "irrational"), 0
    )
    flagged = candidates = 0
    for p in _gate_pairs(77, 1000):
        f, g = _as_binary_form(p.v), _as_binary_form(p.w)
        fi, gi = _int_coeffs(f.coeffs), _int_coeffs(g.coeffs)
        sigmas = list(_sl2_refutation_conjugators(f, g, random.Random(0)))
        # identity, flip, one shear per rational root, 6 shears, 24 random
        roots = [sigma[1][0] for sigma in sigmas[2:-30]]
        seen["trivial f"] += p.v.module.shape == Trivial()
        seen["infinity"] += f.ord_infinity + g.ord_infinity > 0
        seen["non-integral root"] += any(r.denominator > 1 for r in roots)
        seen["quadratic"] += any(
            h.affine_degree
            > sum(binaryforms.order_at(hi, r.numerator, r.denominator) for r in roots)
            for h, hi in ((f, fi), (g, gi))
        )
        seen["e > d"] += f.degree > g.degree
        any_flag = False
        for sigma in sigmas:
            key = []
            entries = tuple((x.numerator, x.denominator) for row in sigma for x in row)
            for a in (fi, gi):
                if (entries, len(a)) not in sym:
                    sym[entries, len(a)] = _sym_matrix(sigma, len(a) - 1)
                image = [sum(m * c for m, c in zip(row, a)) for row in sym[entries, len(a)]]
                nonzero = [2 * j - len(a) + 1 for j, t in enumerate(image) if t]
                key += [nonzero[0], nonzero[-1]]
            key = tuple(key)
            if key not in verdicts:
                q = conjugate_pair(p, sigma)
                for v, ends in zip((q.v, q.w), (key[:2], key[2:])):
                    xs = [2 * wt[0] - sum(wt) for wt in v.support()]
                    assert (min(xs), max(xs)) == ends
                verdicts[key] = not nss_fixed_torus(q)
            gate = pairs._order_refutes(fi, gi, sigma)
            assert gate == verdicts[key]
            any_flag |= gate
            flagged += gate
            candidates += 1
        seen["irrational"] += not any_flag and not binaryforms.sl2_pair_nss(f, g)
    assert candidates >= 30_000
    assert 2_000 <= flagged <= candidates - 20_000
    assert min(seen.values()) >= 30, seen


def test_decider_runs_one_torus_per_witnessed_refutation(monkeypatch):
    tested = []
    test = pairs._supports_test

    def counting_test(vs, ws):
        tested.append((vs, ws))
        return test(vs, ws)

    monkeypatch.setattr(pairs, "_supports_test", counting_test)
    kinds = {"witnessed": 0, "irrational": 0, "semistable": 0}
    for p in _gate_pairs(78, 300):
        tested.clear()
        verdict = nss_check(p)
        if isinstance(verdict, Unstable) and verdict.witness is not None:
            assert len(tested) == 1
            q = conjugate_pair(p, verdict.conjugator)
            assert tested[0] == (q.v.support(), q.w.support())
            kinds["witnessed"] += 1
        else:
            assert tested == []
            kinds["irrational" if isinstance(verdict, Unstable) else "semistable"] += 1
    assert min(kinds.values()) >= 10, kinds


def test_decider_draws_no_conjugator_when_deg_f_at_most_deg_g(monkeypatch):
    # a flagged point is then a root of g, and the identity, the flip and
    # the root shears reach 0, infinity and every rational root
    drawn = []
    draw = pairs.random_conjugator
    monkeypatch.setattr(pairs, "random_conjugator", lambda rng, n: drawn.append(n) or draw(rng, n))
    kinds = {"witnessed": 0, "irrational": 0, "semistable": 0}
    for p in _gate_pairs(79, 300):
        f, g = _as_binary_form(p.v), _as_binary_form(p.w)
        if f.degree > g.degree:
            continue
        fi, gi = _int_coeffs(f.coeffs), _int_coeffs(g.coeffs)
        full = list(_sl2_refutation_conjugators(f, g, random.Random(0)))
        first = next((s for s in full if pairs._order_refutes(fi, gi, s)), None)
        drawn.clear()
        verdict = nss_check(p)
        assert drawn == []
        # the same torus as on the full candidate list refutes
        if isinstance(verdict, ProvenSemistable):
            assert first is None
            # decider=False still sweeps every candidate
            assert nss_check(p, decider=False) == NotRefuted(len(full))
            assert len(drawn) == 24
            kinds["semistable"] += 1
        elif verdict.witness is None:
            assert first is None
            kinds["irrational"] += 1
        else:
            assert verdict.conjugator == first
            kinds["witnessed"] += 1
    assert min(kinds.values()) >= 10, kinds


_FORGED_GATE = """
import sys
from pairstab import pairs
from pairstab.lattice import WitnessError
from pairstab.rep import Module, Sym, Trivial, vector

if __debug__:
    sys.exit("not running under -O")
# (1, z (z - 1)^2): unstable through the double root at 1, which the
# diagonal torus does not see; a forged gate flags that torus anyway
pair = pairs.Pair(
    vector(Module(1, Trivial()), {(): 1}),
    vector(Module(1, Sym(3)), {(1, 2): 1, (2, 1): -2, (3, 0): 1}),
)
pairs._order_refutes = lambda f, g, sigma: True
try:
    pairs.nss_check(pair)
except WitnessError:
    print("refused")
else:
    sys.exit("accepted")
"""


def test_forged_gate_is_refused(monkeypatch, src_env):
    p = Pair(_triv(), _sym(3, {(1, 2): 1, (2, 1): -2, (3, 0): 1}))
    assert nss_fixed_torus(p)
    monkeypatch.setattr(pairs, "_order_refutes", lambda f, g, sigma: True)
    with pytest.raises(WitnessError):
        nss_check(p)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _FORGED_GATE], capture_output=True, text=True, env=src_env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["refused"]
