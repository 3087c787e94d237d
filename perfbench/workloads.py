"""The four benchmark workloads: seeded inputs, one instance at a time, and
an exact check of every answer.

Each workload is built from a seed into a pool of blocks.  A block is a list
of instances with a fixed composition (the same number of instances of each
kind and size in every block), shuffled within itself, so a run that stops at
a block boundary always measures the same mix.  ``run`` answers one instance
through the package's public API; ``check`` verifies the answer exactly
against the workload's oracle (see README.md) and returns an error string or
``None``.  Checks use explicit comparisons, never ``assert``.

Package calls go through module attributes (``lattice.member``), never names
imported by value, so the traced run sees every call.
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
import random
from fractions import Fraction

from pairstab import binaryforms, cli, lattice, pairs, rep, toric

# the package re-exports the function ``energy`` over the submodule's name
energy = importlib.import_module("pairstab.energy")

# Energy profiles are fitted deep in the tail, where the next exponent's
# contribution to the slope is below 1e-13 times the coefficient ratio.
ENERGY_GRID = tuple(10.0 ** (-k / 4) for k in range(32, 65))
SLOPE_TOL = 1e-3


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _chunk_blocks(rng, strata, per_block):
    """Blocks drawing ``per_block[i]`` items from ``strata[i]`` each."""
    nblocks = min(len(s) // k for s, k in zip(strata, per_block))
    blocks = []
    for b in range(nblocks):
        block = []
        for s, k in zip(strata, per_block):
            block.extend(s[b * k:(b + 1) * k])
        rng.shuffle(block)
        blocks.append(block)
    return blocks


class Workload:
    """A named pool of instance blocks plus how to answer and check one."""

    name = ""
    # blocks run by the traced run; a fixed set so its counts repeat exactly
    trace_blocks = 1

    def run(self, inst):
        raise NotImplementedError

    def check(self, inst, out):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# orbit-dominance


def _dominated(lam, mu):
    """Integer form of ``rep.dominance_leq`` on equal-length partitions, used
    only to choose the input mix: centred partial sums, times the length."""
    n, tl, tm = len(lam), sum(lam), sum(mu)
    sl = sm = 0
    for k in range(n):
        sl += lam[k]
        sm += mu[k]
        if n * sl - (k + 1) * tl > n * sm - (k + 1) * tm:
            return False
    return True


def _scaled(points):
    """Points as integer vectors over one common denominator."""
    den = math.lcm(*(c.denominator for p in points for c in p))
    return den, [tuple(int(c * den) for c in p) for p in points]


def _check_separator(sep, scaled, witness):
    """Exact recheck: the separator is at most its threshold on every vertex
    (``scaled`` = common denominator and integer vertices) and above it at
    the witness."""
    if sep is None:
        return "refutation without a separator"
    if sep.witness != witness:
        return "separator witness is not the refuted point"
    den, vertices = scaled
    cden = math.lcm(*(c.denominator for c in sep.coeffs))
    coeffs = [int(c * cden) for c in sep.coeffs]
    thr = sep.threshold * cden * den
    if any(_dot(coeffs, v) * thr.denominator > thr.numerator for v in vertices):
        return "separator cuts a vertex of the outer polytope"
    if not _dot(sep.coeffs, witness) > sep.threshold:
        return "separator does not cut off the witness"
    return None


class OrbitDominance(Workload):
    """All 70x70 ``member`` queries between Weyl-orbit polytopes of partitions
    with at most 4 parts of size at most 4 (padded to 5 coordinates), plus
    ``contains`` on a seeded sample of pairs."""

    name = "orbit-dominance"
    trace_blocks = 20
    MEMBER_PER_BLOCK = 49
    # every CONTAINED_EVERY-th block's ``contains`` query is a dominated pair,
    # whose answer scans every inner vertex; the inner orbit sizes cycle
    CONTAINED_EVERY = 10
    CONTAINED_ORBITS = (5, 10, 20, 30, 60)

    def __init__(self, seed: int):
        rng = random.Random(seed)
        parts = [()]
        for k in range(1, 5):
            parts.extend(itertools.combinations_with_replacement(range(4, 0, -1), k))
        self.parts = [p + (0,) * (5 - len(p)) for p in sorted(set(parts))]
        self.polys = {p: rep.weyl_orbit_polytope(p) for p in self.parts}
        self.reps = {p: lattice.Weight(p).traceless() for p in self.parts}
        # the check's oracle tables, filled on first use so that set-up time
        # covers only the inputs and the polytopes the instances query
        self._dominates = {}
        self._scaled = {}
        members = [("member", lam, mu) for lam in self.parts for mu in self.parts]
        rng.shuffle(members)
        nblocks = len(members) // self.MEMBER_PER_BLOCK
        pairs_by_orbit = {}
        apart = []
        for lam in self.parts:
            for mu in self.parts:
                if lam == mu:
                    continue
                if not _dominated(lam, mu):
                    apart.append((lam, mu))
                    continue
                orbit = len(self.polys[lam].vertices)
                pairs_by_orbit.setdefault(orbit, []).append((lam, mu))
        contains = []
        for b in range(nblocks):
            if b % self.CONTAINED_EVERY == self.CONTAINED_EVERY - 1:
                k = b // self.CONTAINED_EVERY % len(self.CONTAINED_ORBITS)
                lam, mu = rng.choice(pairs_by_orbit[self.CONTAINED_ORBITS[k]])
            else:
                lam, mu = rng.choice(apart)
            contains.append(("contains", lam, mu))
        self.blocks = _chunk_blocks(rng, [members, contains], [self.MEMBER_PER_BLOCK, 1])

    def run(self, inst):
        kind, lam, mu = inst
        if kind == "member":
            return lattice.member(self.polys[mu], self.reps[lam])
        return lattice.contains(self.polys[mu], self.polys[lam])

    def dominates(self, lam, mu):
        if (lam, mu) not in self._dominates:
            self._dominates[lam, mu] = rep.dominance_leq(lam, mu)
        return self._dominates[lam, mu]

    def scaled(self, mu):
        if mu not in self._scaled:
            self._scaled[mu] = _scaled(self.polys[mu].vertices)
        return self._scaled[mu]

    def check(self, inst, out):
        kind, lam, mu = inst
        want = self.dominates(lam, mu)
        if bool(out) != want:
            return f"{kind}({mu}, {lam}) = {bool(out)}, dominance says {want}"
        if want:
            return None
        sep = out.separator
        if kind == "member":
            return _check_separator(sep, self.scaled(mu), self.reps[lam])
        if sep is None or sep.witness not in self.polys[lam].vertices:
            return "containment separator witness is not an inner vertex"
        return _check_separator(sep, self.scaled(mu), sep.witness)


# ---------------------------------------------------------------------------
# pair-verdicts

# irreducible quadratics over Q, constant coefficient first
_QUADRATICS = ((1, 0, 1), (-2, 0, 1), (1, 1, 1), (-3, 0, 1), (2, 0, 1))


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


class RootedForm:
    """Binary form given by its root data: rational roots and irreducible
    quadratic factors with multiplicities, plus a root at infinity of order
    ``inf`` (declared degree above the affine one)."""

    def __init__(self, lead, roots, quads, inf):
        self.roots = roots  # {int root: multiplicity}
        self.quads = quads  # {quadratic coefficient tuple: multiplicity}
        self.inf = inf
        coeffs = [lead]
        for r, k in roots.items():
            for _ in range(k):
                coeffs = _poly_mul(coeffs, [-r, 1])
        for q, k in quads.items():
            for _ in range(k):
                coeffs = _poly_mul(coeffs, list(q))
        self.degree = len(coeffs) - 1 + inf
        self.form = binaryforms.form(coeffs, self.degree)

    def order(self, point):
        if point == "inf":
            return self.inf
        if isinstance(point, tuple):
            return self.quads.get(point, 0)
        return self.roots.get(point, 0)


def _sl2_oracle(f: RootedForm, g: RootedForm):
    """(semistable, has a violation at a rational point) from root data.

    The pair criterion: deg f <= deg g and at every projective point the
    order of g exceeds that of f by at most (deg g - deg f) / 2.  A quadratic
    factor stands for its two conjugate roots, which are never rational.
    """
    bound = Fraction(g.degree - f.degree, 2)
    points = set(f.roots) | set(g.roots) | set(f.quads) | set(g.quads) | {"inf"}
    bad = [p for p in points if g.order(p) - f.order(p) > bound]
    rational_bad = f.degree > g.degree or any(not isinstance(p, tuple) for p in bad)
    return (f.degree <= g.degree and not bad), rational_bad


def _random_rooted(rng, degree, quadratic):
    """Rooted form of the given degree; with ``quadratic`` it has at least
    one irreducible quadratic factor, otherwise only rational roots."""
    roots, quads = {}, {}
    left = degree
    if quadratic:
        q = rng.choice(_QUADRATICS)
        k = rng.randint(1, left // 2)
        quads[q] = k
        left -= 2 * k
    inf = rng.choice((0, 0, 0, 1)) if left else 0
    left -= inf
    while left:
        if quadratic and left >= 2 and rng.random() < 0.3:
            q = rng.choice(_QUADRATICS)
            quads[q] = quads.get(q, 0) + 1
            left -= 2
            continue
        r = rng.randint(-3, 3)
        roots[r] = roots.get(r, 0) + 1
        left -= 1
    return RootedForm(rng.choice((-2, -1, 1, 2)), roots, quads, inf)


def _form_vector(f):
    mod = rep.Module(1, rep.Sym(f.degree))
    return rep.vector(mod, {(i, f.degree - i): c for i, c in enumerate(f.coeffs) if c})


def _sym_keys(n_vars, d):
    return [k for k in itertools.product(range(d + 1), repeat=n_vars) if sum(k) == d]


def _sl3_vector(rng, d, keys):
    if d == 0:
        return rep.vector(rep.Module(2, rep.Trivial()), {(): 1})
    return rep.vector(
        rep.Module(2, rep.Sym(d)), {k: rng.choice((-3, -2, -1, 1, 2, 3)) for k in keys}
    )


def _weight_1ps(v, u):
    return min(_dot(v.module.weight_of(k), u) for k, _ in v.coeffs)


class PairVerdicts(Workload):
    """``pairs.nss_check`` with default arguments on a seeded mix: SL(2)
    binary-form pairs of degree 1-6 (rational roots only, or with irrational
    quadratic factors; each also runs ``sl2_order_violation``), SL(3)
    ``Sym(d<=3)`` pairs refuted at the diagonal torus, and SL(3) pairs no
    conjugate refutes (the full 65-torus sweep, on conics so that the tail
    class is homogeneous).  Every refutation with a witness also gets the
    energy profile and its asymptotic slope."""

    name = "pair-verdicts"
    trace_blocks = 2
    # (kind, instances per block); kinds name the oracle's expected outcome
    # The three cheap kinds (about 1 ms each) make up 48 of the 59, so the
    # median falls well inside them rather than at the gap above them, where
    # a small change of host speed would move it a long way.
    MIX = (
        ("sl2-rational-semistable", 12),
        ("sl2-rational-unstable", 6),
        ("sl2-quadratic-semistable", 10),
        ("sl2-quadratic-unstable-rational", 2),
        ("sl2-quadratic-unstable-irrational", 2),
        ("sl3-torus-unstable", 26),
        ("sl3-stable", 1),
    )
    POOL_BLOCKS = 24

    def __init__(self, seed: int):
        rng = random.Random(seed)
        strata = [
            [self._make(rng, kind, i) for i in range(k * self.POOL_BLOCKS)]
            for kind, k in self.MIX
        ]
        self.blocks = _chunk_blocks(rng, strata, [k for _, k in self.MIX])

    def _make(self, rng, kind, i):
        if kind.startswith("sl2"):
            return self._make_sl2(rng, kind, i)
        if kind == "sl3-stable":
            return self._make_sl3_stable(rng)
        return self._make_sl3_torus(rng)

    def _make_sl2(self, rng, kind, i):
        """The i-th pair of its kind; deg g cycles through its range, so every
        pool has the same degree mix and only the roots vary with the seed."""
        quadratic = "quadratic" in kind
        # g = q (x - r) is the smallest g with a quadratic factor and a
        # rational violation
        low = 3 if kind == "sl2-quadratic-unstable-rational" else 2 if quadratic else 1
        dg = low + i % (7 - low)
        for _ in range(100_000):
            df = rng.randint(1, dg)
            f = _random_rooted(rng, df, quadratic and df >= 2 and rng.random() < 0.5)
            g = _random_rooted(rng, dg, quadratic)
            semistable, rational_bad = _sl2_oracle(f, g)
            if kind.endswith("-semistable"):
                ok = semistable
            elif kind.endswith("-irrational"):
                ok = not semistable and not rational_bad
            else:
                ok = not semistable and rational_bad
            if ok:
                p = pairs.Pair(_form_vector(f.form), _form_vector(g.form))
                return (kind, p, f.form, g.form, semistable, rational_bad)
        raise RuntimeError(f"no {kind} pair found with deg g = {dg}")

    def _make_sl3_torus(self, rng):
        """A pair whose diagonal torus refutes it: some weight of v pairs
        below every weight of w against a chosen cocharacter u."""
        while True:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            u = (a, b, -a - b)
            if not any(u):
                continue
            dv, dw = rng.randint(0, 3), rng.randint(1, 3)
            wpool = _sym_keys(3, dw)
            wkeys = rng.sample(wpool, rng.randint(1, min(4, len(wpool))))
            low = min(_dot(k, u) for k in wkeys)
            vpool = _sym_keys(3, dv) if dv else [()]
            below = [k for k in vpool if _dot(k, u) < low]
            if not below:
                continue
            vkeys = {rng.choice(below)}
            if dv:
                vkeys.update(rng.sample(vpool, rng.randint(0, min(2, len(vpool)))))
            p = pairs.Pair(_sl3_vector(rng, dv, vkeys), _sl3_vector(rng, dw, wkeys))
            return ("sl3-torus-unstable", p)

    def _make_sl3_stable(self, rng):
        """(1, smooth conic) moved by a random SL(3) element: a smooth conic
        is stable, so no torus can refute the pair."""
        squares = {k: 1 for k in _sym_keys(3, 2) if 2 in k}
        fermat = rep.vector(rep.Module(2, rep.Sym(2)), squares)
        w = rep.matrix_action(pairs.random_conjugator(rng, 3), fermat)
        return ("sl3-stable", pairs.Pair(_sl3_vector(rng, 0, None), w))

    def run(self, inst):
        kind, p = inst[0], inst[1]
        violation = None
        if kind.startswith("sl2"):
            violation = binaryforms.sl2_order_violation(inst[2], inst[3])
        verdict = pairs.nss_check(p)
        conj = slope = None
        if isinstance(verdict, pairs.Unstable) and verdict.witness is not None:
            conj = pairs.conjugate_pair(p, verdict.conjugator)
            profile = energy.energy_along_1ps(conj, verdict.witness, ENERGY_GRID)
            slope = energy.asymptotic_slope(profile)
        return violation, verdict, conj, slope

    def check(self, inst, out):
        kind = inst[0]
        violation, verdict, conj, slope = out
        if kind.startswith("sl2"):
            semistable, rational_bad = inst[4], inst[5]
            if (violation is None) != semistable:
                return f"{kind}: sl2_order_violation disagrees with the root data"
            if isinstance(verdict, pairs.ProvenSemistable) != semistable:
                return f"{kind}: verdict {verdict.status}, root data says {semistable}"
            if semistable:
                return None
        elif kind == "sl3-stable":
            if not isinstance(verdict, pairs.NotRefuted) or verdict.tori_tested != 65:
                return f"sl3-stable: expected the full 65-torus sweep, got {verdict}"
            return None
        if not isinstance(verdict, pairs.Unstable):
            return f"{kind}: expected a refutation, got {verdict.status}"
        if verdict.witness is None:
            if kind.startswith("sl2") and not rational_bad:
                return None
            return f"{kind}: rational violation refuted without a witness"
        u = verdict.witness.coords
        if conj is None or pairs.conjugate_pair(inst[1], verdict.conjugator) != conj:
            return f"{kind}: conjugated pair does not match the conjugator"
        futaki = _weight_1ps(conj.w, u) - _weight_1ps(conj.v, u)
        if futaki <= 0 or futaki != verdict.futaki:
            return f"{kind}: witness {u} has futaki {futaki}, verdict says {verdict.futaki}"
        if not abs(slope - futaki) < SLOPE_TOL:
            return f"{kind}: energy slope {slope} differs from futaki {futaki}"
        return None


# ---------------------------------------------------------------------------
# toric-faces


def _argmin(points, u):
    vals = [_dot(u, p) for p in points]
    lo = min(vals)
    return tuple(p for p, v in zip(points, vals) if v == lo)


def _star_sweep_ok(data, bound):
    return all(
        toric.star_condition(data, u)
        for u in itertools.product(range(-bound, bound + 1), repeat=data.dim)
        if any(u)
    )


class ToricFaces(Workload):
    """``toric.extension_criterion`` and ``toric.accessible_faces`` on seeded
    character sets A with |A| from 4 to 8 in dimension 1 to 3: three
    extension questions (three subsets B) and one face enumeration per A.
    Each call is one instance.  The extension questions, about 1 ms each,
    are three quarters of the instances, so the median falls inside them
    rather than at the gap below the face enumerations.  The face
    enumerations of |A| = 8, the slowest kind, are 2% of the instances, so
    p99 falls near their median rather than in the upper tail of a class
    with a few members per run."""

    name = "toric-faces"
    trace_blocks = 2
    # (|A|, dimension, character sets per block)
    SIZES = (
        (4, 1, 8), (4, 2, 8), (4, 3, 8),
        (5, 1, 2), (5, 2, 2), (5, 3, 2),
        (6, 1, 1), (6, 2, 1), (6, 3, 1),
        (7, 2, 1), (8, 1, 3),
    )
    # coordinate range per dimension: 9 points in dimension 1, and boxes
    # small enough in dimensions 2 and 3 that the certificates stay short
    # and the checking sweep stays cheap
    BOX = {1: 4, 2: 2, 3: 1}
    POOL_BLOCKS = 20

    def __init__(self, seed: int):
        rng = random.Random(seed)
        strata = []
        for size, dim, k in self.SIZES:
            stratum = []
            box = self.BOX[dim]
            for _ in range(k * self.POOL_BLOCKS):
                pool = set()
                while len(pool) < size:
                    pool.add(tuple(rng.randint(-box, box) for _ in range(dim)))
                A = tuple(sorted(pool))
                for _ in range(3):
                    B = tuple(sorted(rng.sample(A, rng.randint(1, size))))
                    stratum.append(("extend", toric.ToricData(A, B, dim)))
                stratum.append(("faces", A, dim))
            strata.append(stratum)
        self.blocks = _chunk_blocks(rng, strata, [4 * k for _, _, k in self.SIZES])

    def run(self, inst):
        if inst[0] == "extend":
            return toric.extension_criterion(inst[1])
        return toric.accessible_faces(inst[1])

    def check(self, inst, out):
        if inst[0] == "extend":
            data = inst[1]
            bound = 3
            if not out:
                v = out.star_violator
                if v is None or toric.star_condition(data, v):
                    return "extension refuted without a star violator"
                bound = max(bound, max(abs(c) for c in v))
            if bool(out) != _star_sweep_ok(data, bound):
                return f"extension verdict {bool(out)} disagrees with the star sweep"
            return None
        A, dim = inst[1], inst[2]
        subsets = set()
        for cert in out:
            if toric.boundary_witness(A, cert.u) != cert.subset:
                return f"certificate {cert.u} does not cut out its face"
            subsets.add(cert.subset)
        if len(subsets) != len(out):
            return "duplicate face certificates"
        bound = max([3] + [abs(c) for cert in out for c in cert.u])
        seen = {
            _argmin(A, u) for u in itertools.product(range(-bound, bound + 1), repeat=dim)
        }
        if seen != subsets:
            return "accessible faces disagree with the functional sweep"
        return None


# ---------------------------------------------------------------------------
# koszul-cli


class KoszulCli(Workload):
    """``cli.run(["koszul-resultant", ...])`` on pairs of degree 1-5 forms
    built from integer roots, at m in {2d-1, 2d, 2d+1}; one pair per degree
    in each block shares a root, so its complex is not exact (exit 1)."""

    name = "koszul-cli"
    trace_blocks = 8
    POOL_BLOCKS = 100

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.blocks = []
        for _ in range(self.POOL_BLOCKS):
            block = []
            for d in range(1, 6):
                shared_slot = rng.randrange(6)
                for slot in range(6):
                    block.append(self._make(rng, d, 2 * d - 1 + slot // 2, slot == shared_slot))
            rng.shuffle(block)
            self.blocks.append(block)

    @staticmethod
    def _make(rng, d, m, shared):
        while True:
            rf = [rng.randint(-3, 3) for _ in range(d)]
            rg = [rng.randint(-3, 3) for _ in range(d)]
            if shared:
                rg[0] = rng.choice(rf)
            if bool(set(rf) & set(rg)) == shared:
                break
        a, b = rng.choice((-2, -1, 1, 2)), rng.choice((-2, -1, 1, 2))
        f, g = [a], [b]
        for r in rf:
            f = _poly_mul(f, [-r, 1])
        for s in rg:
            g = _poly_mul(g, [-s, 1])
        # |Res(f, g)| = |a|^d |b|^d prod |r - s|
        expected = abs(a) ** d * abs(b) ** d
        for r in rf:
            for s in rg:
                expected *= abs(r - s)
        argv = [
            "koszul-resultant",
            "--f=" + ",".join(map(str, f)),
            "--g=" + ",".join(map(str, g)),
            "--m",
            str(m),
        ]
        return (argv, shared, expected)

    def run(self, inst):
        return cli.run(inst[0])

    def check(self, inst, out):
        argv, shared, expected = inst
        code, text = out
        if code != (1 if shared else 0):
            return f"{argv}: exit {code}, expected {1 if shared else 0}"
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            return f"{argv}: output is not JSON"
        if shared:
            # only the not-exact error, not any other exit 1, answers a shared root
            if "not exact" in str(doc.get("error", "")):
                return None
            return f"{argv}: exit 1 without the not-exact error: {doc.get('error')!r}"
        for key in ("torsion", "sylvester"):
            if abs(Fraction(doc.get(key, 0))) != expected:
                return f"{argv}: |{key}| = {doc.get(key)}, expected {expected}"
        return None


WORKLOADS = {
    w.name: w for w in (OrbitDominance, PairVerdicts, ToricFaces, KoszulCli)
}
