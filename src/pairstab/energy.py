"""Log-norm energy of a pair along group elements and one-parameter
subgroups, with the metric structures needed to compare it to the
Fubini-Study distance from the starting point.

Group elements act exactly (rational matrices); only the final logarithms
and the distance formulas are floating point.  Profiles along a cocharacter
are evaluated from the exact exponent decomposition of the orbit vector, so
they stay finite arbitrarily close to t = 0.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .pairs import Pair, identity_matrix, random_conjugator
from .lattice import Cocharacter, pairing
from .rep import Module, Sym, WeightedVector, matrix_action

Matrix = tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class HermitianStructure:
    """Diagonal inner product on a module's weight basis.

    kind "weight-orthonormal": the weight basis is orthonormal.
    kind "bombieri": on binary forms of degree d, the monomial with exponent
    key (i, d-i) has squared norm 1/binom(d, i); rotation matrices
    [[c, s], [-s, c]] with c^2 + s^2 = 1 then act by isometries.
    """

    module: Module
    kind: str = "weight-orthonormal"

    def __post_init__(self) -> None:
        if self.kind not in ("weight-orthonormal", "bombieri"):
            raise ValueError(f"unknown structure kind: {self.kind!r}")
        if self.kind == "bombieri":
            shape = self.module.shape
            if not (isinstance(shape, Sym) and self.module.N == 1):
                raise ValueError("bombieri structure needs binary forms")

    def basis_norm_sq(self, key) -> Fraction:
        if self.kind == "weight-orthonormal":
            return Fraction(1)
        d = self.module.shape.degree
        return Fraction(1, math.comb(d, key[0]))

    def norm_sq(self, v: WeightedVector) -> Fraction:
        self._check(v)
        return sum((c * c * self.basis_norm_sq(k) for k, c in v.coeffs), Fraction(0))

    def inner(self, x: WeightedVector, y: WeightedVector) -> Fraction:
        self._check(x)
        self._check(y)
        ycoeffs = dict(y.coeffs)
        out = Fraction(0)
        for k, c in x.coeffs:
            if k in ycoeffs:
                out += c * ycoeffs[k] * self.basis_norm_sq(k)
        return out

    def _check(self, v: WeightedVector) -> None:
        if v.module != self.module:
            raise ValueError("vector does not live in the structure's module")


def _structures(
    p: Pair, H: Optional[tuple[HermitianStructure, HermitianStructure]]
) -> tuple[HermitianStructure, HermitianStructure]:
    if H is None:
        return (HermitianStructure(p.v.module), HermitianStructure(p.w.module))
    hv, hw = H
    if hv.module != p.v.module or hw.module != p.w.module:
        raise ValueError("structures do not match the pair's modules")
    return hv, hw


def energy(
    p: Pair,
    sigma: Sequence[Sequence],
    H: Optional[tuple[HermitianStructure, HermitianStructure]] = None,
) -> float:
    """log ||sigma w||^2 - log ||sigma v||^2 at the chosen structures."""
    hv, hw = _structures(p, H)
    nv = hv.norm_sq(matrix_action(sigma, p.v))
    nw = hw.norm_sq(matrix_action(sigma, p.w))
    if nv == 0 or nw == 0:
        raise ValueError("orbit vector has norm zero")
    return math.log(float(nw)) - math.log(float(nv))


def fs_distance(x: WeightedVector, y: WeightedVector, H: HermitianStructure) -> float:
    """Angle between the lines spanned by x and y."""
    nx = H.norm_sq(x)
    ny = H.norm_sq(y)
    if nx == 0 or ny == 0:
        raise ValueError("distance from the zero vector")
    c = abs(float(H.inner(x, y))) / math.sqrt(float(nx) * float(ny))
    return math.acos(min(1.0, max(-1.0, c)))


def distance_identity_residual(
    p: Pair,
    sigma: Sequence[Sequence],
    H: Optional[tuple[HermitianStructure, HermitianStructure]] = None,
) -> float:
    """| energy - log tan^2(distance) | for the segment joining the class of
    (sigma v, sigma w) to the class of (sigma v, 0) in the direct sum."""
    hv, hw = _structures(p, H)
    sv = matrix_action(sigma, p.v)
    sw = matrix_action(sigma, p.w)
    a = hv.norm_sq(sv)
    b = hw.norm_sq(sw)
    if a == 0 or b == 0:
        raise ValueError("orbit vector has norm zero")
    # second point has zero w-component, so the cross inner product is just a
    cosd = float(a) / math.sqrt(float(a + b) * float(a))
    dist = math.acos(min(1.0, max(-1.0, cosd)))
    nu = math.log(float(b)) - math.log(float(a))
    return abs(nu - 2.0 * math.log(math.tan(dist)))


@dataclass(frozen=True)
class EnergyProfile:
    u: tuple[int, ...]
    samples: tuple[tuple[float, float], ...]  # (t, nu), t strictly decreasing

    def log_t2(self) -> tuple[float, ...]:
        return tuple(2.0 * math.log(t) for t, _ in self.samples)

    def values(self) -> tuple[float, ...]:
        return tuple(nu for _, nu in self.samples)


def default_grid(tmin: float = 1e-6, per_decade: int = 4) -> tuple[float, ...]:
    """Geometric grid from 1 down to tmin."""
    if not (0.0 < tmin < 1.0):
        raise ValueError("tmin must lie in (0, 1)")
    if per_decade < 1:
        raise ValueError("per_decade must be at least 1")
    out = []
    k = 0
    while True:
        t = 10.0 ** (-k / per_decade)
        if t < tmin:
            break
        out.append(t)
        k += 1
    return tuple(out)


def _exponent_weights(
    v: WeightedVector, u: Cocharacter, H: HermitianStructure
) -> tuple[list[tuple[int, float]], int]:
    """The terms (2 (e - emin), S_e) of ``_log_norm_sq`` and the minimal
    exponent emin: S_e, summed exactly and converted to float once, is the
    sum of c^2 * basis norm over keys the cocharacter scales by t^e."""
    exps: dict[int, Fraction] = {}
    for key, c in v.coeffs:
        e = pairing(v.module.weight_of(key), u)
        exps[e] = exps.get(e, Fraction(0)) + c * c * H.basis_norm_sq(key)
    emin = min(exps)
    return [(2 * (e - emin), float(s)) for e, s in exps.items()], emin


def _log_norm_sq(terms: list[tuple[int, float]], emin: int, t: float) -> float:
    """log sum_e S_e t^(2e), factored through the minimal exponent so the
    value stays finite for t near 0."""
    acc = 0.0
    for k, s in terms:
        acc += s * t**k
    return 2.0 * emin * math.log(t) + math.log(acc)


def energy_along_1ps(
    p: Pair,
    u: Cocharacter,
    grid: Optional[Sequence[float]] = None,
    H: Optional[tuple[HermitianStructure, HermitianStructure]] = None,
) -> EnergyProfile:
    """Energy profile t -> nu(lambda_u(t)) on a decreasing grid in (0, 1]."""
    hv, hw = _structures(p, H)
    ts = tuple(float(t) for t in (default_grid() if grid is None else grid))
    if not ts:
        raise ValueError("empty grid")
    if any(not (0.0 < t <= 1.0) for t in ts):
        raise ValueError("grid values must lie in (0, 1]")
    if any(b >= a for a, b in zip(ts, ts[1:])):
        raise ValueError("grid must be strictly decreasing")
    tv, ev = _exponent_weights(p.v, u, hv)
    tw, ew = _exponent_weights(p.w, u, hw)
    samples = tuple((t, _log_norm_sq(tw, ew, t) - _log_norm_sq(tv, ev, t)) for t in ts)
    for _, nu in samples:
        if not math.isfinite(nu):
            raise AssertionError("profile value is not finite")
    return EnergyProfile(tuple(u.coords), samples)


def asymptotic_slope(profile: EnergyProfile) -> float:
    """Least-squares slope of nu against log t^2.

    Requires at least 3 samples spanning two decades of t.
    """
    if len(profile.samples) < 3:
        raise ValueError("need at least 3 samples")
    ts = [t for t, _ in profile.samples]
    if max(ts) / min(ts) < 100.0:
        raise ValueError("grid must span at least two decades")
    xs = profile.log_t2()
    ys = profile.values()
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den


@dataclass(frozen=True)
class InfimumSample:
    best_value: float
    best_element: Matrix
    tried: int


def sample_energy_infimum(
    p: Pair,
    samples: int = 200,
    seed: int = 0,
    H: Optional[tuple[HermitianStructure, HermitianStructure]] = None,
) -> InfimumSample:
    """Best (lowest) energy over random group elements plus the identity.

    This is a sampler: the reported value is an upper bound for the true
    infimum, nothing more.
    """
    rng = random.Random(seed)
    n = p.N + 1
    best_sigma = identity_matrix(n)
    best = energy(p, best_sigma, H)
    tried = 1
    for _ in range(samples):
        sigma = random_conjugator(rng, n)
        val = energy(p, sigma, H)
        tried += 1
        if val < best:
            best = val
            best_sigma = sigma
    return InfimumSample(best, best_sigma, tried)
