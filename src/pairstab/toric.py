"""Torus orbit closures: the morphism-extension criterion and boundary
accessibility data for finite character sets.

Everything is exact integer/rational arithmetic on points of a fixed lattice
rank.  The extension criterion is a polytope containment; its failure is
converted into an integer functional violating the pointwise star condition,
so the two views refute each other constructively.  The accessible subsets
of A are the sets A ∩ F for the faces F of conv A; they are enumerated from
the facets, which ``lattice._facets`` finds, and each one is certified by an
integer functional whose argmin is rechecked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import _linalg
from .lattice import WitnessError, _facets, contains, hull, member, solve_phase1

IntPoint = tuple[int, ...]


@dataclass(frozen=True)
class ToricData:
    """Character set A with a distinguished nonempty subset B."""

    A: tuple[IntPoint, ...]
    B: tuple[IntPoint, ...]
    dim: int

    def __post_init__(self) -> None:
        A = tuple(sorted({tuple(int(c) for c in a) for a in self.A}))
        B = tuple(sorted({tuple(int(c) for c in b) for b in self.B}))
        if not B:
            raise ValueError("B must be nonempty")
        if any(len(p) != self.dim for p in A + B):
            raise ValueError("points must match the declared rank")
        if not set(B) <= set(A):
            raise ValueError("B must be a subset of A")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    def complement(self) -> tuple[IntPoint, ...]:
        return tuple(sorted(set(self.A).difference(self.B)))


def star_sides(data: ToricData, u: Sequence[int]) -> Optional[tuple[int, int]]:
    """(min{0, min over B}, min over A minus B) for the pairing with u, or
    None when A equals B.

    Raises:
        ValueError: u has the wrong length.
    """
    uu = tuple(int(c) for c in u)
    if len(uu) != data.dim:
        raise ValueError("functional has the wrong length")
    rest = data.complement()
    if not rest:
        return None
    return min(0, min(_dot(uu, b) for b in data.B)), min(_dot(uu, a) for a in rest)


def star_condition(data: ToricData, u: Sequence[int]) -> bool:
    """lhs <= rhs for the two ``star_sides``; vacuously true when A equals B."""
    sides = star_sides(data, u)
    return sides is None or sides[0] <= sides[1]


def _dot(u: Sequence[int], p: Sequence[int]) -> int:
    return sum(int(a) * int(b) for a, b in zip(u, p))


@dataclass(frozen=True)
class ExtensionResult:
    extends: bool
    # integer functional violating the star condition, when extension fails
    star_violator: Optional[IntPoint] = None

    def __bool__(self) -> bool:
        return self.extends


def extension_criterion(data: ToricData) -> ExtensionResult:
    """hull({0} union B) contains hull(A minus B), exactly.

    On failure the result carries an integer u with
    star_condition(data, u) false, obtained by clearing denominators of the
    separating functional; the violation is verified before returning.
    """
    rest = data.complement()
    if not rest:
        return ExtensionResult(True)
    zero = (0,) * data.dim
    outer = hull((zero,) + data.B)
    # rest is sorted, so rest[0] is a vertex of hull(rest); most questions
    # are refuted there, before that hull is built
    sep = member(outer, rest[0]).separator or contains(outer, hull(rest)).separator
    if sep is None:
        return ExtensionResult(True)
    u = tuple(_linalg.primitive([-c for c in sep.coeffs]))
    if star_condition(data, u):
        raise WitnessError("separator failed to violate the star condition")
    return ExtensionResult(False, u)


def _character_set(A: Sequence[Sequence[int]]) -> tuple[IntPoint, ...]:
    pts = tuple(sorted({tuple(int(c) for c in a) for a in A}))
    if not pts:
        raise ValueError("empty character set")
    if any(len(p) != len(pts[0]) for p in pts):
        raise ValueError("points of mixed ambient dimension")
    return pts


def boundary_witness(A: Sequence[Sequence[int]], u: Sequence[int]) -> tuple[IntPoint, ...]:
    """Argmin set of the pairing with u: the support of the limit point of
    the one-parameter degeneration of a vector with full support A.  Raises
    ValueError on an empty or mixed-dimension A or a u of the wrong length."""
    pts = _character_set(A)
    uu = tuple(int(c) for c in u)
    if len(uu) != len(pts[0]):
        raise ValueError("functional has the wrong length")
    vals = [_dot(uu, p) for p in pts]
    lo = min(vals)
    return tuple(p for p, v in zip(pts, vals) if v == lo)


# ---------------------------------------------------------------------------
# accessibility: which subsets arise as argmin sets, with integer certificates


@dataclass(frozen=True)
class FaceCertificate:
    subset: tuple[IntPoint, ...]
    u: IntPoint


def accessible_faces(A: Sequence[Sequence[int]]) -> list[FaceCertificate]:
    """All subsets of A realizable as boundary_witness(A, u), certified.

    These are the sets A ∩ F for the nonempty faces F of conv A, A itself
    included.  Every proper face is an intersection of facets (Ziegler,
    *Lectures on Polytopes*, §2.3), so the facet sets are found first and
    closed under intersection.  The candidates come in order of size, then
    of their index tuples in sorted A.  For each one an LP finds a
    functional constant on it and strictly larger on the rest; the rational
    solution is cleared to an integer u and rechecked against
    boundary_witness, so every returned certificate is exact.

    Raises:
        ValueError: A is empty or mixes ambient dimensions.
    """
    pts = _character_set(A)
    dim = len(pts[0])
    candidates = _facet_sets(pts)
    closed = set(candidates)
    while candidates:
        meets = {f & g for f in candidates for g in closed}
        candidates = [s for s in meets if s and s not in closed]
        closed.update(candidates)
    closed.add(frozenset(range(len(pts))))
    out = []
    for idx in sorted([tuple(sorted(s)) for s in closed], key=lambda t: (len(t), t)):
        S = tuple([pts[i] for i in idx])
        u = _face_functional(pts, set(S), dim)
        if u is None or boundary_witness(pts, u) != S:
            raise WitnessError("certified functional has the wrong argmin")
        out.append(FaceCertificate(S, u))
    return out


def _facet_sets(pts: tuple[IntPoint, ...]) -> set[frozenset]:
    """Index sets of pts on the facets of their hull, and on some smaller
    faces; none for a single point.  The integer coordinates at the pivot
    columns of the differences map the affine span injectively onto a
    full-dimensional space, so the image has the faces of conv A."""
    cols = _linalg.echelon([[a - b for a, b in zip(p, pts[0])] for p in pts])[0]
    ys = [[p[j] for j in cols] for p in pts]
    return {frozenset([i for i, y in enumerate(ys) if _dot(n, y) == c]) for n, c in _facets(ys)}


def _face_functional(pts: tuple[IntPoint, ...], S: set, dim: int) -> Optional[IntPoint]:
    """Integer u with pairing constant on S and at least one more off S.
    The phase-1 LP rows are the differences from base = min S: of the rest
    of S, sorted (= 0), then of the points off S in ``pts`` order (>= 1, a
    -1 slack each); the columns hold +u, then -u, then the slacks."""
    base = min(S)
    rest = [p for p in pts if p not in S]
    rows = [[a - b for a, b in zip(p, base)] for p in sorted(S)[1:] + rest]
    if not rows:
        return (0,) * dim
    eqs = len(S) - 1
    columns = [[sign * r[j] for r in rows] for sign in (1, -1) for j in range(dim)]
    columns += [[-int(i == k) for i in range(len(rows))] for k in range(eqs, len(rows))]
    x = solve_phase1(columns, [0] * eqs + [1] * len(rest)).x
    if x is None:
        return None
    return tuple(_linalg.primitive([x[j] - x[dim + j] for j in range(dim)]))


def max_certificate_coordinate(certs: Sequence[FaceCertificate]) -> int:
    """Largest absolute coordinate over all certificate functionals."""
    out = 0
    for cert in certs:
        for c in cert.u:
            out = max(out, abs(c))
    return out
