"""Torus orbit closures: the morphism-extension criterion and boundary
accessibility data for finite character sets.

Everything is exact integer/rational arithmetic on points of a fixed lattice
rank.  The extension criterion is a polytope containment; its failure is
converted into an integer functional violating the pointwise star condition,
so the two views refute each other constructively.  The accessible subsets
of A are the sets A ∩ F for the faces F of conv A; they are enumerated from
the facets, and each one is certified by an integer functional whose argmin
is rechecked.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from . import _linalg
from .lattice import WitnessError, contains, hull, solve_phase1

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
        return tuple(p for p in self.A if p not in set(self.B))


def star_condition(data: ToricData, u: Sequence[int]) -> bool:
    """min{0, min over B} <= min over A minus B, for the pairing with u.

    Vacuously true when A equals B.

    Raises:
        ValueError: u has the wrong length.
    """
    uu = tuple(int(c) for c in u)
    if len(uu) != data.dim:
        raise ValueError("functional has the wrong length")
    rest = data.complement()
    if not rest:
        return True
    lhs = min(0, min(_dot(uu, b) for b in data.B))
    return lhs <= min(_dot(uu, a) for a in rest)


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
    sep = contains(outer, hull(rest)).separator
    if sep is None:
        return ExtensionResult(True)
    u = tuple(_linalg.primitive([-c for c in sep.coeffs]))
    if star_condition(data, u):
        raise WitnessError("separator failed to violate the star condition")
    return ExtensionResult(False, u)


def boundary_witness(A: Sequence[Sequence[int]], u: Sequence[int]) -> tuple[IntPoint, ...]:
    """Argmin set of the pairing with u: the support of the limit point of
    the one-parameter degeneration of a vector with full support A."""
    pts = tuple(sorted({tuple(int(c) for c in a) for a in A}))
    if not pts:
        raise ValueError("empty character set")
    uu = tuple(int(c) for c in u)
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
    *Lectures on Polytopes*, §2.3), so the facet sets are found first, in
    integers, and closed under intersection.  The candidates come in order
    of size, then of their index tuples in sorted A.  For each one an LP
    finds a functional constant on it and strictly larger on the rest; the
    rational solution is cleared to an integer u and rechecked against
    boundary_witness, so every returned certificate is exact.
    """
    pts = tuple(sorted({tuple(int(c) for c in a) for a in A}))
    if not pts:
        raise ValueError("empty character set")
    dim = len(pts[0])
    candidates = _facet_sets(pts, dim)
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


def _facet_sets(pts: tuple[IntPoint, ...], dim: int) -> list[frozenset]:
    """Index sets of pts on the facets of their hull, relative to its
    affine span; none for a single point.

    With k the dimension of the hull, every affinely independent k-subset T
    has one normal orthogonal to T's differences and to the complement of
    the span; it supports a facet on the side where T's value is extreme.
    """
    base = pts[0]
    diffs = [[a - b for a, b in zip(p, base)] for p in pts[1:]]
    if not diffs:
        return []
    normal_to_span, _ = _linalg.int_rows(_linalg.nullspace(diffs))
    k = dim - len(normal_to_span)
    facets: list[frozenset] = []
    for T in itertools.combinations(range(len(pts)), k):
        if any(f.issuperset(T) for f in facets):
            continue
        t0 = pts[T[0]]
        rows = [[a - b for a, b in zip(pts[i], t0)] for i in T[1:]] + normal_to_span
        # rows is empty only in dimension 1, where the normal is free
        normals = _linalg.nullspace(rows or [[0] * dim])
        if len(normals) != 1:
            continue
        [n], _ = _linalg.int_rows(normals)
        vals = [_dot(n, p) for p in pts]
        v = vals[T[0]]
        for extreme in (min(vals), max(vals)):
            if v == extreme:
                facets.append(frozenset([i for i, w in enumerate(vals) if w == v]))
    return facets


def _face_functional(
    pts: tuple[IntPoint, ...], S: set, dim: int
) -> Optional[IntPoint]:
    """Integer u with pairing constant c on S and at least c+1 off S."""
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


def max_certificate_coordinate(certs: Sequence[FaceCertificate]) -> int:
    """Largest absolute coordinate over all certificate functionals."""
    out = 0
    for cert in certs:
        for c in cert.u:
            out = max(out, abs(c))
    return out
