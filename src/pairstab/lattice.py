"""Exact lattice-point and polytope kernel.

Everything here is exact rational arithmetic; no float enters.  Points,
vertices, LP solutions and witnesses are tuples of ``Fraction``.  The
following run in plain ``int`` instead and build ``Fraction`` values only
for what they return:

- the phase-1 simplex, a fraction-free tableau (row denominators cleared
  once, one running pivot denominator, every division exact);
- the vertex table of every polytope: its vertices over one common
  denominator, as ints, cleared once when the hull is built;
- the centroid support probe in ``member`` and the check of every separator,
  on that table;
- the extreme points of a hull, on its integer points: the points at the
  pivot columns of their differences give the ends of a segment or
  Andrew's monotone chain (1979) in a plane, and above that each point
  gets one phase-1 LP against the others;
- the whole facet route (effective dimension at most three), on that table:
  the affine frame (a Bareiss echelon of the differences), the Gram rows
  adj(G) B over det G (``_linalg.cramer``), the facet normals, the primitive
  maximal minors of integer difference rows (``_facets``, which ``toric``
  shares), and every query; only a returned separator is built in
  ``Fraction``;
- the KKT systems of ``min_norm_point`` (``_linalg.solve``).

Weights are integer lattice points considered up to adding a constant vector
(1, ..., 1), cocharacters are integer vectors with coordinate sum zero, and
the pairing between the two is the plain dot product (well defined on weight
classes precisely because cocharacters are traceless).

Containment of polytopes is decided exactly.  The general route is the
phase-1 simplex, whose infeasibility certificate doubles as a separating
functional.  For polytopes of effective dimension at most three a cached facet
description answers repeated membership queries much faster; the two routes
agree and the LP stays the reference implementation.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from ._linalg import cramer, echelon, fractions, int_rows, primitive, solve

Point = tuple[Fraction, ...]


class HeightZeroError(ValueError):
    """Raised when an operation requires a polytope avoiding the origin."""


class WitnessError(ArithmeticError):
    """Raised when a certificate fails its exact check, which means a bug."""


# ---------------------------------------------------------------------------
# weights and cocharacters


@dataclass(frozen=True)
class Weight:
    """Integer character of the diagonal torus, up to (1, ..., 1) shifts.

    Equality and hashing use the canonical representative (last coordinate
    zero), so two shifts of the same class compare equal.
    """

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        coords = tuple(int(c) for c in self.coords)
        if not coords:
            raise ValueError("weight needs at least one coordinate")
        object.__setattr__(self, "coords", coords)

    def canonical(self) -> tuple[int, ...]:
        """Representative with last coordinate zero."""
        last = self.coords[-1]
        return tuple(c - last for c in self.coords)

    def traceless(self) -> Point:
        """Representative with coordinate sum zero (rational in general)."""
        n, total = len(self.coords), sum(self.coords)
        return tuple([Fraction(n * c - total, n) for c in self.coords])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Weight):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())


@dataclass(frozen=True)
class Cocharacter:
    """Integer one-parameter subgroup of the diagonal torus.

    Coordinates must sum to zero (the determinant-one constraint).
    """

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        coords = tuple(int(c) for c in self.coords)
        if sum(coords) != 0:
            raise ValueError("cocharacter coordinates must sum to zero")
        object.__setattr__(self, "coords", coords)


def pairing(chi: Weight | Sequence[int], u: Cocharacter | Sequence[int]) -> int:
    """Dot product of a weight with a cocharacter.

    Args:
        chi: weight, or a plain integer tuple standing for one.
        u: cocharacter, or a plain sum-zero integer tuple.

    Returns:
        The integer pairing.  Invariant under shifting ``chi`` by a constant
        vector, because ``u`` sums to zero.

    Raises:
        ValueError: the two vectors have different lengths.
    """
    a = chi.coords if isinstance(chi, Weight) else tuple(chi)
    b = u.coords if isinstance(u, Cocharacter) else Cocharacter(tuple(u)).coords
    if len(a) != len(b):
        raise ValueError("length mismatch: %d vs %d" % (len(a), len(b)))
    return sum(int(x) * int(y) for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# exact phase-1 simplex

# Feasibility of  sum_j x_j * col_j = b,  x >= 0, in exact arithmetic.
# Dantzig's rule while the objective moves, Bland's rule once it stalls, so
# termination is unconditional.  The tableau is fraction-free (Edmonds 1967,
# Bareiss 1968): plain integers over one running denominator, the last pivot
# element, which stays positive and makes every division exact.


@dataclass(frozen=True)
class Phase1Result:
    feasible: bool
    # convex/conic coefficients when feasible
    x: Optional[tuple[Fraction, ...]]
    # dual certificate y with  y . col_j <= 0 for all j  and  y . b > 0
    y: Optional[tuple[Fraction, ...]]


def solve_phase1(columns: Sequence[Point], b: Point) -> Phase1Result:
    m = len(b)
    n = len(columns)
    for col in columns:
        if len(col) != m:
            raise ValueError("column length mismatch")
    # flip rows to make the right-hand side nonnegative, and clear each row's
    # denominators so pivoting starts from integers
    signs = []
    start = []
    for i in range(m):
        [row], scale = int_rows([[col[i] for col in columns] + [b[i]]])
        if b[i] < 0:
            scale, row = -scale, [-v for v in row]
        signs.append(scale)
        start.append(row)
    tab = [
        row[:n] + [int(k == i) for k in range(m)] + row[n:]
        for i, row in enumerate(start)
    ]
    total = n + m
    den = 1
    basis = list(range(n, n + m))
    # reduced costs: c_j - y . A_j with y = (1, ..., 1) at the start
    rc = [0] * (total + 1)
    for j in range(n):
        rc[j] = -sum(row[j] for row in tab)
    rc[total] = -sum(row[total] for row in tab)  # minus the objective

    # Dantzig rule while the objective moves; permanent Bland fallback once
    # it stalls, which keeps termination guaranteed on degenerate problems.
    # The objective is rc[total] / den; its last value is kept as a pair.
    bland = False
    stall = 0
    prev_obj = (rc[total], den)
    while True:
        enter = -1
        if bland:
            for j in range(total):
                if rc[j] < 0:
                    enter = j
                    break
        else:
            worst = 0
            for j in range(total):
                if rc[j] < worst:
                    worst = rc[j]
                    enter = j
        if enter < 0:
            break
        # ratio test by cross-multiplication; denominators are positive
        leave = -1
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                lhs = tab[i][total] * tab[leave][enter]
                rhs = tab[leave][total] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            # phase-1 objective is bounded below by zero, so this cannot occur
            raise RuntimeError("unbounded phase-1 objective")
        prow = tab[leave]
        piv = prow[enter]
        for i in range(m):
            if i != leave:
                f = tab[i][enter]
                tab[i] = [(v * piv - f * w) // den for v, w in zip(tab[i], prow)]
        f = rc[enter]
        rc = [(v * piv - f * w) // den for v, w in zip(rc, prow)]
        den = piv
        basis[leave] = enter
        if not bland:
            if rc[total] * prev_obj[1] == prev_obj[0] * den:
                stall += 1
                if stall > m + 2:
                    bland = True
            else:
                stall = 0
                prev_obj = (rc[total], den)

    if rc[total] == 0:
        x = [Fraction(0)] * n
        for i, bi in enumerate(basis):
            if bi < n:
                x[bi] = Fraction(tab[i][total], den)
        return Phase1Result(True, tuple(x), None)
    # y_i = 1 - rc(artificial i), then undo the row flips: y_i = signs[i] *
    # z_i / den.  As start[i] is row i times signs[i] and den > 0, the
    # certificate conditions are checked on z and the starting integer rows.
    z = [den - rc[n + i] for i in range(m)]
    if sum(zi * row[n] for zi, row in zip(z, start)) <= 0 or any(
        sum(zi * row[j] for zi, row in zip(z, start)) > 0 for j in range(n)
    ):
        raise WitnessError("phase-1 infeasibility certificate fails its check")
    y = tuple([Fraction(s * zi, den) for s, zi in zip(signs, z)])
    return Phase1Result(False, None, y)


# ---------------------------------------------------------------------------
# polytopes


@dataclass(frozen=True)
class SeparatingFunctional:
    """Exact witness that a point lies outside a polytope.

    ``coeffs . p <= threshold`` holds for every point ``p`` of the polytope
    while ``coeffs . witness > threshold``.
    """

    coeffs: Point
    threshold: Fraction
    witness: Point


@dataclass(frozen=True)
class ContainmentResult:
    contained: bool
    separator: Optional[SeparatingFunctional] = None

    def __bool__(self) -> bool:
        return self.contained


@dataclass(frozen=True)
class LatticePolytope:
    """Convex hull of finitely many rational points, stored irredundantly.

    Construction canonicalizes: points are converted to ``Fraction`` tuples,
    deduplicated, pruned down to the extreme points, and sorted, so equal
    hulls compare equal as dataclasses.  It also keeps the vertex table
    (den, W, sums): a common denominator, the vertices times it as int rows,
    and the sum of each coordinate over W, ``len(vertices) * den`` times the
    centroid.
    """

    vertices: tuple[Point, ...]
    # caches, never constructor arguments, so ``replace`` rebuilds them
    _hrep: Optional[tuple] = field(default=None, init=False, compare=False, repr=False)
    _itab: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        pts = [fractions(p) for p in self.vertices]
        if not pts:
            raise ValueError("empty point set has no hull")
        dim = len(pts[0])
        if any(len(p) != dim for p in pts):
            raise ValueError("points of mixed ambient dimension")
        verts, den, ints = _extreme_points(sorted(set(pts)))
        object.__setattr__(self, "vertices", tuple(verts))
        object.__setattr__(self, "_itab", (den, ints, [sum(c) for c in zip(*ints)]))

    @property
    def ambient(self) -> int:
        return len(self.vertices[0])

    def effective_dim(self) -> int:
        """Dimension of the affine hull."""
        return _get_hrep(self)[0]

    def support_values(self, u: Sequence) -> list[Fraction]:
        uu = fractions(u)
        if len(uu) != self.ambient:
            raise ValueError("functional has wrong length")
        return [sum(a * b for a, b in zip(v, uu)) for v in self.vertices]


def hull(points: Iterable[Sequence]) -> LatticePolytope:
    """Convex hull of the given rational points.

    Returns:
        The canonical ``LatticePolytope``: vertices are exactly the points
        not expressible as convex combinations of the others, sorted.

    Raises:
        ValueError: on an empty collection or mixed dimensions.
    """
    return LatticePolytope(tuple(tuple(p) for p in points))


def _extreme_points(pts: list[Point]) -> tuple[list[Point], int, list[list[int]]]:
    """The extreme points among distinct points, with a common denominator
    ``den`` of all the points and the extreme points times it, as ints."""
    d = len(pts[0])
    [flat], den = int_rows([[c for p in pts for c in p]])
    ints = [flat[i : i + d] for i in range(0, len(flat), d)]
    keep = range(len(pts))
    # equal-norm shortcut: distinct points on a sphere are all extreme,
    # by strict convexity of the ball
    if len(pts) > 2 and len({sum([c * c for c in p]) for p in ints}) > 1:
        # the pivot columns of the differences map the affine hull
        # injectively onto Q^k, k its dimension, so the extreme points stay
        # extreme
        diffs = [[a - b for a, b in zip(p, ints[0])] for p in ints]
        cols = echelon(diffs[1:])[0]
        if len(cols) <= 2:
            keep = sorted(_monotone_chain([[r[j] for j in cols] + [0] * (2 - len(cols)) for r in diffs]))
        else:
            # w_i is in the hull of the other rows exactly when p_i is; a
            # dependency shared by every row only makes an LP row redundant
            lifted = [w + [1] for w in ints]
            keep = [i for i, w in enumerate(lifted) if not solve_phase1(lifted[:i] + lifted[i + 1 :], w).feasible]
    return [pts[i] for i in keep], den, [ints[i] for i in keep]


def _monotone_chain(ys: list[list[int]]) -> set[int]:
    """Indices of the corners of the hull of distinct points in Z^2, by
    Andrew's monotone chain (1979); the strict turn test drops points inside
    an edge, and collinear points keep their two ends."""
    order = sorted(range(len(ys)), key=ys.__getitem__)
    keep: set[int] = set()
    for seq in (order, order[::-1]):
        chain: list[int] = []
        for k in seq:
            (x, y) = ys[k]
            while len(chain) >= 2:
                (ox, oy), (ax, ay) = ys[chain[-2]], ys[chain[-1]]
                if (ax - ox) * (y - oy) - (ay - oy) * (x - ox) > 0:
                    break
                chain.pop()
            chain.append(k)
        keep.update(chain)
    return keep


def _in_hull_lp(verts: Sequence[Point], xx: Point) -> Phase1Result:
    """Phase-1 LP for the tuple xx in the hull of the tuples verts; a
    certificate has every coordinate, then the affine slot."""
    dim = len(xx)
    kept = list(range(dim))

    def refuted(slots: Sequence[int], values: Sequence[Fraction], last: Fraction) -> Phase1Result:
        y = [Fraction(0)] * dim + [last]
        for j, v in zip(slots, values):
            y[j] = v
        return Phase1Result(False, None, tuple(y))

    # strip affine dependencies shared by the whole vertex set: coordinates
    # pinned to one value, then the common coordinate sum when there is one.
    # Either x violates the dependency (exact separator, no LP needed) or
    # the matching equality row is redundant and can be dropped.  One pass
    # finds them all: dropping a coordinate pins no other one, and the sum
    # of the rest is constant only if the dropped coordinate was pinned.
    for slot in range(dim - 1, -1, -1):
        c = verts[0][slot]
        if all(v[slot] == c for v in verts):
            if xx[slot] != c:
                sign = Fraction(1 if xx[slot] > c else -1)
                return refuted([slot], [sign], -sign * c)
            verts = [v[:slot] + v[slot + 1 :] for v in verts]
            xx = xx[:slot] + xx[slot + 1 :]
            del kept[slot]
    if len(kept) >= 2:
        s0 = sum(verts[0])
        if all(sum(v) == s0 for v in verts):
            sx = sum(xx)
            if sx != s0:
                sign = Fraction(1 if sx > s0 else -1)
                return refuted(kept, [sign] * len(kept), -sign * s0)
            verts = [v[:-1] for v in verts]
            xx = xx[:-1]
            kept.pop()

    # convex combination: stack coordinates over the affine row (sum = 1)
    cols = [v + (Fraction(1),) for v in verts]
    rhs = xx + (Fraction(1),)
    if len(cols) <= 24:
        res = solve_phase1(cols, rhs)
        if res.y is None:
            return res
        return refuted(kept, res.y, res.y[-1])
    # column generation: solve on a small working set, price the rest with
    # the dual certificate, and stop once no column can improve it
    nn = len(cols)
    centroid = [sum(v[j] for v in verts) / nn for j in range(len(xx))]
    u = [a - b for a, b in zip(xx, centroid)]
    aligned = sorted(
        range(nn),
        key=lambda j: sum(ui * ci for ui, ci in zip(u, verts[j])),
        reverse=True,
    )
    spread = range(0, nn, max(1, nn // 8))
    active = sorted(set(aligned[:8]) | set(spread))
    while True:
        res = solve_phase1([cols[j] for j in active], rhs)
        y = res.y
        if y is None:
            full = [Fraction(0)] * nn
            for slot, j in enumerate(active):
                full[j] = res.x[slot]
            return Phase1Result(True, tuple(full), None)
        in_active = set(active)
        scored = []
        for j in range(nn):
            if j in in_active:
                continue
            s = sum(yi * ci for yi, ci in zip(y, cols[j]))
            if s > 0:
                scored.append((s, j))
        if not scored:
            return refuted(kept, y, y[-1])
        scored.sort(reverse=True)
        active.extend(j for _, j in scored[:6])
        active.sort()


# -- facet cache (effective dimension <= 3), one enumerator for every dimension
#
# The frame runs on the vertex table W = den * V.  Its basis B holds the
# first differences W_v - W_0, in vertex order, independent of the earlier
# ones.  With G = B B^T, delta = det G > 0 and R = adj(G) B, the Gram
# coordinates of x - V_0 in the basis B / den are R (den x - W_0) / delta.
# So the vertices' coordinates times delta are the integers R (W_v - W_0),
# and a query x = xq / q is decided on the integers z = R (den xq - q W_0).


def _facets(ys: list[Sequence]) -> list[tuple[tuple[int, ...], int]]:
    """Inequalities n . y <= c valid on the hull of full-dimensional points
    in Q^d, every facet among them; integer points give integer pairs.  The
    points are cleared to integers once for the normals; each d-subset, in
    ``combinations`` order, has the signed maximal minors of its difference
    rows as normal (all zero when it is affinely dependent), made primitive
    with first nonzero entry positive.  The first subset on each line
    appends (n, max), then (-n, -min), over the given points."""
    d = len(ys[0])
    if not d:
        return []
    [flat], _ = int_rows([[c for y in ys for c in y]])
    ints = [flat[i * d : i * d + d] for i in range(len(ys))]
    facets: list[tuple[tuple[int, ...], int]] = []
    seen: set[tuple] = set()
    for T in itertools.combinations(range(len(ys)), d):
        y0 = ints[T[0]]
        rows = [[a - b for a, b in zip(ints[i], y0)] for i in T[1:]]
        minors = [(-1) ** j * echelon([r[:j] + r[j + 1 :] for r in rows])[1] for j in range(d)]
        normal = primitive(minors)
        lead = next((v for v in normal if v), 0)
        normal = tuple([-v for v in normal] if lead < 0 else normal)
        if not lead or normal in seen:
            continue
        seen.add(normal)
        vals = [sum(map(operator.mul, normal, y)) for y in ys]
        facets.append((normal, max(vals)))
        facets.append((tuple([-v for v in normal]), -min(vals)))
    return facets


def _get_hrep(P: LatticePolytope):
    """(effective dimension, frame), cached on the polytope.  The frame
    (B, R, delta, facets over delta) serves the facet route and is kept only
    for effective dimension at most three."""
    if P._hrep is not None:
        return P._hrep
    ints = P._itab[1]
    diffs = [[a - b for a, b in zip(w, ints[0])] for w in ints[1:]]
    basis = [diffs[j] for j in echelon([list(c) for c in zip(*diffs)])[0]]
    d = len(basis)
    frame = None
    if d <= 3:
        gram = [[sum(map(operator.mul, u, v)) for v in basis] for u in basis]
        # G is positive definite, so Bareiss never swaps a row and its last
        # pivot is det G
        R, delta = cramer([g + b for g, b in zip(gram, basis)], d)
        ys = [[0] * d] + [[sum(map(operator.mul, r, w)) for r in R] for w in diffs]
        frame = (basis, R, delta, _facets(ys))
    hrep = (d, frame)
    object.__setattr__(P, "_hrep", hrep)
    return hrep


def _membership_facets(P: LatticePolytope, x: Point):
    """Exact membership via the facet cache; returns (inside, separator).
    Only a separator is built in ``Fraction``: the orthogonal residual of x
    off the affine hull, or a violated facet's Gram-frame functional."""
    den, ints, _ = P._itab
    w0 = ints[0]
    basis, R, delta, facets = _get_hrep(P)[1]
    [xq], q = int_rows([x])
    r = [den * a - q * b for a, b in zip(xq, w0)]
    z = [sum(map(operator.mul, row, r)) for row in R]
    # x minus its projection to the affine hull is e / (q delta den)
    e = [delta * a for a in r]
    for zi, b in zip(z, basis):
        e = [a - zi * c for a, c in zip(e, b)]
    if any(e):
        s = q * delta * den
        coeffs = tuple([Fraction(a, s) for a in e])
        return False, SeparatingFunctional(coeffs, Fraction(sum(map(operator.mul, e, w0)), s * den), x)
    for normal, top in facets:
        if sum(map(operator.mul, normal, z)) > q * top:
            g = [sum(map(operator.mul, normal, col)) for col in zip(*R)]
            coeffs = tuple([Fraction(den * a, delta) for a in g])
            return False, SeparatingFunctional(coeffs, Fraction(top + sum(map(operator.mul, g, w0)), delta), x)
    return True, None


def _vertex_values(ints: list[list[int]], u: Sequence[int]) -> list[int]:
    """``u . w`` for every row ``w`` of an integer vertex table."""
    return [sum(map(operator.mul, u, w)) for w in ints]


def member(P: LatticePolytope, x: Sequence) -> ContainmentResult:
    """Exact membership of one point, with a separator on failure."""
    xx = fractions(x)
    if len(xx) != P.ambient:
        raise ValueError("point has wrong ambient dimension")
    if _get_hrep(P)[1] is not None:
        inside, sep = _membership_facets(P, xx)
        if sep is not None:
            _check_separator(P, sep)
        return ContainmentResult(inside, sep)
    if xx in P.vertices:
        return ContainmentResult(True, None)
    # single support probe along u = x - centroid; refutes most outside
    # points without the LP.  The construction is its own proof: the
    # threshold is the exact max of the functional over the vertices.  It
    # runs in integers, with u scaled by nv * den * q.
    den, ints, sums = P._itab
    [xq], q = int_rows([xx])
    nv = len(P.vertices)
    scale = nv * den * q
    u = [nv * den * a - q * s for a, s in zip(xq, sums)]
    if not any(u):
        # x is the centroid
        return ContainmentResult(True, None)
    smax = max(_vertex_values(ints, u))
    if den * sum(map(operator.mul, u, xq)) > q * smax:
        coeffs = tuple([Fraction(a, scale) for a in u])
        sep = SeparatingFunctional(coeffs, Fraction(smax, scale * den), xx)
        return ContainmentResult(False, sep)
    res = _in_hull_lp(P.vertices, xx)
    y = res.y
    if y is None:
        return ContainmentResult(True, None)
    g, g0 = y[:-1], y[-1]
    sep = SeparatingFunctional(g, -g0, xx)
    _check_separator(P, sep)
    return ContainmentResult(False, sep)


def _check_separator(P: LatticePolytope, sep: SeparatingFunctional) -> None:
    # coeffs . v <= threshold on every vertex, and coeffs . witness above it,
    # in integers: with coeffs = cq / q, v = w / den, witness = wq / qw this
    # is  cq . w * t.den <= q * den * t.num  and  cq . wq * t.den > q * qw * t.num
    den, ints, _ = P._itab
    [cq], q = int_rows([sep.coeffs])
    [wq], qw = int_rows([sep.witness])
    t = sep.threshold
    if (
        max(_vertex_values(ints, cq)) * t.denominator > q * den * t.numerator
        or sum(map(operator.mul, cq, wq)) * t.denominator <= q * qw * t.numerator
    ):
        raise WitnessError("separating functional fails its check")


def contains(outer: LatticePolytope, inner: LatticePolytope) -> ContainmentResult:
    """Decide hull(inner) inside hull(outer), exactly.

    Returns:
        A truthy ``ContainmentResult`` when every vertex of ``inner`` lies in
        ``outer``; otherwise a falsy one carrying a ``SeparatingFunctional``
        that is verified exactly before being returned.

    Raises:
        ValueError: ambient dimensions differ.
    """
    if outer.ambient != inner.ambient:
        raise ValueError("ambient dimension mismatch")
    for v in inner.vertices:
        res = member(outer, v)
        if not res:
            return res
    return ContainmentResult(True, None)


def support_min(P: LatticePolytope, u) -> Fraction:
    """Minimum of ``u . x`` over the polytope (attained at a vertex).

    Accepts a Cocharacter or any coordinate sequence.
    """
    coords = u.coords if isinstance(u, Cocharacter) else u
    return min(P.support_values(coords))


@dataclass(frozen=True)
class MinNormPoint:
    point: Point
    norm_sq: Fraction


def min_norm_point(P: LatticePolytope) -> MinNormPoint:
    """Closest point to the origin in the hull, exactly.

    Enumerates affinely independent vertex subsets (Caratheodory bounds their
    size by the effective dimension plus one), solves the equality-constrained
    least-squares system on each affine span, and keeps feasible candidates.
    The optimum lies in the relative interior of some face, hence is the
    orthogonal projection of the origin onto that face's affine span with
    nonnegative barycentric weights; the sweep therefore finds it.

    Raises:
        ValueError: effective dimension exceeds four (guard against the
            combinatorial sweep blowing up).
    """
    if P.effective_dim() > 4:
        raise ValueError("min_norm_point limited to effective dimension <= 4")
    verts = P.vertices
    max_size = min(len(verts), P.effective_dim() + 1)
    cands = (
        _project_origin(subset)
        for size in range(1, max_size + 1)
        for subset in itertools.combinations(verts, size)
    )
    # min keeps the first of equal norms; a single vertex always projects
    return min((c for c in cands if c is not None), key=lambda c: c.norm_sq)


def _project_origin(subset: Sequence[Point]) -> Optional[MinNormPoint]:
    """Projection of 0 onto the affine span of ``subset`` if the barycentric
    weights come out nonnegative; None otherwise (or if affinely dependent)."""
    k = len(subset)
    gram = [[sum(a * b for a, b in zip(p, q)) for q in subset] for p in subset]
    # KKT system for min |sum l_i p_i|^2  with  sum l_i = 1
    kkt = [[2 * g for g in row] + [1] for row in gram] + [[1] * k + [0]]
    sol = solve(kkt, [[0]] * k + [[1]])
    if sol is None:
        return None
    lams = [row[0] for row in sol[:k]]
    if any(l < 0 for l in lams):
        return None
    point = tuple(
        sum(l * p[j] for l, p in zip(lams, subset)) for j in range(len(subset[0]))
    )
    nsq = sum(c * c for c in point)
    return MinNormPoint(point, nsq)

