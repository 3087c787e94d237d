"""Concrete realizations of small rational SL(N+1) modules.

Supported shapes: symmetric powers in the monomial basis, wedge powers in the
sorted-subset basis, pure tensor products of those, and the trivial module.
All actions are computed by exact substitution and expansion in integers,
with one division restoring the rational coefficients.  A Sym vector's image
is one dense int list over the Sym basis, accumulated from powers of the
matrix's column forms, which every key shares, through cached tables of
monomial products.
The Weyl group is the full set of coordinate permutations.

Vectors are stored with coefficients keyed by basis element, not by weight:
tensor shapes have weight spaces of multiplicity above one, and collapsing
them would silently merge independent coordinates.
"""

from __future__ import annotations

import itertools
import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

from . import _linalg
from .lattice import LatticePolytope, Weight, hull

Matrix = tuple[tuple[Fraction, ...], ...]


class ElementaryProduct(tuple):
    """Rows of an integer product of elementary matrices: integer with
    determinant one by construction, so the actions skip their clearing and
    determinant check on it."""


# ---------------------------------------------------------------------------
# shapes


@dataclass(frozen=True)
class Sym:
    degree: int

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ValueError("symmetric power degree must be nonnegative")


@dataclass(frozen=True)
class Wedge:
    degree: int

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("wedge power degree must be positive")


@dataclass(frozen=True)
class Trivial:
    pass


@dataclass(frozen=True)
class Tensor:
    factors: tuple

    def __post_init__(self) -> None:
        if len(self.factors) < 2:
            raise ValueError("tensor shape needs at least two factors")
        for f in self.factors:
            if not isinstance(f, (Sym, Wedge)):
                raise ValueError("tensor factors must be Sym or Wedge shapes")


Shape = Union[Sym, Wedge, Trivial, Tensor]


def shape_name(shape: Shape) -> str:
    if isinstance(shape, Sym):
        return "Sym(%d)" % shape.degree
    if isinstance(shape, Wedge):
        return "Wedge(%d)" % shape.degree
    if isinstance(shape, Trivial):
        return "Trivial"
    return "Tensor(%s)" % ",".join(shape_name(f) for f in shape.factors)


def parse_shape(text: str) -> Shape:
    """Inverse of shape_name; accepts e.g. "Sym(4)" or "Tensor(Sym(2),Wedge(2))"."""
    t = text.strip()
    if t == "Trivial":
        return Trivial()
    for ctor, prefix in ((Sym, "Sym("), (Wedge, "Wedge(")):
        if t.startswith(prefix) and t.endswith(")"):
            return ctor(int(t[len(prefix):-1]))
    if t.startswith("Tensor(") and t.endswith(")"):
        inner = t[len("Tensor("):-1]
        parts, depth, start = [], 0, 0
        for i, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                parts.append(inner[start:i])
                start = i + 1
        parts.append(inner[start:])
        return Tensor(tuple(parse_shape(p) for p in parts))
    raise ValueError("unrecognized shape %r" % text)


# ---------------------------------------------------------------------------
# modules


@dataclass(frozen=True)
class Module:
    """A realized SL(N+1) module: rank parameter plus shape.

    Basis keys are exponent tuples (Sym), sorted index tuples (Wedge), the
    empty tuple (Trivial), or tuples of factor keys (Tensor).
    """

    N: int
    shape: Shape

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError("rank parameter must be at least 1")

    @property
    def n_vars(self) -> int:
        return self.N + 1

    @property
    def basis(self) -> tuple:
        return _basis_keys(self)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def weight_of(self, key) -> tuple[int, ...]:
        """Raw integer weight of a basis element."""
        return _key_weight(self.shape, self.n_vars, key)

    def weights(self) -> tuple[tuple[int, ...], ...]:
        """Weight multiset in basis order."""
        return tuple(self.weight_of(k) for k in self.basis)

    def weight_set(self) -> tuple[tuple[int, ...], ...]:
        """Sorted distinct raw weights."""
        return tuple(sorted(set(self.weights())))


@functools.lru_cache(maxsize=None)
def _basis_keys(module: Module) -> tuple:
    return tuple(_shape_basis(module.shape, module.n_vars))


def _shape_basis(shape: Shape, n: int) -> list:
    if isinstance(shape, Trivial):
        return [()]
    if isinstance(shape, Sym):
        keys = []
        for combo in itertools.combinations_with_replacement(range(n), shape.degree):
            exp = [0] * n
            for i in combo:
                exp[i] += 1
            keys.append(tuple(exp))
        return sorted(keys)
    if isinstance(shape, Wedge):
        if shape.degree > n:
            raise ValueError("wedge degree exceeds the number of variables")
        return list(itertools.combinations(range(n), shape.degree))
    if not isinstance(shape, Tensor):
        raise ValueError("no basis implemented for shape %r" % (shape,))
    factor_bases = [_shape_basis(f, n) for f in shape.factors]
    return [tuple(k) for k in itertools.product(*factor_bases)]


def _key_weight(shape: Shape, n: int, key) -> tuple[int, ...]:
    if isinstance(shape, Trivial):
        return (0,) * n
    if isinstance(shape, Sym):
        return tuple(key)
    if isinstance(shape, Wedge):
        return tuple(1 if i in key else 0 for i in range(n))
    if not isinstance(shape, Tensor):
        raise ValueError("no weights implemented for shape %r" % (shape,))
    total = [0] * n
    for f, k in zip(shape.factors, key):
        for i, c in enumerate(_key_weight(f, n, k)):
            total[i] += c
    return tuple(total)


# ---------------------------------------------------------------------------
# vectors


@dataclass(frozen=True)
class WeightedVector:
    """Nonzero module element with exact rational coefficients."""

    module: Module
    coeffs: tuple  # ordered tuple of (basis_key, Fraction), zero-free

    def __post_init__(self) -> None:
        basis = set(self.module.basis)
        cleaned = []
        for key, c in self.coeffs:
            c = Fraction(c)
            if key not in basis:
                raise ValueError("coefficient on a key outside the basis: %r" % (key,))
            if c != 0:
                cleaned.append((key, c))
        if not cleaned:
            raise ValueError("zero vector is not a valid WeightedVector")
        seen = set()
        for key, _ in cleaned:
            if key in seen:
                raise ValueError("duplicate basis key %r" % (key,))
            seen.add(key)
        order = {k: i for i, k in enumerate(self.module.basis)}
        cleaned.sort(key=lambda kc: order[kc[0]])
        object.__setattr__(self, "coeffs", tuple(cleaned))

    def coeff_map(self) -> dict:
        return dict(self.coeffs)

    def support(self) -> tuple[tuple[int, ...], ...]:
        """Sorted distinct raw weights carrying a nonzero coefficient."""
        return tuple(sorted({self.module.weight_of(k) for k, _ in self.coeffs}))


def vector(module: Module, entries: Mapping | Iterable) -> WeightedVector:
    items = entries.items() if isinstance(entries, Mapping) else entries
    return WeightedVector(module, tuple((k, Fraction(c)) for k, c in items))


class IntVector(NamedTuple):
    """A vector's coefficients times q, their least common denominator, as
    ints: ``int_vector`` clears once for a caller acting many times."""

    module: Module
    keys: list
    coeffs: list[int]
    q: int


def int_vector(v: WeightedVector | IntVector) -> IntVector:
    if isinstance(v, IntVector):
        return v
    [cs], q = _linalg.int_rows([[c for _, c in v.coeffs]])
    return IntVector(v.module, [k for k, _ in v.coeffs], cs, q)


def weight_polytope(v: WeightedVector) -> LatticePolytope:
    """Hull of the traceless representatives of the support."""
    return hull([Weight(w).traceless() for w in v.support()])


# ---------------------------------------------------------------------------
# matrix action


def matrix_action(
    sigma: Sequence[Sequence], v: WeightedVector
) -> WeightedVector:
    """Apply a determinant-one matrix to a vector, exactly.

    The action substitutes columns for basis vectors: sigma sends e_i to
    sum_j sigma[j][i] e_j, then Sym keys expand multiplicatively, Wedge keys
    expand through minors, and Tensor keys factorwise.  It runs in integers:
    sigma is cleared once to an integer matrix over one common denominator
    m, the coefficients of v over one denominator q, and every image
    coefficient is homogeneous of the shape's degree h in the matrix
    entries, so one division by q * m**h restores it.  A Sym image is one
    dense int list over the basis: each key adds the product of the powers
    L_i^e of the column forms L_i = sum_j sigma[j][i] x_j, kept as dense
    int lists over the monomials of degree e, built once per matrix and
    multiplied through cached tables of monomial products.

    Raises:
        ValueError: wrong matrix size, determinant not one, or a shape
            without an implemented action.
    """
    [(keys, ints, den)] = _int_images(sigma, [v])
    coeffs = tuple((k, Fraction(a, den)) for k, a in zip(keys, ints) if a)
    if not coeffs:
        raise AssertionError("invertible action produced zero")
    return WeightedVector(v.module, coeffs)


def image_supports(sigma: Sequence[Sequence], vectors: Sequence) -> tuple:
    """The supports of sigma.v for vectors v over one group (WeightedVectors
    or IntVectors), from one clearing of sigma; they need only which image
    coefficients are nonzero.  A Sym image runs over the basis in order, and
    a Sym key is its own weight, so its support is read off in order."""
    return tuple(
        tuple(itertools.compress(keys, ints))
        if isinstance(v.module.shape, Sym)
        else tuple(sorted({v.module.weight_of(k) for k in itertools.compress(keys, ints)}))
        for v, (keys, ints, _) in zip(vectors, _int_images(sigma, vectors))
    )


def _int_images(sigma: Sequence[Sequence], vectors: Sequence) -> Iterable:
    """(keys, ints, den) for each v: den * sigma.v has the int ints[i] on
    keys[i], zeros kept; a Sym image runs over the whole basis in order."""
    n = vectors[0].module.n_vars
    if len(sigma) != n or any(len(row) != n for row in sigma):
        raise ValueError("matrix must be %d x %d" % (n, n))
    if isinstance(sigma, ElementaryProduct):
        # integer by construction: m = 1, and the determinant is one
        mat, m = sigma, 1
    else:
        entries = [x if isinstance(x, (int, Fraction)) else Fraction(x) for row in sigma for x in row]
        [flat], m = _linalg.int_rows([entries])
        mat = [flat[i * n : (i + 1) * n] for i in range(n)]
        if _linalg.echelon(mat[:])[1] != m**n:
            raise ValueError("matrix determinant must be exactly 1")
    # powers[i] lists L_i, L_i^2, ... as built so far; the degree-1 basis is
    # e_{n-1}, ..., e_0, so L_i is column i read bottom to top
    powers = [[list(col)] for col in zip(*mat[::-1])]
    for v in map(int_vector, vectors):
        shape, h = v.module.shape, _degree(v.module.shape)
        if h == 0:
            # Trivial, Sym(0) and their tensors: every matrix acts as one
            yield v.keys, v.coeffs, v.q
            continue
        if isinstance(shape, Sym):
            index = _sym_index(n, h)
            dense = [0] * len(index)
            for key, c in zip(v.keys, v.coeffs):
                _add_sym_image(dense, c, powers, key)
            yield index, dense, v.q * m**h
            continue
        out: dict = {}
        get = out.get
        for key, c in zip(v.keys, v.coeffs):
            for new_key, a in _key_action(shape, mat, powers, key).items():
                out[new_key] = get(new_key, 0) + c * a
        yield out.keys(), out.values(), v.q * m**h


def _degree(shape: Shape) -> int:
    """Degree of the action's coefficients as polynomials in the entries."""
    if isinstance(shape, Tensor):
        return sum(_degree(f) for f in shape.factors)
    return 0 if isinstance(shape, Trivial) else shape.degree


@functools.lru_cache(maxsize=None)
def _sym_index(n: int, k: int) -> dict:
    """Position of each degree-k exponent tuple in n variables in the Sym(k)
    basis order."""
    return {key: i for i, key in enumerate(_basis_keys(Module(n - 1, Sym(k))))}


@functools.lru_cache(maxsize=None)
def _product_table(n: int, a: int, b: int) -> tuple:
    """For the i-th degree-a monomial, the (j, k) with the j-th degree-b
    monomial times it the k-th degree-(a + b) one, in Sym basis orders."""
    index = _sym_index(n, a + b)
    return tuple(
        tuple((j, index[tuple(map(operator.add, x, y))]) for j, y in enumerate(_sym_index(n, b)))
        for x in _sym_index(n, a)
    )


def _add_sym_image(out: list, c: int, powers: list, key: tuple) -> None:
    """Add c times the image of a Sym key of positive degree to the dense
    list ``out``.  The image is the product of the powers L_i^e of the
    column forms, which are built on demand in ``powers``; its last linear
    factor is multiplied straight into ``out``."""
    n = len(key)
    last = n - 1
    while not key[last]:
        last -= 1
    image, deg = [c], 0
    for i, e in enumerate(key):
        e -= i == last
        if e:
            power = powers[i]
            while len(power) < e:
                power.append(_dense_mul(power[-1], len(power), power[0], 1, n))
            image = [c * x for x in power[e - 1]] if deg == 0 else _dense_mul(image, deg, power[e - 1], e, n)
            deg += e
    _dense_mul(image, deg, powers[last][0], 1, n, out)


def _dense_mul(p: list, a: int, q: list, b: int, n: int, out: list | None = None) -> list:
    """Product of dense forms of degrees a and b in n variables, added into
    ``out`` when given."""
    if out is None:
        out = [0] * len(_sym_index(n, a + b))
    for x, row in zip(p, _product_table(n, a, b)):
        if x:
            for j, k in row:
                out[k] += x * q[j]
    return out


def _key_action(shape: Shape, mat: list[list[int]], powers: list, key) -> dict:
    """Image of one basis key under the integer matrix ``mat``; ``powers``
    holds the powers of mat's column forms, shared by every Sym key."""
    n = len(mat)
    if _degree(shape) == 0:
        return {key: 1}
    if isinstance(shape, Sym):
        index = _sym_index(n, shape.degree)
        dense = [0] * len(index)
        _add_sym_image(dense, 1, powers, key)
        return {k: a for k, a in zip(index, dense) if a}
    if isinstance(shape, Wedge):
        out = {}
        for rows in itertools.combinations(range(n), len(key)):
            d = _linalg.echelon([[mat[r][c] for c in key] for r in rows])[1]
            if d:
                out[rows] = d
        return out
    if isinstance(shape, Tensor):
        parts = [_key_action(f, mat, powers, k) for f, k in zip(shape.factors, key)]
        return {
            tuple(k for k, _ in combo): math.prod(c for _, c in combo)
            for combo in itertools.product(*(p.items() for p in parts))
        }
    raise ValueError("no action implemented for shape %r" % (shape,))


# ---------------------------------------------------------------------------
# Weyl orbits and dominance


def weyl_orbit_polytope(lam: Sequence[int]) -> LatticePolytope:
    """Hull of all coordinate permutations, on the traceless representative.

    Args:
        lam: weakly decreasing integer tuple with last coordinate zero.

    Raises:
        ValueError: input not dominant in that normalization.
    """
    lam = tuple(int(x) for x in lam)
    if any(a < b for a, b in zip(lam, lam[1:])) or (lam and lam[-1] != 0):
        raise ValueError("expected a weakly decreasing tuple ending in 0")
    base = Weight(lam).traceless()
    return hull(set(itertools.permutations(base)))


def dominance_leq(lam: Sequence[int], mu: Sequence[int]) -> bool:
    """Partial-sum dominance between partitions, compared after centering.

    Both inputs are zero-padded to a common length and shifted to mean zero;
    the result is true when every partial sum of the first is at most the
    matching partial sum of the second.  On partitions with equal totals the
    centering cancels and this is the plain partial-sum rule; across unequal
    totals it is the order the orbit-polytope comparison actually satisfies,
    since weight classes only see centered representatives.
    """
    a = [Fraction(int(x)) for x in lam]
    b = [Fraction(int(x)) for x in mu]
    size = max(len(a), len(b))
    a += [Fraction(0)] * (size - len(a))
    b += [Fraction(0)] * (size - len(b))
    ma = sum(a) / size
    mb = sum(b) / size
    pa = Fraction(0)
    pb = Fraction(0)
    for i in range(size):
        pa += a[i] - ma
        pb += b[i] - mb
        if pa > pb:
            return False
    return True


def attainable_polytopes(module: Module, size_cap: int = 12) -> list[LatticePolytope]:
    """Distinct hulls of nonempty subsets of the module's weight set.

    Raises:
        ValueError: more distinct weights than size_cap.
    """
    pts = [Weight(w).traceless() for w in module.weight_set()]
    if len(pts) > size_cap:
        raise ValueError(
            "weight set of size %d exceeds cap %d" % (len(pts), size_cap)
        )
    seen = set()
    out = []
    for r in range(1, len(pts) + 1):
        for subset in itertools.combinations(pts, r):
            P = hull(subset)
            if P not in seen:
                seen.add(P)
                out.append(P)
    out.sort(key=lambda P: P.vertices)
    return out


# ---------------------------------------------------------------------------
# SL(3) contraction kernel


@dataclass(frozen=True)
class ContractionKernel:
    """Kernel of the SL(3)-equivariant contraction Sym2 x Wedge2 -> C^3.

    The contraction sends a product of two vectors tensored with an
    alternating 2-form to the sum of the form's evaluations, one vector
    plugged in at a time.  Its kernel is an irreducible 15-dimensional
    module; ``basis`` is an exact rational basis of it inside the ambient
    tensor realization.
    """

    ambient: Module
    basis: tuple[WeightedVector, ...]

    def contains(self, v: WeightedVector) -> bool:
        if v.module != self.ambient:
            raise ValueError("vector lives in a different module")
        image = _contract_vector(v)
        return all(val == 0 for val in image)


def _eps(pair: tuple[int, int], i: int) -> int:
    # signed evaluation of the alternating form e_k ^ e_l on e_i
    k, l = pair
    if i == k or i == l:
        return 0
    perm = (k, l, i)
    inversions = sum(
        1 for a in range(3) for b in range(a + 1, 3) if perm[a] > perm[b]
    )
    return -1 if inversions % 2 else 1


def _contract_key(key) -> dict[int, Fraction]:
    alpha, pair = key
    out: dict[int, Fraction] = {}
    for c in range(3):
        if alpha[c] == 0:
            continue
        sign = _eps(pair, c)
        if sign == 0:
            continue
        rest = list(alpha)
        rest[c] -= 1
        target = rest.index(1)
        out[target] = out.get(target, Fraction(0)) + alpha[c] * sign
    return {k: v for k, v in out.items() if v != 0}


def _contract_vector(v: WeightedVector) -> tuple[Fraction, Fraction, Fraction]:
    image = [Fraction(0)] * 3
    for key, c in v.coeffs:
        for j, val in _contract_key(key).items():
            image[j] += c * val
    return tuple(image)


@functools.lru_cache(maxsize=1)
def sl3_contraction_kernel() -> ContractionKernel:
    ambient = Module(2, Tensor((Sym(2), Wedge(2))))
    keys = ambient.basis
    rows = [[Fraction(0)] * len(keys) for _ in range(3)]
    for col, key in enumerate(keys):
        for j, val in _contract_key(key).items():
            rows[j][col] = val
    basis = tuple(
        WeightedVector(ambient, tuple(zip(keys, vec))) for vec in _linalg.nullspace(rows)
    )
    if len(basis) != 15:
        raise AssertionError("contraction kernel should be 15-dimensional")
    return ContractionKernel(ambient, basis)
