"""Multivariate integer polynomials as exponent-tuple dicts.

Only what the symbolic discriminant expansion of ``binaryforms`` and its
tests need: addition, subtraction, multiplication, negation and exact
division by one variable.
Coefficients are Python ints; exponents are tuples of nonnegative ints of a
fixed arity.
"""

from __future__ import annotations

import operator

Poly = dict  # exponent tuple -> nonzero int


def const(nvars: int, c: int) -> Poly:
    return {(0,) * nvars: c} if c else {}


def variable(nvars: int, i: int) -> Poly:
    exp = [0] * nvars
    exp[i] = 1
    return {tuple(exp): 1}


def add(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def sub(p: Poly, q: Poly) -> Poly:
    return add(p, {e: -c for e, c in q.items()})


def mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    get = out.get
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple([*map(operator.add, e1, e2)])
            out[e] = get(e, 0) + c1 * c2
    return out if 0 not in out.values() else {e: c for e, c in out.items() if c}


def neg(p: Poly) -> Poly:
    return {e: -c for e, c in p.items()}


def div_by_variable(p: Poly, i: int) -> Poly:
    """Exact quotient by the i-th variable; every term must contain it."""
    out: Poly = {}
    for e, c in p.items():
        if e[i] < 1:
            raise ArithmeticError("term lacks the divided variable")
        ne = list(e)
        ne[i] -= 1
        out[tuple(ne)] = c
    return out
