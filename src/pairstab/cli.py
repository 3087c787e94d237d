"""Command-line front end.

Every subcommand reads JSON or comma-separated flags, runs one exact
operation, and prints a JSON document (CSV for profiles) with a top-level
"schema" key.  Exit codes: 0 success or affirmative verdict, 2 negative
verdict (unstable, does not extend, containment fails), 1 malformed input
or violated precondition.

Determinism: output is byte-identical for identical invocations.  All
randomness flows from one seed through random.Random (Mersenne Twister);
the PAIRSTAB_SEED environment variable supplies the default seed when the
--seed flag is absent, and nothing else.

Rationals are serialized as integers when integral, otherwise as "p/q"
strings; coefficient lists for binary forms run from the constant term up.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import binaryforms, koszul, toric
from .energy import asymptotic_slope, default_grid, energy_along_1ps
from .lattice import Cocharacter
from .pairs import (
    Characteristic,
    NotRefuted,
    Pair,
    ProvenSemistable,
    Unstable,
    characteristic,
    futaki_gen,
    nss_check,
    weight_1ps,
)
from .rep import (
    Module,
    Shape,
    Sym,
    Tensor,
    Trivial,
    WeightedVector,
    Wedge,
    matrix_action,
    parse_shape,
    shape_name,
    sl3_contraction_kernel,
    vector,
    weight_polytope,
)

SCHEMA = "pairstab/v1"


# ---------------------------------------------------------------------------
# serialization helpers


def _ser(x):
    """Rationals to int or "p/q", containers recursively, floats as-is."""
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else str(x)
    if isinstance(x, bool) or isinstance(x, int) or isinstance(x, float):
        return x
    if isinstance(x, (tuple, list)):
        return [_ser(c) for c in x]
    if isinstance(x, str) or x is None:
        return x
    raise TypeError(f"cannot serialize {type(x).__name__}")


def _parse_q(tok) -> Fraction:
    if isinstance(tok, bool):
        raise ValueError("booleans are not coefficients")
    if isinstance(tok, (int, str)):
        return Fraction(str(tok).strip())
    raise ValueError(f"expected integer or 'p/q' string, got {tok!r}")


def _parse_q_list(text: str) -> list[Fraction]:
    toks = [t for t in text.split(",") if t.strip()]
    if not toks:
        raise ValueError("empty coefficient list")
    return [_parse_q(t) for t in toks]


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(",") if t.strip())


def _forms(args) -> tuple[binaryforms.BinaryForm, binaryforms.BinaryForm]:
    """The forms given by the --f, --g, --deg-f and --deg-g flags."""
    f = binaryforms.form(_parse_q_list(args.f), args.deg_f)
    return f, binaryforms.form(_parse_q_list(args.g), args.deg_g)


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _list(x, what: str) -> list:
    """A JSON array from a document, or a ValueError naming the field."""
    if not isinstance(x, list):
        raise ValueError(f"{what} must be a list")
    return x


def _int(x) -> int:
    """int(x) for a JSON value, with arrays, objects and null rejected."""
    if isinstance(x, (list, dict)) or x is None:
        raise ValueError(f"expected an integer, got {x!r}")
    return int(x)


def _key_from_json(shape: Shape, k):
    if isinstance(shape, Trivial):
        if k not in ([], ()):
            raise ValueError("trivial factor key must be []")
        return ()
    if isinstance(shape, (Sym, Wedge)):
        return tuple(_int(c) for c in _list(k, "key"))
    if isinstance(shape, Tensor):
        if len(_list(k, "key")) != len(shape.factors):
            raise ValueError("tensor key arity mismatch")
        return tuple(_key_from_json(f, part) for f, part in zip(shape.factors, k))
    raise ValueError(f"unknown shape {shape!r}")


def _key_to_json(k):
    if isinstance(k, tuple):
        return [_key_to_json(c) for c in k]
    return k


def _vector_from_json(data) -> WeightedVector:
    if not isinstance(data, dict):
        raise ValueError("vector document must be an object")
    for field in ("N", "shape", "entries"):
        if field not in data:
            raise ValueError(f"vector document is missing {field!r}")
    shape = parse_shape(str(data["shape"]))
    mod = Module(_int(data["N"]), shape)
    entries = {}
    for item in _list(data["entries"], "entries"):
        if not isinstance(item, list) or len(item) != 2:
            raise ValueError("entries must be [key, coefficient] pairs")
        key = _key_from_json(shape, item[0])
        if key in entries:
            raise ValueError(f"duplicate key {item[0]!r}")
        entries[key] = _parse_q(item[1])
    return vector(mod, entries)


def _vector_to_json(v: WeightedVector) -> dict:
    return {
        "N": v.module.N,
        "shape": shape_name(v.module.shape),
        "entries": [[_key_to_json(k), _ser(c)] for k, c in v.coeffs],
    }


def _pair_from_json(data) -> Pair:
    if not isinstance(data, dict) or "v" not in data or "w" not in data:
        raise ValueError("pair document needs fields 'v' and 'w'")
    return Pair(_vector_from_json(data["v"]), _vector_from_json(data["w"]))


def _form_vector(f: binaryforms.BinaryForm) -> WeightedVector:
    mod = Module(1, Sym(f.degree))
    return vector(
        mod,
        {(i, f.degree - i): c for i, c in enumerate(f.coeffs) if c != 0},
    )


def _verdict_payload(verdict) -> dict:
    out: dict = {"status": verdict.status}
    if isinstance(verdict, Unstable):
        out["conjugator"] = (
            None if verdict.conjugator is None else _ser(verdict.conjugator)
        )
        out["witness"] = (
            None if verdict.witness is None else list(verdict.witness.coords)
        )
        out["futaki"] = None if verdict.futaki is None else _ser(verdict.futaki)
        if verdict.detail:
            out["detail"] = verdict.detail
    elif isinstance(verdict, NotRefuted):
        out["tori_tested"] = verdict.tori_tested
    elif isinstance(verdict, ProvenSemistable):
        out["method"] = verdict.method
    return out


def _characteristic_payload(ch: Characteristic) -> dict:
    return {
        "chi_min": _ser(ch.chi_min),
        "chi_min_traceless": _ser(ch.chi_min_traceless),
        "h": _ser(ch.h),
        "h_dominant": _ser(ch.h_dominant),
        "ht_sq": _ser(ch.ht_sq),
        "ht": ch.ht,
    }


def _resolve_seed(args) -> None:
    """Fill an absent --seed from PAIRSTAB_SEED (default 0), read per call."""
    if "seed" in vars(args) and args.seed is None:
        args.seed = int(os.environ.get("PAIRSTAB_SEED", "0"))


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (exit_code, payload dict) or
# (exit_code, raw text) for CSV output


def _cmd_pair_check(args) -> tuple[int, dict]:
    p = _pair_from_json(_load_json(args.pair))
    verdict = nss_check(p, samples=args.samples, seed=args.seed)
    payload = {
        "verdict": _verdict_payload(verdict),
        "samples": args.samples,
        "seed": args.seed,
    }
    return (2 if isinstance(verdict, Unstable) else 0, payload)


def _cmd_pair_check_sl2(args) -> tuple[int, dict]:
    f, g = _forms(args)
    violation = binaryforms.sl2_order_violation(f, g)
    pair = Pair(_form_vector(f), _form_vector(g))
    verdict = nss_check(pair, samples=args.samples, seed=args.seed)
    payload: dict = {
        "semistable": violation is None,
        "deg_f": f.degree,
        "deg_g": g.degree,
        "verdict": _verdict_payload(verdict),
    }
    if violation is not None:
        payload["violation"] = {
            "kind": violation.kind,
            "bound": _ser(violation.bound),
            "g_order": violation.g_value,
            "f_order": violation.f_value,
            "factor": None if violation.factor is None else _ser(violation.factor),
        }
    return (2 if violation is not None else 0, payload)


def _cmd_futaki(args) -> tuple[int, dict]:
    p = _pair_from_json(_load_json(args.pair))
    u = Cocharacter(_parse_int_list(args.u))
    return (
        0,
        {
            "u": list(u.coords),
            "futaki": _ser(futaki_gen(p, u)),
            "weight_v": _ser(weight_1ps(p.v, u)),
            "weight_w": _ser(weight_1ps(p.w, u)),
        },
    )


def _cmd_characteristic(args) -> tuple[int, dict]:
    v = _vector_from_json(_load_json(args.vector))
    ch = characteristic(v)
    return (0, _characteristic_payload(ch))


def _cmd_energy_profile(args):
    p = _pair_from_json(_load_json(args.pair))
    u = Cocharacter(_parse_int_list(args.u))
    grid = default_grid(args.tmin, args.per_decade)
    profile = energy_along_1ps(p, u, grid)
    try:
        slope: Optional[float] = asymptotic_slope(profile)
    except ValueError:
        slope = None
    if args.format == "csv":
        lines = ["t,log_t2,nu"]
        for (t, nu), lt2 in zip(profile.samples, profile.log_t2()):
            lines.append(f"{t!r},{lt2!r},{nu!r}")
        return (0, "\n".join(lines) + "\n")
    return (
        0,
        {
            "u": list(profile.u),
            "samples": [[t, nu] for t, nu in profile.samples],
            "slope": slope,
            "futaki": _ser(futaki_gen(p, u)),
        },
    )


def _points_from_json(data, what: str) -> list[tuple[int, ...]]:
    if not isinstance(data, dict) or "points" not in data:
        raise ValueError(f"{what} document needs a 'points' field")
    pts = [tuple(_int(c) for c in _list(p, "point")) for p in _list(data["points"], "points")]
    if not pts:
        raise ValueError(f"{what} has no points")
    return pts


def _cmd_toric_extend(args) -> tuple[int, dict]:
    A = _points_from_json(_load_json(args.A), "A")
    B = _points_from_json(_load_json(args.B), "B")
    data = toric.ToricData(tuple(A), tuple(B), len(A[0]))
    u = toric.extension_criterion(data).star_violator
    if u is None:
        return (0, {"extends": True})
    lhs, rhs = toric.star_sides(data, u)
    return (
        2,
        {
            "extends": False,
            "star_violator": list(u),
            "lhs": lhs,
            "rhs": rhs,
        },
    )


def _cmd_resultant(args) -> tuple[int, dict]:
    f, g = _forms(args)
    return (
        0,
        {
            "deg_f": f.degree,
            "deg_g": g.degree,
            "resultant": _ser(binaryforms.resultant(f, g)),
        },
    )


def _cmd_discriminant(args) -> tuple[int, dict]:
    f = binaryforms.form(_parse_q_list(args.f), args.deg)
    return (0, {"deg": f.degree, "discriminant": _ser(binaryforms.discriminant(f))})


def _cmd_vertices(vertices, args) -> tuple[int, dict]:
    return (0, {"d": args.d, "vertices": sorted(_ser(v) for v in vertices(args.d))})


def _cmd_scaled_containment(args) -> tuple[int, dict]:
    holds = binaryforms.scaled_containment_check(args.d)
    return (0 if holds else 2, {"d": args.d, "holds": holds})


def _matrix_from_json(rows) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(_parse_q(x) for x in _list(row, "row")) for row in _list(rows, "map"))


def _cmd_torsion(args) -> tuple[int, dict]:
    data = _load_json(args.complex)
    if not isinstance(data, dict) or "dims" not in data or "maps" not in data:
        raise ValueError("complex document needs fields 'dims' and 'maps'")
    c = koszul.FiniteComplex(
        tuple(_int(d) for d in _list(data["dims"], "dims")),
        tuple(_matrix_from_json(m) for m in _list(data["maps"], "maps")),
    )
    value = koszul.torsion(c)
    return (
        0,
        {
            "dims": list(c.dims),
            "ranks": list(c.ranks()),
            "torsion": _ser(value),
        },
    )


def _cmd_koszul_resultant(args) -> tuple[int, dict]:
    f, g = _forms(args)
    value = koszul.koszul_resultant(f, g, args.m)
    return (
        0,
        {
            "m": args.m,
            "torsion": _ser(value),
            "sylvester": _ser(binaryforms.resultant(f, g)),
        },
    )


def _cmd_euler_degree(args) -> tuple[int, dict]:
    h0 = _parse_int_list(args.h0)
    return (0, {"h0": h0, "degree": koszul.weighted_euler_degree(h0)})


# ---------------------------------------------------------------------------
# worked examples


def _example_quadric() -> dict:
    wedge = Module(1, Wedge(2))
    sym = Module(1, Sym(2))
    v = vector(wedge, {(0, 1): 1})
    w = vector(sym, {(1, 1): 1})
    p = Pair(v, w)
    verdict = nss_check(p, samples=64, seed=0)
    u = Cocharacter((1, -1))
    return {
        "pair": {"v": _vector_to_json(v), "w": _vector_to_json(w)},
        "weight_polytope_v": sorted(_ser(x) for x in weight_polytope(v).vertices),
        "weight_polytope_w": sorted(_ser(x) for x in weight_polytope(w).vertices),
        "futaki_along_(1,-1)": _ser(futaki_gen(p, u)),
        "verdict": _verdict_payload(verdict),
    }


def _example_sl3_xnil(seed: int) -> dict:
    amb = Module(2, Tensor((Sym(2), Wedge(2))))
    vmod = Module(2, Tensor((Wedge(2), Wedge(2))))
    w_fix = vector(amb, {((1, 1, 0), (0, 1)): 1})
    orbit = vector(amb, {((2, 0, 0), (0, 1)): 1, ((1, 1, 0), (0, 1)): 1})
    v_fix = vector(vmod, {((0, 1), (0, 1)): 1})
    kernel = sl3_contraction_kernel()
    ch = characteristic(orbit)
    u = Cocharacter((-1, 1, 0))
    verdict = nss_check(Pair(v_fix, w_fix), samples=64, seed=seed)
    support = [list(wt) for wt in orbit.support()]
    pairings = [
        _ser(sum(Fraction(c) * hc for c, hc in zip(wt, ch.h)))
        for wt in orbit.support()
    ]
    return {
        "ambient_dimension": amb.dimension,
        "kernel_dimension": len(kernel.basis),
        "orbit_vector_in_kernel": kernel.contains(orbit),
        "orbit_support": support,
        "characteristic": _characteristic_payload(ch),
        "support_pairings_with_h": pairings,
        "degeneration": {"u": list(u.coords), "weight": _ser(weight_1ps(orbit, u))},
        "pair_verdict": _verdict_payload(verdict),
    }


def _example_boundary() -> dict:
    sym3 = Module(1, Sym(3))
    v = vector(sym3, {(2, 1): 1})
    curve = {}
    for t in (Fraction(1), Fraction(1, 2), Fraction(1, 10)):
        sigma = ((t, Fraction(1) / t**2), (Fraction(0), Fraction(1) / t))
        image = matrix_action(sigma, v)
        curve[str(t)] = [[_key_to_json(k), _ser(c)] for k, c in image.coeffs]
    support = list(v.support())
    torus_limits = sorted(
        {
            tuple(toric.boundary_witness(support, (a, -a)))
            for a in (-3, -2, -1, 1, 2, 3)
        }
    )
    return {
        "vector": _vector_to_json(v),
        "curve_samples": curve,
        "curve_limit_support": [[3, 0]],
        "torus_limit_supports": [[list(p) for p in s] for s in torus_limits],
        "limit_accessible_from_torus": False,
    }


def _example_gkz() -> dict:
    out: dict = {}
    for d in (2, 3, 4):
        out[str(d)] = {
            "chow_vertices": sorted(
                _ser(v) for v in binaryforms.chow_polytope_vertices(d)
            ),
            "disc_vertices": sorted(
                _ser(v) for v in binaryforms.disc_polytope_vertices(d)
            ),
            "scaled_containment": binaryforms.scaled_containment_check(d),
        }
    out["newton_polytope_matches"] = {
        str(d): binaryforms.disc_newton_polytope_matches(d) for d in (2, 3, 4)
    }
    return out


_EXAMPLES = {
    "quadric-2x2": lambda args: _example_quadric(),
    "sl3-xnil": lambda args: _example_sl3_xnil(args.seed),
    "inaccessible-boundary": lambda args: _example_boundary(),
    "gkz": lambda args: _example_gkz(),
}


def _cmd_examples(args) -> tuple[int, dict]:
    name = args.name
    if name is None:
        return (0, {"available": list(_EXAMPLES)})
    if name not in _EXAMPLES:
        raise ValueError(f"unknown example {name!r}; available: {', '.join(_EXAMPLES)}")
    payload = _EXAMPLES[name](args)
    payload["example"] = name
    return (0, payload)


# ---------------------------------------------------------------------------
# parser and entry points


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairstab",
        description="Exact stability checks for pairs, binary forms, "
        "torus orbit data, and torsion of finite complexes.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(func=func, op=name)
        sp.add_argument("--output", help="write the result to this file")
        return sp

    sp = add("pair-check", _cmd_pair_check, help="torus sweep verdict for a pair file")
    sp.add_argument("--pair", required=True, help="JSON pair document")
    sp.add_argument("--samples", type=int, default=64)
    sp.add_argument("--seed", type=int, default=None)

    sp = add(
        "pair-check-sl2",
        _cmd_pair_check_sl2,
        help="exact order-criterion verdict for two binary forms",
    )
    sp.add_argument("--f", required=True, help="coefficients, constant term first")
    sp.add_argument("--g", required=True)
    sp.add_argument("--deg-f", type=int, default=None)
    sp.add_argument("--deg-g", type=int, default=None)
    sp.add_argument("--samples", type=int, default=64)
    sp.add_argument("--seed", type=int, default=None)

    sp = add("futaki", _cmd_futaki, help="pair weight difference along a cocharacter")
    sp.add_argument("--pair", required=True)
    sp.add_argument("--u", required=True, help="cocharacter, e.g. '1,-1'")

    sp = add(
        "characteristic",
        _cmd_characteristic,
        help="minimal weight distance data of a vector",
    )
    sp.add_argument("--vector", required=True, help="JSON vector document")

    sp = add("energy-profile", _cmd_energy_profile, help="log-norm energy along a 1-ps")
    sp.add_argument("--pair", required=True)
    sp.add_argument("--u", required=True)
    sp.add_argument("--tmin", type=float, default=1e-6)
    sp.add_argument("--per-decade", type=int, default=4)
    sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = add("toric-extend", _cmd_toric_extend, help="orbit map extension criterion")
    sp.add_argument("--A", required=True, help="JSON {'points': [[...], ...]}")
    sp.add_argument("--B", required=True)

    sp = add("resultant", _cmd_resultant, help="resultant of two binary forms")
    sp.add_argument("--f", required=True)
    sp.add_argument("--g", required=True)
    sp.add_argument("--deg-f", type=int, default=None)
    sp.add_argument("--deg-g", type=int, default=None)

    sp = add("discriminant", _cmd_discriminant, help="discriminant of a binary form")
    sp.add_argument("--f", required=True)
    sp.add_argument("--deg", type=int, default=None)

    for name, vertices, text in (
        ("chow-polytope", binaryforms.chow_polytope_vertices, "degree-d root-sum vertices"),
        ("disc-polytope", binaryforms.disc_polytope_vertices, "discriminant vertex set"),
    ):
        sp = add(name, functools.partial(_cmd_vertices, vertices), help=text)
        sp.add_argument("--d", type=int, required=True)

    sp = add(
        "scaled-containment",
        _cmd_scaled_containment,
        help="scaled polytope containment for degree d",
    )
    sp.add_argument("--d", type=int, required=True)

    sp = add("torsion", _cmd_torsion, help="torsion of an exact complex file")
    sp.add_argument("--complex", required=True, help="JSON {'dims': [...], 'maps': [...]}")

    sp = add(
        "koszul-resultant",
        _cmd_koszul_resultant,
        help="resultant via the torsion of the pair complex",
    )
    sp.add_argument("--f", required=True)
    sp.add_argument("--g", required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--deg-f", type=int, default=None)
    sp.add_argument("--deg-g", type=int, default=None)

    sp = add("euler-degree", _cmd_euler_degree, help="weighted alternating sum")
    sp.add_argument("--h0", required=True, help="dimension list, e.g. '7,10,3'")

    sp = add("examples", _cmd_examples, help="worked example bundles")
    sp.add_argument("name", nargs="?", default=None)
    sp.add_argument("--seed", type=int, default=None)

    return parser


def _render(payload) -> str:
    if isinstance(payload, str):
        return payload
    doc = dict(payload)
    doc["schema"] = SCHEMA
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def run(argv: Sequence[str]) -> tuple[int, str]:
    """Parse argv, execute, and return (exit code, output text)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as e:
        return (0 if e.code == 0 else 1, "")
    try:
        _resolve_seed(args)
        code, payload = args.func(args)
        text = _render(payload)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
            text = ""
    except json.JSONDecodeError as e:
        doc = {
            "error": f"malformed JSON: {e.msg}",
            "line": e.lineno,
            "column": e.colno,
            "op": args.op,
        }
        return (1, _render(doc))
    except FileNotFoundError as e:
        return (1, _render({"error": f"no such file: {e.filename}", "op": args.op}))
    except OSError as e:
        return (1, _render({"error": f"cannot open {e.filename}: {e.strerror}", "op": args.op}))
    except (ValueError, ArithmeticError) as e:
        return (1, _render({"error": str(e), "op": args.op}))
    return (code, text)


def main() -> None:
    code, text = run(sys.argv[1:])
    if text:
        sys.stdout.write(text)
    sys.exit(code)


if __name__ == "__main__":
    main()
