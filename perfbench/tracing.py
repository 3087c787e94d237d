"""Span tracing for the traced run, installed from outside the package.

``Tracer.install`` replaces each traced function with a wrapper that records
one span per call: (id, parent id, name, start, end, note).  It patches the
defining module's attribute and every other ``pairstab`` module attribute
bound to the same function object, which covers names imported by value
(``toric`` imports ``solve_phase1``, ``hull`` and ``contains``; ``rep``,
``pairs`` and ``binaryforms`` import ``hull``, ``member`` and ``contains``).
``uninstall`` puts the originals back.  Spans stay in memory until the run
ends.

The wrapper is the same small closure for every function, because
``toric.star_condition`` and ``toric.boundary_witness`` can run 1e4-1e5
times in a run: two clock reads, a stack push and pop, one tuple append.
"""

from __future__ import annotations

import gzip
import itertools
import json
import sys
import time
from collections import defaultdict

# (module, attribute path) of each traced function; the metric prefix is
# "<module>.<attribute path>"
TRACED = (
    ("lattice", "solve_phase1"),
    ("lattice", "member"),
    ("lattice", "contains"),
    ("lattice", "hull"),
    ("rep", "weight_polytope"),
    ("rep", "weyl_orbit_polytope"),
    ("rep", "matrix_action"),
    ("pairs", "nss_check"),
    ("pairs", "nss_fixed_torus"),
    ("pairs", "conjugate_pair"),
    ("pairs", "futaki_gen"),
    ("binaryforms", "sl2_order_violation"),
    ("binaryforms", "sl2_pair_nss"),
    ("binaryforms", "rational_roots"),
    ("binaryforms", "resultant"),
    ("energy", "energy_along_1ps"),
    ("energy", "asymptotic_slope"),
    ("toric", "accessible_faces"),
    ("toric", "extension_criterion"),
    ("toric", "boundary_witness"),
    ("toric", "star_condition"),
    ("koszul", "torsion"),
    ("koszul", "FiniteComplex.ranks"),
    ("koszul", "koszul_complex"),
    ("koszul", "koszul_resultant"),
    ("cli", "run"),
)


def _note_infeasible(args, out):
    return not out.feasible


def _note_points(args, out):
    return len(args[0])


def _note_count(args, out):
    return len(out)


def _note_refuted(args, out):
    return out.status == "unstable"


def _note_exit(args, out):
    return out[0]


# what a span remembers of its call, for the ratio metrics
NOTES = {
    "lattice.solve_phase1": _note_infeasible,
    "lattice.hull": _note_points,
    "toric.accessible_faces": _note_count,
    "pairs.nss_check": _note_refuted,
    "cli.run": _note_exit,
}


def _hull_args(args):
    # hull iterates its argument once; a one-shot iterator is materialized
    # so the span can count the points without consuming them
    if args and not hasattr(args[0], "__len__"):
        return (tuple(args[0]),) + args[1:]
    return args


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack = [0]
        self._ids = itertools.count(1)
        self._patched: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter
        note = NOTES.get(name)
        prep = _hull_args if name == "lattice.hull" else None

        def wrapper(*args, **kwargs):
            if prep is not None:
                args = prep(args)
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, "raised"))
                raise
            t1 = clock()
            stack.pop()
            spans.append((sid, parent, name, t0, t1, note(args, out) if note else None))
            return out

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "pairstab"]
        for modname, path in TRACED:
            owner = sys.modules["pairstab." + modname]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{modname}.{path}", original)
            targets = [(owner, attr)]
            if not outer:
                targets += [
                    (m, k) for m in modules if m is not owner
                    for k, v in vars(m).items() if v is original
                ]
            for target, key in targets:
                setattr(target, key, wrapper)
                self._patched.append((target, key, original))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patched):
            setattr(target, key, original)
        self._patched.clear()

    def write(self, path) -> None:
        """One JSON array per span: id, parent id, name, start s, end s, note."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


STATS = {
    "lattice.solve_phase1": ("infeasible_share",),
    "lattice.member": ("lp_share",),
    "lattice.hull": ("lp_per_point",),
    "pairs.nss_check": ("tori_per_call", "refuted_share"),
    "toric.accessible_faces": ("lp_per_face",),
    "koszul.torsion": ("ranks_per_call",),
    "cli.run": ("exit_0", "exit_1", "exit_2"),
}
UNITS = {"calls": "count", "self_s": "s", "exit_0": "count", "exit_1": "count", "exit_2": "count"}


def metric_names():
    """(name, unit) of every per-layer metric, in table order."""
    out = []
    for modname, path in TRACED:
        span = f"{modname}.{path}"
        for stat in ("calls", "self_s") + STATS.get(span, ()):
            out.append((f"{span}.{stat}", UNITS.get(stat, "ratio")))
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, passes: int) -> dict:
    """Per-layer metrics from the spans of ``passes`` identical traced passes.

    ``calls`` and ``self_s`` are per pass.  Self time is a span's duration
    minus the time its child spans cover.  Each ratio takes its base from
    the span tree: LPs and ``ranks()`` are counted as direct children of the
    span named in the ratio (nothing between them is traced).
    """
    by_id = {}
    child_time = defaultdict(float)
    for sid, parent, name, t0, t1, note in spans:
        by_id[sid] = (name, note)
        child_time[parent] += t1 - t0
    calls = defaultdict(int)
    self_s = defaultdict(float)
    notes = defaultdict(list)
    # child-name counts per parent span, for the ratios
    kids = defaultdict(lambda: defaultdict(int))
    for sid, parent, name, t0, t1, note in spans:
        calls[name] += 1
        self_s[name] += (t1 - t0) - child_time[sid]
        notes[name].append(note)
        if parent:
            kids[by_id[parent][0]][name] += 1
    members_with_lp = len({
        parent for sid, parent, name, *_ in spans
        if name == "lattice.solve_phase1" and parent and by_id[parent][0] == "lattice.member"
    })
    ratios = {
        "lattice.solve_phase1.infeasible_share": _ratio(
            sum(1 for n in notes["lattice.solve_phase1"] if n is True),
            calls["lattice.solve_phase1"]),
        "lattice.member.lp_share": _ratio(members_with_lp, calls["lattice.member"]),
        "lattice.hull.lp_per_point": _ratio(
            kids["lattice.hull"]["lattice.solve_phase1"],
            sum(n for n in notes["lattice.hull"] if isinstance(n, int))),
        "pairs.nss_check.tori_per_call": _ratio(
            kids["pairs.nss_check"]["pairs.nss_fixed_torus"], calls["pairs.nss_check"]),
        "pairs.nss_check.refuted_share": _ratio(
            sum(1 for n in notes["pairs.nss_check"] if n is True), calls["pairs.nss_check"]),
        "toric.accessible_faces.lp_per_face": _ratio(
            kids["toric.accessible_faces"]["lattice.solve_phase1"],
            sum(n for n in notes["toric.accessible_faces"] if isinstance(n, int))),
        "koszul.torsion.ranks_per_call": _ratio(
            kids["koszul.torsion"]["koszul.FiniteComplex.ranks"], calls["koszul.torsion"]),
    }
    for code in (0, 1, 2):
        ratios[f"cli.run.exit_{code}"] = _ratio(
            sum(1 for n in notes["cli.run"] if n == code), passes)
    out = {}
    for name, unit in metric_names():
        span, stat = name.rsplit(".", 1)
        if stat == "calls":
            value = _ratio(calls[span], passes)
        elif stat == "self_s":
            value = _ratio(self_s[span], passes)
        else:
            value = ratios[name]
        out[name] = {"value": value, "unit": unit}
    return out
