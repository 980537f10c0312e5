"""Per-layer tracing for the benchmark, applied from outside the library.

`install` replaces every binding of a public function of the
`drinfeld_towers.*` modules with a wrapper that opens and closes a span around
the call. That covers the defining module, every module that imported the name
(`from .ore import kernel`), module-level dispatch tables, and the public
methods and constructors of public classes. Private names (`_level_candidates`,
`_BaseOps`) are left alone, so their time counts as the self time of their
nearest traced caller.

A span is (name, start, end, parent). Spans nest strictly, so a span's self
time is its duration minus the durations of its direct children. Traced runs
make millions of calls, so each span is folded into per-name totals when it
closes instead of being kept: call counts, self time, outermost inclusive time,
and call counts per (parent, child) pair. The pair counts are what classify a
recursion evaluation by its nearest traced ancestor.

`layer_metrics` turns merged totals into the per-layer metrics of
BENCHMARK.json. `METRICS` lists them with the end-to-end metric each should
move and the workloads it should move on.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
import types

ROOT = "<root>"  # parent of a span opened with no traced span open

ENUMERATE = "towers.enumerate_rational"
CONSTRUCT_POINT = "towers.TowerPoint.__init__"
SPLITTING = "ore.splitting_degree"
RECURSION_EVALS = ("towers.eval_F", "towers.eval_G", "towers.eval_H", "towers.eval_H_cross")
RREF = "linalg.rref"


class Profile:
    """Folds strictly nested spans into per-name totals as they close."""

    def __init__(self):
        self.calls: dict = {}
        self.self_s: dict = {}
        self.total_s: dict = {}  # outermost spans only, so recursion is not double counted
        self.pairs: dict = {}  # (parent name, name) -> calls
        self.zero_results: dict = {}  # (parent name, name) -> recursion evaluations that returned 0
        self.rref_cells = 0
        self._stack: list = []  # [name, start, time covered by children]
        self._depth: dict = {}

    def open(self, name: str, now: float) -> None:
        self._stack.append([name, now, 0.0])
        self._depth[name] = self._depth.get(name, 0) + 1

    def close(self, now: float) -> str:
        """Close the innermost span; return its parent's name."""
        name, start, covered = self._stack.pop()
        dur = now - start
        parent = self._stack[-1][0] if self._stack else ROOT
        if self._stack:
            self._stack[-1][2] += dur
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - covered
        depth = self._depth[name] - 1
        self._depth[name] = depth
        if depth == 0:
            self.total_s[name] = self.total_s.get(name, 0.0) + dur
        key = (parent, name)
        self.pairs[key] = self.pairs.get(key, 0) + 1
        return parent

    def to_json(self) -> dict:
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "total_s": self.total_s,
            "pairs": [[p, c, n] for (p, c), n in self.pairs.items()],
            "zero_results": [[p, c, n] for (p, c), n in self.zero_results.items()],
            "rref_cells": self.rref_cells,
        }


def merge(dumps: list, scales=None) -> dict:
    """Sum `Profile.to_json` dumps (one per child process) into one.

    Times of dump i are multiplied by `scales[i]` (default 1).
    """
    out = {"calls": {}, "self_s": {}, "total_s": {}, "pairs": {}, "zero_results": {}, "rref_cells": 0}
    for d, scale in zip(dumps, scales or [1] * len(dumps)):
        for key, f in (("calls", 1), ("self_s", scale), ("total_s", scale)):
            for name, v in d[key].items():
                out[key][name] = out[key].get(name, 0) + f * v
        for key in ("pairs", "zero_results"):
            for p, c, n in d[key]:
                out[key][p, c] = out[key].get((p, c), 0) + n
        out["rref_cells"] += d["rref_cells"]
    return out


def _span_name(obj, package: str) -> str:
    return f"{obj.__module__[len(package) + 1:]}.{obj.__qualname__}"


def _wrap(fn, name: str, prof: Profile):
    clock = time.perf_counter
    open_, close = prof.open, prof.close

    if name in RECURSION_EVALS:

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_(name, clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                parent = close(clock())
            if not any(out):
                key = (parent, name)
                prof.zero_results[key] = prof.zero_results.get(key, 0) + 1
            return out

    elif name == RREF:

        @functools.wraps(fn)
        def traced(rows, *args, **kwargs):
            if rows:
                prof.rref_cells += len(rows) * len(rows[0])
            open_(name, clock())
            try:
                return fn(rows, *args, **kwargs)
            finally:
                close(clock())

    else:

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_(name, clock())
            try:
                return fn(*args, **kwargs)
            finally:
                close(clock())

    return traced


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def install(package: types.ModuleType, prof: Profile) -> list:
    """Trace every public function of `package` and its submodules.

    Returns the sorted span names that are traced, so a metric whose function
    no longer exists can be reported as absent.
    """
    pkg = package.__name__
    modules = [package] + [
        importlib.import_module(f"{pkg}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    ]

    def ours(obj) -> bool:
        return getattr(obj, "__module__", "").startswith(pkg + ".")

    wrappers: dict = {}  # id(original function) -> wrapper, shared by every binding

    def wrapper_for(fn):
        w = wrappers.get(id(fn))
        if w is None:
            w = wrappers[id(fn)] = (fn, _wrap(fn, _span_name(fn, pkg), prof))
        return w[1]

    classes = {}
    for mod in modules:
        for attr, obj in vars(mod).items():
            if isinstance(obj, type) and _is_public(attr) and ours(obj):
                classes[id(obj)] = obj
    for cls in classes.values():
        for attr, obj in list(vars(cls).items()):
            if not (_is_public(attr) or attr == "__init__"):
                continue
            if isinstance(obj, types.FunctionType):
                setattr(cls, attr, wrapper_for(obj))
            elif isinstance(obj, (classmethod, staticmethod)) and isinstance(obj.__func__, types.FunctionType):
                setattr(cls, attr, type(obj)(wrapper_for(obj.__func__)))

    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and _is_public(attr) and ours(obj):
                setattr(mod, attr, wrapper_for(obj))
    # dispatch tables such as verify._SUITE_FUNCS hold bindings too
    for mod in modules:
        for obj in vars(mod).values():
            if isinstance(obj, dict):
                for key, val in list(obj.items()):
                    if isinstance(val, types.FunctionType) and id(val) in wrappers and wrappers[id(val)][0] is val:
                        obj[key] = wrappers[id(val)][1]
    return sorted(_span_name(fn, pkg) for fn, _ in wrappers.values())


# ---------------------------------------------------------------------------
# per-layer metrics


def _calls(*names):
    return lambda t: sum(t["calls"].get(n, 0) for n in names), names


def _self_time(module):
    return lambda t: sum(v for n, v in t["self_s"].items() if n.startswith(module + ".")), ()


def _total(name):
    return lambda t: t["total_s"].get(name, 0.0), (name,)


def _under(parent, children, key="pairs"):
    return lambda t: sum(t[key].get((parent, c), 0) for c in children)


def _scan_hit_ratio(t):
    evals = _under(ENUMERATE, RECURSION_EVALS)(t)
    return _under(ENUMERATE, RECURSION_EVALS, "zero_results")(t) / evals if evals else 0.0


def _from_run(key):
    return lambda t: t[key], ()


# name, unit, better, (value of merged totals, span names it needs), should move, on
METRICS = [
    ("field.mul.calls", "count", "lower", _calls("field.FieldCtx.mul"), "wall_s, items_per_s", "mostly verify-f4; little on e=1 workloads"),
    ("field.inv.calls", "count", "lower", _calls("field.FieldCtx.inv"), "wall_s, items_per_s", "mostly verify-f4; little on e=1 workloads"),
    ("field.pow.calls", "count", "lower", _calls("field.FieldCtx.pow"), "wall_s, items_per_s", "mostly verify-f4; little on e=1 workloads"),
    ("field.frobenius.calls", "count", "lower", _calls("field.FieldCtx.frobenius"), "wall_s, items_per_s", "mostly verify-f4; little on e=1 workloads"),
    ("field.self_s", "s", "lower", _self_time("field"), "wall_s, items_per_s", "mostly verify-f4; little on e=1 workloads"),
    ("field.build.calls", "count", "lower", _calls("field.FieldCtx.__init__"), "setup_s", "all workloads; most on verify-prime (m, 2m and splitting ambients)"),
    ("field.build_s", "s", "lower", _total("field.FieldCtx.__init__"), "setup_s", "all workloads; most on verify-prime (m, 2m and splitting ambients)"),
    ("linalg.rref.calls", "count", "lower", _calls(RREF), "wall_s", "verify-prime, verify-f4; rises on points-F if enumeration moves to fiber solves"),
    ("linalg.rref.cells", "count", "lower", (lambda t: t["rref_cells"], (RREF,)), "wall_s", "verify-prime, verify-f4; rises on points-F if enumeration moves to fiber solves"),
    ("linalg.self_s", "s", "lower", _self_time("linalg"), "wall_s", "verify-prime, verify-f4; rises on points-F if enumeration moves to fiber solves"),
    ("ore.ore_mul.calls", "count", "lower", _calls("ore.ore_mul"), "wall_s", "verify-prime"),
    ("ore.evaluate.calls", "count", "lower", _calls("ore.evaluate"), "wall_s", "verify-prime"),
    ("ore.kernel.calls", "count", "lower", _calls("ore.kernel"), "wall_s", "verify-prime"),
    ("ore.solve_affine.calls", "count", "lower", _calls("ore.solve_affine"), "wall_s", "verify-prime"),
    ("ore.self_s", "s", "lower", _self_time("ore"), "wall_s", "verify-prime"),
    ("ore.splitting_degree.calls", "count", "lower", _calls(SPLITTING), "wall_s, setup_s", "theta part of verify-f4 and verify-prime; no points workload"),
    ("ore.splitting_degree.ambients", "count", "lower", (_under(SPLITTING, ("ore.kernel",)), (SPLITTING, "ore.kernel")), "wall_s, setup_s", "theta part of verify-f4 and verify-prime; no points workload"),
    ("drinfeld.phi_a.calls", "count", "lower", _calls("drinfeld.phi_a"), "wall_s", "verify-prime"),
    ("drinfeld.module_from_point.calls", "count", "lower", _calls("drinfeld.module_from_point"), "wall_s", "verify-prime"),
    ("drinfeld.self_s", "s", "lower", _self_time("drinfeld"), "wall_s", "verify-prime"),
    ("isogeny.aux.calls", "count", "lower", _calls("isogeny.eta", "isogeny.lambda_poly", "isogeny.q_poly"), "wall_s", "verify-prime"),
    ("isogeny.check_intertwine.calls", "count", "lower", _calls("isogeny.check_intertwine"), "wall_s", "verify-prime"),
    ("isogeny.self_s", "s", "lower", _self_time("isogeny"), "wall_s", "verify-prime"),
    ("towers.scan_evals", "count", "lower", (_under(ENUMERATE, RECURSION_EVALS), (ENUMERATE,) + RECURSION_EVALS), "wall_s, items_per_s", "points-F (wide part), points-GH, verify-f4"),
    ("towers.scan_hit_ratio", "ratio", "higher", (_scan_hit_ratio, (ENUMERATE,) + RECURSION_EVALS), "wall_s, items_per_s", "points-F (wide part), points-GH, verify-f4"),
    ("towers.validate_evals", "count", "lower", (_under(CONSTRUCT_POINT, RECURSION_EVALS), (CONSTRUCT_POINT,) + RECURSION_EVALS), "wall_s", "points-F (deep part), verify-prime"),
    ("towers.validate_s", "s", "lower", _total(CONSTRUCT_POINT), "wall_s", "points-F (deep part), verify-prime"),
    ("towers.points", "count", "higher", _calls(CONSTRUCT_POINT), "wall_s", "points-F (deep part), verify-prime"),
    ("towers.fiber_solutions.calls", "count", "lower", _calls("towers.fiber_solutions"), "wall_s", "points-F (deep part), verify-prime"),
    ("towers.self_s", "s", "lower", _self_time("towers"), "wall_s", "points-F (deep part), verify-prime"),
    ("verify.cases", "count", "higher", _from_run("verify_cases"), "items_per_s", "verify-prime, verify-f4"),
    ("verify.self_s", "s", "lower", _self_time("verify"), "items_per_s", "verify-prime, verify-f4"),
    ("cli.serialize_s", "s", "lower", _total("towers.TowerPoint.to_json_dict"), "wall_s, items_per_s", "points-F (deep part), points-GH"),
    ("cli.out_bytes", "bytes", "lower", _from_run("out_bytes"), "wall_s, items_per_s", "points-F (deep part), points-GH"),
    ("cli.self_s", "s", "lower", _self_time("cli"), "wall_s, items_per_s", "points-F (deep part), points-GH"),
    ("trace.overhead_ratio", "ratio", "lower", _from_run("overhead_ratio"), "none", "all workloads"),
]

COUNTS = [m[0] for m in METRICS if m[1] in ("count", "bytes")]


def layer_metrics(totals: dict, traced: set, run: dict) -> tuple:
    """(metrics, absent): per-layer values from merged totals.

    `traced` holds the span names `install` wrapped; a metric that needs a
    name the library no longer defines is listed in `absent` instead.
    `run` supplies the values the harness measures itself (`verify_cases`,
    `out_bytes`, `overhead_ratio`).
    """
    values = dict(totals, **run)
    metrics, absent = {}, []
    for name, unit, _better, (value, needs), _moves, _on in METRICS:
        if all(n in traced for n in needs):
            metrics[name] = {"value": value(values), "unit": unit}
        else:
            absent.append(name)
    return metrics, absent
