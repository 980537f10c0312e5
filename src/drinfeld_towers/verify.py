"""Property-verification suites and their JSON-ready reports.

Each suite returns a list of report entries
{check, params, ambient_degree, cases_run, failures}; an entry may carry a
"skipped" reason when its hypothesis (p not dividing k) fails.  Entry order is
fixed by the grid and by canonical element order, so reports are byte-identical
across runs.
"""

from __future__ import annotations

import itertools
import random

from .drinfeld import DrinfeldModule, cyclic_module
from .isogeny import (
    TowerParams,
    XChain,
    check_intertwine,
    check_roundtrip,
    check_theta_marked_point,
    lambda_poly,
    verify_lemma_1_6,
)
from .ore import kernel, splitting_degree
from .towers import enumerate_rational, fiber_solutions, iter_rational, rsu

# (p, e, m, j) for q in {2, 3, 4, 5}; every tuple here has k = m - j = 1
DEFAULT_GRID = (
    (2, 1, 2, 1),
    (2, 1, 3, 2),
    (3, 1, 2, 1),
    (3, 1, 3, 2),
    (2, 2, 3, 2),
    (5, 1, 2, 1),
)

SUITES = ("lemma1_6", "thm1_7", "theta", "roundtrip", "rsu")


def _entry(check: str, params: TowerParams, ambient_degree, cases: int, failures: list, skipped=None) -> dict:
    out = {
        "check": check,
        "params": {"p": params.p, "e": params.e, "m": params.m, "j": params.j},
        "ambient_degree": ambient_degree,
        "cases_run": cases,
        "failures": failures,
    }
    if skipped is not None:
        out["skipped"] = skipped
    return out


def suite_lemma1_6(grid=DEFAULT_GRID, seed: int = 0) -> list:
    """eta_x phi^x_T = Q_x lambda_x for every nonzero x, in F_{q^m} and F_{q^{2m}}."""
    entries = []
    for tup in grid:
        params = TowerParams(*tup)
        for deg in (params.m, 2 * params.m):
            ctx = params.field(deg)
            failures = []
            cases = 0
            for x in ctx.all_elements():
                if x == ctx.zero:
                    continue
                cases += 1
                if not verify_lemma_1_6(params, ctx, x):
                    failures.append(f"x = {ctx.format_elem(x)}")
            entries.append(_entry("lemma1_6", params, deg, cases, failures))
    return entries


def suite_thm1_7(grid=DEFAULT_GRID, seed: int = 0) -> list:
    """lambda_x intertwines phi^x and phi^y on every fiber pair; composites too."""
    entries = []
    for tup in grid:
        params = TowerParams(*tup)
        ctx = params.field(params.m)
        failures = []
        cases = 0
        for x in ctx.all_elements():
            if x == ctx.zero:
                continue
            lam = lambda_poly(params, ctx, x)
            phi_x = params.module_at(ctx, x)
            for y in fiber_solutions(params, ctx, x):
                cases += 1
                if not check_intertwine(lam, phi_x, params.module_at(ctx, y)):
                    failures.append(f"x = {ctx.format_elem(x)}, y = {ctx.format_elem(y)}")
        # composites over length-3 chains (capped; order is canonical)
        for pt in itertools.islice(iter_rational(params, 3, "F"), 20):
            chain = XChain(params, ctx, pt.coords)
            cases += 1
            ok = check_intertwine(
                chain.composite(),
                params.module_at(ctx, pt.coords[0]),
                params.module_at(ctx, pt.coords[-1]),
            )
            if not ok:
                failures.append(f"chain {[ctx.format_elem(c) for c in pt.coords]}")
        entries.append(_entry("thm1_7", params, params.m, cases, failures))
    return entries


def suite_theta(grid=DEFAULT_GRID, seed: int = 0) -> list:
    """Marked-point consistency on length-2 chains in a splitting ambient."""
    entries = []
    for tup in grid:
        params = TowerParams(*tup)
        if not params.k_coprime_to_p:
            entries.append(_entry("theta", params, None, 0, [], skipped="p divides k"))
            continue
        ctx = params.field(params.m)
        failures = []
        cases = 0
        ambient = None
        for pt in itertools.islice(iter_rational(params, 2, "F"), 3):
            chain = XChain(params, ctx, pt.coords)
            deg = splitting_degree(chain.composite(), 2 * params.k)
            ambient = max(ambient or 0, deg)
            big = chain.map_to(params.field(deg))
            cases += 1
            try:
                ok = check_theta_marked_point(big)
            except Exception as exc:
                ok = False
                failures.append(f"chain {[ctx.format_elem(c) for c in pt.coords]}: {exc}")
                continue
            if not ok:
                failures.append(f"chain {[ctx.format_elem(c) for c in pt.coords]}")
        entries.append(_entry("theta", params, ambient, cases, failures))
    return entries


def suite_roundtrip(grid=DEFAULT_GRID, seed: int = 0) -> list:
    """Both composite identities of the level-structure equivalence at n = 1.

    Runs a nontrivial k = 2 case, a k = 1 collapse case, and flags the
    characteristic-divides-k configuration as skipped.
    """
    entries = []

    # k = 2 at q = 3: g_j = 2 makes phi_T split already in degree 8
    params = TowerParams(3, 1, 3, 1)
    amb = params.field(8)
    phi = DrinfeldModule(amb, 3, 1, amb.scalar(2))
    failures = []
    cases = 0
    ker = kernel(phi.phi_T())
    for mu in ker.elements()[1:6]:
        g1 = cyclic_module(phi, mu)
        cases += 1
        if not check_roundtrip(params, phi, g1, 1):
            failures.append(f"mu = {amb.format_elem(mu)}")
    entries.append(_entry("roundtrip", params, 8, cases, failures))

    # k = 1 collapse: f = 1 and the span is trivial
    params = TowerParams(2, 1, 3, 2)
    ctx = params.field(params.m)
    phi = params.module_at(ctx, ctx.one)
    deg = splitting_degree(phi.phi_T(), params.m)
    amb = params.field(deg)
    phi = phi.map_to(amb)
    failures = []
    cases = 0
    for mu in kernel(phi.phi_T()).elements()[1:4]:
        g1 = cyclic_module(phi, mu)
        cases += 1
        if not check_roundtrip(params, phi, g1, 1):
            failures.append(f"mu = {amb.format_elem(mu)}")
    entries.append(_entry("roundtrip", params, deg, cases, failures))

    # p | k: the F(T)/f(T) machinery is undefined, record as skipped
    params = TowerParams(2, 1, 3, 1)
    entries.append(_entry("roundtrip", params, None, 0, [], skipped="p divides k"))
    return entries


def suite_rsu(grid=DEFAULT_GRID, seed: int = 0) -> list:
    """Trace relations R = tr_k(u) - b, S = -tr_j(u) + a on rational and random pairs."""
    entries = []
    for tup in grid:
        params = TowerParams(*tup)
        ctx = params.field(params.m)
        failures = []
        cases = 0
        for pt in enumerate_rational(params, 2, "F"):
            cases += 1
            try:
                rsu(params, ctx, pt.coords[0], pt.coords[1])
            except Exception as exc:
                failures.append(f"{[ctx.format_elem(c) for c in pt.coords]}: {exc}")
        entries.append(_entry("rsu", params, params.m, cases, failures))

        # random geometric solutions in the degree-2m ambient, seeded for determinism
        amb = params.field(2 * params.m)
        failures = []
        cases = 0
        pairs = _random_fiber_pairs(params, amb, random.Random(f"{seed}-{tup}"))
        for x, y in itertools.islice(pairs, 20):
            cases += 1
            try:
                rsu(params, amb, x, y)
            except Exception as exc:
                failures.append(f"x = {amb.format_elem(x)}, y = {amb.format_elem(y)}: {exc}")
        entries.append(_entry("rsu_random", params, 2 * params.m, cases, failures))
    return entries


def _random_fiber_pairs(params: TowerParams, amb, rng: random.Random):
    """Endless pairs (x, y): x uniform on amb's nonzero elements, redrawn while
    its fiber is empty, and y uniform on the fiber.

    `rng.choice(seq)` is `seq[rng.randrange(len(seq))]`, and the nonzero
    elements listed in canonical order are from_int(1), from_int(2), ...; so
    x draws what `choice` over that listing would, without listing the field.
    """
    while True:
        x = amb.from_int(1 + rng.randrange(amb.q**amb.d - 1))
        ys = fiber_solutions(params, amb, x)
        if ys:
            yield x, rng.choice(ys)


_SUITE_FUNCS = {
    "lemma1_6": suite_lemma1_6,
    "thm1_7": suite_thm1_7,
    "theta": suite_theta,
    "roundtrip": suite_roundtrip,
    "rsu": suite_rsu,
}


def run_suite(name: str, grid=DEFAULT_GRID, seed: int = 0) -> list:
    if name == "all":
        out = []
        for s in SUITES:
            out.extend(_SUITE_FUNCS[s](grid, seed))
        return out
    if name not in _SUITE_FUNCS:
        raise KeyError(f"unknown suite {name!r}")
    return _SUITE_FUNCS[name](grid, seed)


def total_failures(report: list) -> int:
    return sum(len(e["failures"]) for e in report)
