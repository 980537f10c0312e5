"""Property-verification suites and their JSON-ready reports.

Each suite returns a list of report entries
{check, params, ambient_degree, cases_run, failures}; an entry may carry a
"skipped" reason when its hypothesis (p not dividing k) fails.  Entry order is
fixed by the grid and by canonical element order, so reports are byte-identical
across runs.

A case fails when its check returns false or raises one of PROPERTY_ERRORS
(`NotOnCurve`, `NoMarkedPreimage`, `NotCyclic`); the failure is recorded in
the report, and the CLI exits 1.  Every other error propagates, so a resource
limit hit inside a suite (a size cap, or memory) makes the CLI exit 3 with
nothing on stdout.

lemma1_6, thm1_7 and rsu's rational pairs sweep every nonzero x of a field,
and listing a field tables it (see `field`).  lemma1_6 and thm1_7 compute
each case on discrete logs: the exponent forms of `isogeny`
(`lemma_1_6_logs`, `intertwine_logs`), whose products go through
`ore.ore_mul_logs`; the object checks `verify_lemma_1_6` and
`check_intertwine` are their test oracle, and `check_intertwine` still
checks thm1_7's chain composites.  thm1_7, theta and rsu take their chains
from the one walk of the successor relation (`towers.rational_chains`):
rsu and thm1_7 every fiber pair, thm1_7 the first 20 length-3 chains and
theta the first 3 length-2 ones.  The walk checks no cap; `towers.POINTS_CAP`
bounds only what a suite sweeps, so rsu checks it on level 2 first.  Both
rsu entries call `towers.rsu`, whose field operations are table lookups on
the swept F_{q^m}; rsu_random lists nothing of its F_{q^{2m}}, so it runs on
lookups only where another suite (lemma1_6) has listed that field.  Each
case computes its own R and S, but the checks read (R, S) alone, which takes
only q^{m-1} values on the rational pairs (see `towers.rsu`); so that entry
memoises them, `towers.rsu_relations`, for its own length and no longer.
theta and roundtrip sweep nothing: their checks solve over subspace bases in
splitting ambients, whose degrees are closed-form (`ore.splitting_degree`).
`run_suite("all")` takes theta's degrees before any suite computes, so an
ambient past the size cap ends the run first.
"""

from __future__ import annotations

import functools
import itertools
import random

from .drinfeld import DrinfeldModule, cyclic_module
from .errors import NoMarkedPreimage, NotCyclic, NotOnCurve
from .isogeny import (
    TowerParams,
    XChain,
    check_intertwine,
    check_roundtrip,
    check_theta_marked_point,
    intertwine_logs,
    lambda_logs,
    lemma_1_6_logs,
    phi_logs,
)
from .ore import kernel, splitting_degree
from .towers import _check_points_cap, fiber_solutions, rational_chains, rsu, rsu_relations

# (p, e, m, j) for q in {2, 3, 4, 5}; every tuple here has k = m - j = 1
DEFAULT_GRID = (
    (2, 1, 2, 1),
    (2, 1, 3, 2),
    (3, 1, 2, 1),
    (3, 1, 3, 2),
    (2, 2, 3, 2),
    (5, 1, 2, 1),
)

# the errors by which a check says that its property fails
PROPERTY_ERRORS = (NotOnCurve, NoMarkedPreimage, NotCyclic)


def _entry(check: str, params: TowerParams, ambient_degree, cases, skipped=None) -> dict:
    """Run `cases`, (test, label) pairs of zero-argument callables, into a report entry.

    A case fails when test() is false, recorded as label(), or raises one of
    PROPERTY_ERRORS, recorded as "label(): message".  Each pair is called before
    the next is drawn, so both may close over loop variables.
    """
    failures = []
    run = 0
    for test, label in cases:
        run += 1
        try:
            ok = test()
        except PROPERTY_ERRORS as exc:
            failures.append(f"{label()}: {exc}")
            continue
        if not ok:
            failures.append(label())
    out = {
        "check": check,
        "params": {"p": params.p, "e": params.e, "m": params.m, "j": params.j},
        "ambient_degree": ambient_degree,
        "cases_run": run,
        "failures": failures,
    }
    if skipped is not None:
        out["skipped"] = skipped
    return out


def _named(ctx, **elems) -> str:
    return ", ".join(f"{name} = {ctx.format_elem(v)}" for name, v in elems.items())


def _listed(ctx, coords) -> str:
    return str([ctx.format_elem(c) for c in coords])


def suite_lemma1_6(grid=DEFAULT_GRID, seed: int = 0) -> list:
    """eta_x phi^x_T = Q_x lambda_x for every nonzero x, in F_{q^m} and
    F_{q^{2m}}, on discrete logs (`lemma_1_6_logs`)."""
    entries = []
    for tup in grid:
        params = TowerParams(*tup)
        for deg in (params.m, 2 * params.m):
            ctx = params.field(deg)
            nonzero, log = ctx.all_elements()[1:], ctx._log  # zero is listed first
            cases = ((lambda: lemma_1_6_logs(params, ctx, log[x]), lambda: _named(ctx, x=x)) for x in nonzero)
            entries.append(_entry("lemma1_6", params, deg, cases))
    return entries


def _thm1_7_cases(params: TowerParams, ctx):
    pairs = rational_chains(params, "F", 2)
    log = ctx._log  # read after the walk is called: listing F_{q^m} tables it
    for x, fiber in itertools.groupby(pairs, key=lambda pair: pair[0]):  # lambda_x and phi^x once per x
        lam, phi_x = lambda_logs(params, ctx, log[x]), phi_logs(params, ctx, log[x])
        for _, y in fiber:
            yield lambda: intertwine_logs(ctx, lam, phi_x, phi_logs(params, ctx, log[y])), lambda: _named(ctx, x=x, y=y)
    # composites over the first 20 length-3 chains of the same walk
    for coords in itertools.islice(rational_chains(params, "F", 3), 20):
        chain = XChain(params, ctx, coords)
        phi, psi = params.module_at(ctx, coords[0]), params.module_at(ctx, coords[-1])
        yield lambda: check_intertwine(chain.composite(), phi, psi), lambda: f"chain {_listed(ctx, coords)}"


def suite_thm1_7(grid=DEFAULT_GRID, seed: int = 0) -> list:
    """lambda_x intertwines phi^x and phi^y on every fiber pair, on discrete
    logs (`intertwine_logs`); composites too."""
    entries = []
    for tup in grid:
        params = TowerParams(*tup)
        entries.append(_entry("thm1_7", params, params.m, _thm1_7_cases(params, params.field(params.m))))
    return entries


def _theta_plan(tup: tuple) -> tuple:
    """(params, chains, degrees) for theta at one grid tuple: the first three
    length-2 rational chains, in canonical order (`rational_chains`), and
    the closed-form splitting degree of each
    composite (`splitting_degree`), so no ambient is built but the one that
    confirms each degree; (params, None, None) when p divides k."""
    params = TowerParams(*tup)
    if not params.k_coprime_to_p:
        return params, None, None
    ctx = params.field(params.m)
    chains = [XChain(params, ctx, coords) for coords in itertools.islice(rational_chains(params, "F", 2), 3)]
    return params, chains, [splitting_degree(chain.composite()) for chain in chains]


def suite_theta(grid=DEFAULT_GRID, seed: int = 0, plans=None) -> list:
    """Marked-point consistency on length-2 chains in a splitting ambient;
    `plans` are the `_theta_plan`s of the grid's tuples, if already taken."""
    entries = []
    for params, chains, degs in map(_theta_plan, grid) if plans is None else plans:
        if chains is None:
            entries.append(_entry("theta", params, None, (), skipped="p divides k"))
            continue
        ctx = params.field(params.m)
        cases = (
            (lambda: check_theta_marked_point(chain.map_to(params.field(deg))),
             lambda: f"chain {_listed(ctx, chain.coords)}")
            for chain, deg in zip(chains, degs)
        )
        entries.append(_entry("theta", params, max(degs, default=None), cases))
    return entries


def suite_roundtrip(grid=DEFAULT_GRID, seed: int = 0) -> list:
    """Both composite identities of the level-structure equivalence at n = 1.

    Runs a nontrivial k = 2 case, a k = 1 collapse case, and flags the
    characteristic-divides-k configuration as skipped.
    """
    # k = 2 at q = 3: g_j = 2 makes phi_T split already in degree 8
    params = TowerParams(3, 1, 3, 1)
    amb = params.field(8)
    split = (params, DrinfeldModule(amb, 3, 1, amb.scalar(2)), 8, slice(1, 6))

    # k = 1 collapse: f = 1 and the span is trivial
    params = TowerParams(2, 1, 3, 2)
    ctx = params.field(params.m)
    phi = params.module_at(ctx, ctx.one)
    deg = splitting_degree(phi.phi_T())
    collapse = (params, phi.map_to(params.field(deg)), deg, slice(1, 4))

    entries = []
    for params, phi, deg, picked in (split, collapse):
        cases = (
            (lambda: check_roundtrip(params, phi, cyclic_module(phi, mu), 1), lambda: _named(phi.ctx, mu=mu))
            for mu in kernel(phi.phi_T()).elements()[picked]
        )
        entries.append(_entry("roundtrip", params, deg, cases))

    # p | k: the F(T)/f(T) machinery is undefined, record as skipped
    entries.append(_entry("roundtrip", TowerParams(2, 1, 3, 1), None, (), skipped="p divides k"))
    return entries


def suite_rsu(grid=DEFAULT_GRID, seed: int = 0) -> list:
    """Trace relations R = tr_k(u) - b, S = -tr_j(u) + a on rational and random pairs.

    rsu raises NotOnCurve when a relation fails, so a case passes when it
    returns.  The rational pairs are each x of the swept, tabled F_{q^m}
    with each of its cached successors, after the level-2 points cap; the
    random pairs in F_{q^{2m}} are not swept.
    """
    entries = []
    for tup in grid:
        params = TowerParams(*tup)
        ctx = params.field(params.m)
        _check_points_cap(params, "F", 2)
        pairs = rational_chains(params, "F", 2)
        relations = functools.cache(rsu_relations)  # this entry's memo, dropped with it
        cases = ((lambda: rsu(params, ctx, x, y, relations), lambda: _listed(ctx, (x, y))) for x, y in pairs)
        entries.append(_entry("rsu", params, params.m, cases))

        # random geometric solutions in the degree-2m ambient, seeded for determinism
        amb = params.field(2 * params.m)
        pairs = itertools.islice(_random_fiber_pairs(params, amb, random.Random(f"{seed}-{tup}")), 20)
        cases = ((lambda: rsu(params, amb, x, y), lambda: _named(amb, x=x, y=y)) for x, y in pairs)
        entries.append(_entry("rsu_random", params, 2 * params.m, cases))
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

SUITES = tuple(_SUITE_FUNCS)


def run_suite(name: str, grid=DEFAULT_GRID, seed: int = 0) -> list:
    if name == "all":
        # theta's plans first: an ambient past the size cap ends the run before any suite computes
        plans = [_theta_plan(tup) for tup in grid]
        run = dict(_SUITE_FUNCS, theta=lambda grid, seed: suite_theta(grid, seed, plans))
        return [entry for s in SUITES for entry in run[s](grid, seed)]
    if name not in _SUITE_FUNCS:
        raise KeyError(f"unknown suite {name!r}")
    return _SUITE_FUNCS[name](grid, seed)


def total_failures(report: list) -> int:
    return sum(len(e["failures"]) for e in report)
