"""The seeded draws of the rsu_random check, the reports they give at nonzero
seeds, and how an error raised inside a suite reaches the report or the CLI."""

import functools
import hashlib
import itertools
import json
import random
import time

import pytest

from drinfeld_towers import field, isogeny, verify
from drinfeld_towers.cli import main
from drinfeld_towers.drinfeld import DrinfeldModule
from drinfeld_towers.errors import NoMarkedPreimage, NotCyclic, NotOnCurve, SizeCapExceeded
from drinfeld_towers.field import FieldCtx, make_field
from drinfeld_towers.isogeny import TowerParams, check_intertwine, verify_lemma_1_6
from drinfeld_towers.ore import TwistedPoly, ore_mul, ore_mul_logs
from drinfeld_towers.towers import RSU, fiber_solutions, iter_rational, rsu
from drinfeld_towers.verify import DEFAULT_GRID, _random_fiber_pairs

# stdout sha256 at nonzero seeds, as printed when rsu_random drew x by
# `rng.choice` over a listing of the ambient's nonzero elements
SEEDED_SHA256 = {
    "verify --suite rsu --p 2 --e 1 --m 2 --j 1 --seed 3": "8b1a334a9f96c8c44733bdf64cdbf22c1fa2ffaad6797ee5b572a93e52cbe655",
    "verify --suite rsu --p 2 --e 1 --m 3 --j 2 --seed 3": "ea73c9355052f3a2978154821dd8be08f2033ee6d3a8b757d6311e01ce60c62c",
    "verify --suite rsu --p 3 --e 1 --m 2 --j 1 --seed 3": "99a2f60fa644e8db6ccd538509850bd2c8e17dd7c1d3d433da803eac563b1ae2",
    "verify --suite rsu --p 3 --e 1 --m 3 --j 2 --seed 3": "8e0e64c5cfb8de86fbd654381ba54587bd51d6a6a9e086b1fd6e0a95bbfc71eb",
    "verify --suite rsu --p 2 --e 2 --m 3 --j 2 --seed 3": "2936a5bc1b1c9b7eeae6dd280502becfe3d83fca82833df48044136ff88419f0",
    "verify --suite rsu --p 5 --e 1 --m 2 --j 1 --seed 3": "c3e6872ebc88498be1af1879a3aad985d0a8edc7539dbd12499c29f7525841d1",
    "verify --suite all --seed 1": "c850b6e7126d67cef454142309b7b8a6a7b82f2c2e86d28fcb03c31d51ad174e",
}


def _choice_over_listing(params, amb, rng):
    """The pairs drawn by `rng.choice` over the listed nonzero elements."""
    nonzero = [x for x in amb.all_elements() if x != amb.zero]
    while True:
        x = rng.choice(nonzero)
        ys = fiber_solutions(params, amb, x)
        if ys:
            yield x, rng.choice(ys)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("tup", DEFAULT_GRID, ids=str)
def test_draw_matches_choice_over_listing(tup, seed):
    params = TowerParams(*tup)
    amb = params.field(2 * params.m)
    key = f"{seed}-{tup}"  # the suite's seeding
    drawn = list(itertools.islice(_random_fiber_pairs(params, amb, random.Random(key)), 20))
    listed = list(itertools.islice(_choice_over_listing(params, amb, random.Random(key)), 20))
    assert drawn == listed


@pytest.mark.parametrize("command", sorted(SEEDED_SHA256))
def test_seeded_report_unchanged(command, capsys, monkeypatch):
    monkeypatch.delenv("DRINFELD_SIZE_CAP", raising=False)
    assert main(command.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == SEEDED_SHA256[command]


# the check the cases of some report entries call, patched to raise, as
# (suite, those entries' checks, argv); theta and rsu run on one grid tuple,
# roundtrip on its fixed cases.  The rsu suite checks its rational and its
# random pairs with the one `rsu`.
RAISING_CHECKS = {
    "rsu": ("rsu", ("rsu", "rsu_random"), ["--p", "2", "--m", "2", "--j", "1"]),
    "check_theta_marked_point": ("theta", ("theta",), ["--p", "2", "--m", "2", "--j", "1"]),
    "check_roundtrip": ("roundtrip", ("roundtrip",), []),
}


def _raise(exc):
    def check(*args):
        raise exc

    return check


@pytest.mark.parametrize("exc", [SizeCapExceeded("cap hit"), MemoryError()], ids=type)
@pytest.mark.parametrize("target", sorted(RAISING_CHECKS))
def test_resource_limit_inside_suite_exits_3(target, exc, capsys, monkeypatch):
    monkeypatch.setattr(verify, target, _raise(exc))
    suite, _, params = RAISING_CHECKS[target]
    assert main(["verify", "--suite", suite, *params]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("resource limit: ")


@pytest.mark.parametrize(
    "target, exc",
    [
        ("rsu", NotOnCurve),
        ("check_theta_marked_point", NoMarkedPreimage),
        ("check_roundtrip", NotCyclic),
    ],
)
def test_property_error_inside_suite_is_a_failure(target, exc, capsys, monkeypatch):
    # every case of the patched check's entries fails, and no other entry does
    monkeypatch.setattr(verify, target, _raise(exc("property fails")))
    suite, checks, params = RAISING_CHECKS[target]
    assert main(["verify", "--suite", suite, *params]) == 1
    report = json.loads(capsys.readouterr().out)["report"]
    run = [e for e in report if e["check"] in checks and not e.get("skipped")]
    assert {e["check"] for e in run} == set(checks)
    assert all(len(e["failures"]) == e["cases_run"] > 0 for e in run)
    assert all(f.endswith(": property fails") for e in run for f in e["failures"])
    assert all(e["failures"] == [] for e in report if e["check"] not in checks)


@pytest.mark.parametrize("target", sorted(RAISING_CHECKS))
def test_bug_inside_suite_propagates(target, monkeypatch):
    monkeypatch.setattr(verify, target, _raise(TypeError("a bug")))
    suite, _, _ = RAISING_CHECKS[target]
    with pytest.raises(TypeError, match="a bug"):
        verify.run_suite(suite, ((2, 1, 2, 1),))


# ---------------------------------------------------------------------------
# lemma1_6 and thm1_7 on discrete logs, against the object path on the
# coordinate arithmetic of an untabled field


def _fields(tup):
    """The swept field F_{q^d} of each degree d the two suites sweep at tup,
    tabled by its listing, with its untabled oracle: a fresh build that
    nothing lists."""
    params = TowerParams(*tup)
    for deg in (params.m, 2 * params.m):
        ctx = params.field(deg)
        ctx.all_elements()
        oracle = FieldCtx(ctx.p, ctx.e, deg)
        assert ctx._log is not None and oracle._log is None
        yield params, ctx, oracle


def _unlisted_nonzero(ctx) -> list:
    """The nonzero elements of ctx in canonical order, listing nothing, so an
    untabled ctx stays untabled."""
    return [ctx.from_int(v) for v in range(1, ctx.q**ctx.d)]


def _across(ctx, oracle, x):
    """x of the tabled ctx as an element of its oracle, by to_int."""
    return oracle.from_int(ctx.to_int(x))


def _poly_of_logs(ctx, oracle, logs):
    """The twisted polynomial over the oracle whose coefficient logs are `logs`."""
    return TwistedPoly(oracle, [oracle.zero if k is None else _across(ctx, oracle, ctx._exp[k]) for k in logs])


@functools.cache
def _object_lemma_1_6(tup, deg) -> tuple:
    """verify_lemma_1_6 at every nonzero x of the oracle F_{q^deg}, as
    (to_int(x), holds) in canonical order; F_{4^6} takes ~2 s, so it is
    computed once for the tests below."""
    ((params, ctx, oracle),) = [f for f in _fields(tup) if f[1].d == deg]
    held = tuple((oracle.to_int(x), verify_lemma_1_6(params, oracle, x)) for x in _unlisted_nonzero(oracle))
    assert oracle._log is None
    return held


@pytest.mark.parametrize("tup", DEFAULT_GRID, ids=str)
def test_exponent_forms_are_the_objects(tup):
    # each factor's logs, and both products, equal the coordinate path's
    for params, ctx, oracle in _fields(tup):
        for x in ctx.all_elements()[1:]:
            s, xo = ctx._log[x], _across(ctx, oracle, x)
            eta_x, phi_x = isogeny.eta(params, oracle, xo), params.module_at(oracle, xo).phi_T()
            q_x, lam_x = isogeny.q_poly(params, oracle, xo), isogeny.lambda_poly(params, oracle, xo)
            twists = isogeny._twist_logs(ctx, s, params.m)
            pairs = [
                (twists[: params.k], eta_x),
                (isogeny.phi_logs(params, ctx, s), phi_x),
                (twists[params.k :] + twists[: params.k], q_x),
                (isogeny.lambda_logs(params, ctx, s), lam_x),
            ]
            pairs.append((ore_mul_logs(ctx, pairs[0][0], pairs[1][0]), ore_mul(eta_x, phi_x)))
            pairs.append((ore_mul_logs(ctx, pairs[2][0], pairs[3][0]), ore_mul(q_x, lam_x)))
            for logs, poly in pairs:
                assert _poly_of_logs(ctx, oracle, logs) == poly, (tup, ctx.d, x)


@pytest.mark.parametrize("tup", DEFAULT_GRID, ids=str)
def test_log_cases_agree_with_object_cases(tup):
    for params, ctx, oracle in _fields(tup):
        log_path = tuple(
            (ctx.to_int(x), isogeny.lemma_1_6_logs(params, ctx, ctx._log[x])) for x in ctx.all_elements()[1:]
        )
        assert log_path == _object_lemma_1_6(tup, ctx.d)
        if ctx.d != params.m:
            continue
        for x in ctx.all_elements()[1:]:
            s, xo = ctx._log[x], _across(ctx, oracle, x)
            lam, phi_x = isogeny.lambda_logs(params, ctx, s), isogeny.phi_logs(params, ctx, s)
            lam_o, phi_o = isogeny.lambda_poly(params, oracle, xo), params.module_at(oracle, xo)
            for y in fiber_solutions(params, ctx, x):
                psi = isogeny.phi_logs(params, ctx, ctx._log[y])
                psi_o = params.module_at(oracle, _across(ctx, oracle, y))
                assert isogeny.intertwine_logs(ctx, lam, phi_x, psi) == check_intertwine(lam_o, phi_o, psi_o)


def test_sweep_tables_f_4_6():
    # lemma1_6 lists F_{4^6}, 4,096 elements, and so tables it
    tup = (2, 2, 3, 2)
    report = verify.run_suite("lemma1_6", (tup,))
    assert make_field(2, 2, 6)._log is not None
    params, ctx = TowerParams(*tup), make_field(2, 2, 6)
    holds = dict(_object_lemma_1_6(tup, 6))
    cases = ((lambda x=x: holds[ctx.to_int(x)], lambda x=x: verify._named(ctx, x=x)) for x in ctx.all_elements()[1:])
    assert report[1] == verify._entry("lemma1_6", params, 6, cases)
    assert report[1]["cases_run"] == 4095 and report[1]["failures"] == []


LAMBDA_POLY, LAMBDA_LOGS, PHI_LOGS = isogeny.lambda_poly, isogeny.lambda_logs, isogeny.phi_logs


def _lambda_poly_shifted(params, ctx, x):
    """lambda_x with its constant x^{q^k - 1} replaced by x^{q^k}."""
    lam = LAMBDA_POLY(params, ctx, x)
    return TwistedPoly(ctx, (ctx.pow(x, ctx.q**params.k),) + lam.coeffs[1:])


def _lambda_logs_shifted(params, ctx, s):
    return [s * ctx._qpow[params.k % ctx.d] % ctx._n] + LAMBDA_LOGS(params, ctx, s)[1:]


def _module_without_tail(ctx, m, j, x):
    """phi^x with g(x) = x^{q^m - q^j}: the term -x^{1 - q^j} dropped."""
    return DrinfeldModule(ctx, m, j, ctx.mul(ctx.frobenius(x, m), ctx.frobenius(ctx.inv(x), j)))


def _phi_logs_without_tail(params, ctx, s):
    phi = PHI_LOGS(params, ctx, s)
    phi[params.j] = s * (ctx._qpow[params.m % ctx.d] - ctx._qpow[params.j]) % ctx._n
    return phi


# each mutation as (object-path function, log-path function); over F_{q^m}
# a fiber pair has g(x) = g(y) = 0, where any lambda over F_{q^m} commutes
# with phi_T, so only the second one breaks thm1_7
MUTATIONS = {
    "lambda_x^{q^k}": {"lambda_poly": _lambda_poly_shifted, "lambda_logs": _lambda_logs_shifted},
    "g_without_tail": {"module_from_point": _module_without_tail, "phi_logs": _phi_logs_without_tail},
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("tup", [(2, 1, 3, 2), (3, 1, 2, 1), (2, 2, 3, 2)], ids=str)
def test_mutation_fails_same_cases(tup, mutation, monkeypatch):
    # the suites (log path) and the oracles (object path) fail the same cases
    # under the same labels
    for name, mutated in MUTATIONS[mutation].items():
        for module in (isogeny, verify):  # verify imports the log forms it calls
            if hasattr(module, name):
                monkeypatch.setattr(module, name, mutated)
    params = TowerParams(*tup)
    lemma, thm = verify.run_suite("lemma1_6", (tup,))[0], verify.run_suite("thm1_7", (tup,))[0]
    ctx = params.field(params.m)
    oracle = FieldCtx(ctx.p, ctx.e, ctx.d)
    lemma_want, thm_want = [], []
    for x in ctx.all_elements()[1:]:
        xo = _across(ctx, oracle, x)
        if not verify_lemma_1_6(params, oracle, xo):
            lemma_want.append(verify._named(ctx, x=x))
        lam, phi = isogeny.lambda_poly(params, oracle, xo), params.module_at(oracle, xo)
        for y in fiber_solutions(params, ctx, x):
            if not check_intertwine(lam, phi, params.module_at(oracle, _across(ctx, oracle, y))):
                thm_want.append(verify._named(ctx, x=x, y=y))
    assert lemma["failures"] == lemma_want
    assert [f for f in thm["failures"] if not f.startswith("chain")] == thm_want
    if mutation == "lambda_x^{q^k}":
        # x^{q^k} = x^{q^k - 1} only at x = 1
        assert len(lemma_want) == ctx.q**ctx.d - 2
    else:
        assert lemma_want and thm_want


@pytest.mark.parametrize(
    "tup,failed,pairs", [((2, 1, 3, 2), 42, 63), ((3, 1, 3, 2), 544, 624), ((2, 1, 2, 1), 0, 6)], ids=str
)
def test_fiber_pairs_off_rational_catch_wrong_lambda(tup, failed, pairs):
    # over F_{q^{2m}} g(x) != 0 on a fiber pair, so a wrong lambda_x can fail
    # there, on both paths; at m = 2 these pairs still catch nothing.  The
    # first three fiber solutions of each x are checked.
    params = TowerParams(*tup)
    amb = params.field(2 * params.m)
    nonzero, log = amb.all_elements()[1:], amb._log
    oracle = FieldCtx(amb.p, amb.e, amb.d)
    held = {"object": [], "logs": []}
    for x in nonzero:
        xo = _across(amb, oracle, x)
        phi, phi_x = params.module_at(oracle, xo), isogeny.phi_logs(params, amb, log[x])
        lams = (isogeny.lambda_poly(params, oracle, xo), _lambda_poly_shifted(params, oracle, xo))
        lam_logs = (isogeny.lambda_logs(params, amb, log[x]), _lambda_logs_shifted(params, amb, log[x]))
        for y in fiber_solutions(params, amb, x)[:3]:
            psi, phi_y = params.module_at(oracle, _across(amb, oracle, y)), isogeny.phi_logs(params, amb, log[y])
            held["object"].append(tuple(check_intertwine(lam, phi, psi) for lam in lams))
            held["logs"].append(tuple(isogeny.intertwine_logs(amb, lam, phi_x, phi_y) for lam in lam_logs))
    assert held["object"] == held["logs"]
    true, shifted = zip(*held["logs"])
    assert all(true) and len(shifted) == pairs and shifted.count(False) == failed


# ---------------------------------------------------------------------------
# rsu on a swept, tabled field, against rsu on the coordinate arithmetic of
# an untabled one


def _rsu_outcome(check, *args):
    """check(*args), or the message of the NotOnCurve it raises."""
    try:
        return check(*args)
    except NotOnCurve as exc:
        return str(exc)


def _with_b(params, b):
    """params with its Bezout b replaced, so that R = tr_k(u) - b fails on the curve."""
    out = object.__new__(TowerParams)
    out._assign(params.p, params.e, params.m, params.j, params.k, params.a, b, hash(params))
    return out


def _rsu_both_fields(params, ctx, oracle):
    """(rsu on ctx, rsu on the oracle mapped back to ctx) at every x != 0 and y of F_{q^m}."""
    for x in ctx.all_elements()[1:]:
        for y in ctx.all_elements():
            want = _rsu_outcome(rsu, params, oracle, _across(ctx, oracle, x), _across(ctx, oracle, y))
            if isinstance(want, RSU):
                want = RSU(*(_across(oracle, ctx, v) for v in (want.R, want.S, want.u)))
            yield _rsu_outcome(rsu, params, ctx, x, y), want


# the default grid has b = 0; (3, 1, 3, 1) has b = 1 and (2, 1, 4, 1) b = 2
@pytest.mark.parametrize("tup", DEFAULT_GRID + ((3, 1, 3, 1), (2, 1, 4, 1)), ids=str)
def test_rsu_on_tabled_field_is_rsu(tup, monkeypatch):
    # the same R, S and u, or the same message, on every pair: the
    # q^{m-1} successors of each x hold and every other y fails the
    # recursion; under a wrong b the R relation fails on the curve, and with
    # the constant a moved to a + 1 in both fields the S relation
    params = TowerParams(*tup)
    ((_, ctx, oracle),) = [f for f in _fields(tup) if f[1].d == params.m]
    size = ctx.q**ctx.d
    rational = (size - 1) * ctx.q ** (params.m - 1)

    def outcomes(p):
        seen = []
        for got, want in _rsu_both_fields(p, ctx, oracle):
            assert got == want
            seen.append(got if isinstance(got, str) else "holds")
        return {msg: seen.count(msg) for msg in set(seen)}

    off_curve = {"(x, y) does not satisfy the F-recursion": (size - 1) * size - rational}
    assert outcomes(params) == {"holds": rational, **off_curve}
    assert outcomes(_with_b(params, params.b + 1))["R = tr_k(u) - b violated"] > 0
    if params.a in (params.b, -params.b):  # moving a would move the R relation's b too
        return
    held = verify.suite_rsu((tup,))[0]
    for f in (ctx, oracle):
        monkeypatch.setattr(f, "scalar", functools.partial(lambda scalar, n: scalar(n + (n == params.a)), f.scalar))
    assert outcomes(params) == {"S = -tr_j(u) + a violated": rational, **off_curve}
    # the suite's (R, S) memo lives for one entry, so the rerun checks anew
    moved = verify.suite_rsu((tup,))[0]
    assert held["failures"] == [] and held["cases_run"] == moved["cases_run"] == len(moved["failures"]) == rational


# ---------------------------------------------------------------------------
# theta's plan: its splitting degrees come before any suite computes


def test_theta_ambient_past_cap_ends_run_first(capsys, monkeypatch):
    # theta's ambient at (5, 1, 3, 1) is F_{5^12}, past the size cap; the run
    # stops there, before lemma1_6 builds and tables F_{5^6}
    built, cached = [], field._make_field_cached
    monkeypatch.setattr(field, "_make_field_cached", lambda p, e, d, cap: built.append(d) or cached(p, e, d, cap))
    monkeypatch.delenv("DRINFELD_SIZE_CAP", raising=False)
    start = time.perf_counter()
    assert main(["verify", "--suite", "all", "--p", "5", "--m", "3", "--j", "1"]) == 3
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "resource limit: p^(e*d) = 5^12 exceeds cap 67108864\n"
    assert built and max(built) == 3


def test_all_takes_each_theta_degree_once(monkeypatch):
    calls, splitting = [], verify.splitting_degree
    monkeypatch.setattr(verify, "splitting_degree", lambda f: calls.append(f.tau_degree) or splitting(f))
    grid = ((2, 1, 2, 1), (2, 1, 3, 1), (3, 1, 3, 2))  # p divides k at (2, 1, 3, 1)
    report = verify.run_suite("all", grid)
    # three chains per tuple with p not dividing k, and roundtrip's k = 1 case
    assert len(calls) == 3 * 2 + 1
    assert report == [e for s in verify.SUITES for e in verify.run_suite(s, grid)]


# ---------------------------------------------------------------------------
# the chains thm1_7 and theta take: the first of a walk along the successor
# relation, with no whole-level count against POINTS_CAP


@pytest.mark.parametrize("tup", DEFAULT_GRID, ids=str)
def test_chains_are_the_first_rational_points(tup, monkeypatch):
    # the walk yields what the points pipeline yields, coordinates and order,
    # so the labels and the order of any failures stay as they were
    params = TowerParams(*tup)
    ctx = params.field(params.m)
    taken, chain = [], verify.XChain
    monkeypatch.setattr(verify, "XChain", lambda params, ctx, coords: taken.append(coords) or chain(params, ctx, coords))
    labels = [label() for _, label in verify._thm1_7_cases(params, ctx)]
    level3 = [pt.coords for pt in itertools.islice(iter_rational(params, 3, "F"), 20)]
    assert taken == level3
    assert labels[len(labels) - len(level3) :] == [f"chain {verify._listed(ctx, c)}" for c in level3]
    _, chains, _ = verify._theta_plan(tup)
    assert [c.coords for c in chains] == [pt.coords for pt in itertools.islice(iter_rational(params, 2, "F"), 3)]


def test_thm1_7_past_points_cap_runs(capsys, monkeypatch):
    # level 3 of (2, 1, 7, 1) holds 520,192 chains, past POINTS_CAP = 2^18;
    # thm1_7 takes 20 of them and rsu sweeps level 2, so the run completes.
    # Measured at 0.40-0.43 s in-process on 2 cores; the bound leaves room for load.
    monkeypatch.delenv("DRINFELD_SIZE_CAP", raising=False)
    start = time.perf_counter()
    assert main(["verify", "--suite", "all", "--p", "2", "--m", "7", "--j", "1"]) == 0
    assert time.perf_counter() - start < 2
    report = json.loads(capsys.readouterr().out)["report"]
    assert verify.total_failures(report) == 0
    assert {e["check"] for e in report} == set(verify.SUITES) | {"rsu_random"}
