import functools
import itertools
import random
from fractions import Fraction

import pytest

from drinfeld_towers import field, towers
from drinfeld_towers.errors import (
    NotInSubfield,
    NotOnCurve,
    NotPrime,
    SizeCapExceeded,
    ZeroDenominator,
    ZeroPoint,
)
from drinfeld_towers.isogeny import TowerParams, q_poly
from drinfeld_towers.ore import TwistedPoly, evaluate, solve_affine
from drinfeld_towers.towers import (
    TowerPoint,
    _h_terms,
    count_supersingular,
    enumerate_rational,
    eval_F,
    eval_G,
    eval_H,
    eval_H_cross,
    fiber_solutions,
    galois_action,
    ihara_bound,
    rsu,
    ssing_u_set,
)

P221 = TowerParams(2, 1, 2, 1)
P232 = TowerParams(2, 1, 3, 2)
P321 = TowerParams(3, 1, 2, 1)
P2232 = TowerParams(2, 2, 3, 2)
P331 = TowerParams(3, 1, 3, 1)
P2152 = TowerParams(2, 1, 5, 2)
P531 = TowerParams(5, 1, 3, 1)
F4 = P221.field(2)
W = F4.from_int(2)
# towers whose F and G level sizes are checked against the walks
LEVEL_SIZE_TOWERS = [P531, P2232, TowerParams(3, 1, 3, 2), P321, P2152, P221, TowerParams(7, 1, 2, 1)]


class TestEvalF:
    def test_known_zero(self):
        assert eval_F(P221, F4, F4.one, W) == F4.zero

    def test_y_zero_gives_minus_one(self):
        for x in F4.all_elements():
            if x != F4.zero:
                assert eval_F(P221, F4, x, F4.zero) == F4.neg(F4.one)

    def test_zero_x_rejected(self):
        with pytest.raises(ZeroDenominator):
            eval_F(P221, F4, F4.zero, W)

    @pytest.mark.parametrize("params,deg", [(P221, 4), (P232, 3)])
    def test_agrees_with_marked_polynomial(self, params, deg):
        # x * eval_F(x, y) = Q_x(y) - x on every pair
        ctx = params.field(deg)
        for x in ctx.all_elements():
            if x == ctx.zero:
                continue
            qx = q_poly(params, ctx, x)
            for y in ctx.all_elements():
                lhs = ctx.mul(x, eval_F(params, ctx, x, y))
                assert lhs == ctx.sub(evaluate(qx, y), x)


class TestEvalG:
    def test_q2_expansion(self):
        # for q = 2, m = 2: G(X, Y) = Y*(1/X + Y) - X
        for X in F4.all_elements():
            if X == F4.zero:
                continue
            for Y in F4.all_elements():
                direct = F4.sub(
                    F4.mul(Y, F4.add(F4.inv(X), Y)), X
                )
                assert eval_G(P221, F4, X, Y) == direct

    @pytest.mark.parametrize("params", [P221, P321, P232])
    def test_pushforward_from_F(self, params):
        ctx = params.field(params.m)
        q = params.q
        for pt in enumerate_rational(params, 2, "F"):
            x, y = pt.coords
            assert (
                eval_G(params, ctx, ctx.pow(x, q - 1), ctx.pow(y, q - 1)) == ctx.zero
            )

    def test_zero_x_rejected(self):
        with pytest.raises(ZeroDenominator):
            eval_G(P221, F4, F4.zero, W)


class TestEvalH:
    def test_jk11_closed_form(self):
        # a = 1, b = 0: H(u, v) = (v - 1)/(u^q - 1) - v^q/u
        ctx = P221.field(2)
        q = P221.q
        for u in ctx.all_elements():
            if u in (ctx.zero, ctx.one):
                continue  # u = 1 makes u^q - 1 vanish
            for v in ctx.all_elements():
                direct = ctx.sub(
                    ctx.mul(ctx.sub(v, ctx.one), ctx.inv(ctx.sub(ctx.pow(u, q), ctx.one))),
                    ctx.mul(ctx.pow(v, q), ctx.inv(u)),
                )
                assert eval_H(P221, ctx, u, v) == direct

    def test_supersingular_tuples_satisfy_cross_form(self):
        ctx = P321.field(2)
        target = ctx.scalar(P321.a + P321.b)
        good = [
            u
            for u in ctx.all_elements()
            if u != ctx.zero and ctx.trace_partial(u, 2) == target
        ]
        assert good
        for u in good:
            for v in good:
                assert eval_H_cross(P321, ctx, u, v) == ctx.zero

    def test_degenerate_denominator(self):
        with pytest.raises(ZeroDenominator):
            eval_H(P221, F4, F4.one, F4.one)  # tr_j(1)^{q^k} - a = 0 for a = 1


class TestFibers:
    def test_fiber_over_one(self):
        assert fiber_solutions(P221, F4, F4.one) == [W, F4.add(W, F4.one)]

    def test_fiber_over_w(self):
        assert set(fiber_solutions(P221, F4, W)) == {F4.one, W}

    def test_zero_rejected(self):
        with pytest.raises(ZeroPoint):
            fiber_solutions(P221, F4, F4.zero)

    @pytest.mark.parametrize("params", [P221, P232, P321])
    def test_cardinality_and_rationality(self, params):
        # all q^{m-1} solutions already live in F_{q^m}
        ctx = params.field(params.m)
        for x in ctx.all_elements():
            if x != ctx.zero:
                assert len(fiber_solutions(params, ctx, x)) == params.q ** (
                    params.m - 1
                )


def _g_solve(params, ctx, X):
    """G-successors of X from the solve of L_X(s) = 1, as for any ambient."""
    q, j, k = ctx.q, params.j, params.k
    a = ctx.pow(X, -((q**k - 1) // (q - 1)))
    b = ctx.pow(X, (q**j - 1) // (q - 1))
    coeffs = [ctx.frobenius(a, i) for i in range(j)] + [ctx.frobenius(b, i) for i in range(k)]
    sols = solve_affine(TwistedPoly(ctx, coeffs), ctx.one)
    return sorted((ctx.mul(X, ctx.pow(s, q - 1)) for s in sols), key=ctx.to_int)


_HYPERPLANE_TOWERS = {
    "2131": TowerParams(2, 1, 3, 1), "2152": P2152, "2232": P2232, "3221": TowerParams(3, 2, 2, 1),
    "3141": TowerParams(3, 1, 4, 1), "5131": P531, "2173": TowerParams(2, 1, 7, 3),
}


class TestTraceHyperplane:
    @pytest.mark.parametrize(
        "params,times",
        [(pr, 1) for pr in _HYPERPLANE_TOWERS.values()]
        + [(pr, t) for name, pr in _HYPERPLANE_TOWERS.items() if name != "2173" for t in (2, 3)],
        ids=list(_HYPERPLANE_TOWERS)
        + [f"{name}-{t}m" for name in _HYPERPLANE_TOWERS if name != "2173" for t in (2, 3)],
    )
    def test_successors_match_per_point_solves(self, params, times):
        # oracle: the cached hyperplanes give exactly the successors that one
        # affine solve per point gives, over F_{q^m} for every x, and for 40
        # random x over F_{q^{2m}} and F_{q^{3m}}, where c = x^{q^m-1} leaves F_q
        ctx = params.field(times * params.m)
        if times == 1:
            xs = [x for x in ctx.all_elements() if x != ctx.zero]
        else:
            rng = random.Random(f"{params}-{times}")
            xs = [ctx.from_int(rng.randrange(1, ctx.q**ctx.d)) for _ in range(40)]
        for x in xs:
            f_sols = solve_affine(q_poly(params, ctx, x), x)
            assert fiber_solutions(params, ctx, x) == f_sols
            assert list(towers._level_candidates(params, ctx, "F")(x)) == f_sols
            assert list(towers._level_candidates(params, ctx, "G")(x)) == _g_solve(params, ctx, x)

    def test_g_solves_once_per_norm(self):
        # c = X^{(q^m-1)/(q-1)} is the norm of X to F_q^*, so all 124 X share 4 solves
        towers._level_candidates.cache_clear()
        towers._trace_hyperplane.cache_clear()
        enumerate_rational(P531, 2, "G")
        assert towers._trace_hyperplane.cache_info().currsize == P531.q - 1


class TestEnumeration:
    def test_level_one_counts(self):
        assert len(enumerate_rational(P221, 1, "F")) == 3
        assert len(enumerate_rational(P321, 1, "F")) == 8

    def test_level_two_f_points(self):
        pts = enumerate_rational(P221, 2, "F")
        assert len(pts) == 6
        assert all(len(p.coords) == 2 for p in pts)

    def test_h_variant_revalidates(self):
        for pt in enumerate_rational(P221, 3, "H"):
            u, v = pt.coords
            assert eval_H_cross(P221, pt.ctx, u, v) == pt.ctx.zero

    @pytest.mark.parametrize(
        "params,variant",
        [
            (P221, "F"), (P321, "F"), (P221, "H"), (P321, "H"), (P2232, "H"),
            (P221, "G"), (P321, "G"), (P2232, "G"), (P331, "G"), (P2152, "G"),
        ],
    )
    def test_enumeration_matches_brute_scan(self, params, variant):
        # oracle: extend each chain by every nonzero y the recursion accepts;
        # an H-chain stops at a u whose denominators vanish.  (3,1,3,1) and
        # (2,1,5,2) have k > 1, so G's solve uses b^{q^i} past i = 0
        ctx = params.field(params.m)
        nonzero = [y for y in ctx.all_elements() if y != ctx.zero]

        @functools.cache
        def successors(x):
            if variant == "F":
                return [y for y in nonzero if eval_F(params, ctx, x, y) == ctx.zero]
            if variant == "G":
                return [y for y in nonzero if eval_G(params, ctx, x, y) == ctx.zero]
            if ctx.zero in _h_terms(params, ctx, x, ctx.zero)[1::2]:
                return []
            return [y for y in nonzero if eval_H_cross(params, ctx, x, y) == ctx.zero]

        chains = [(x,) for x in nonzero]
        for _ in range(1 if variant == "H" else 2):
            chains = [t + (y,) for t in chains for y in successors(t[-1])]
        pts = enumerate_rational(params, 3, variant)
        assert [p.coords for p in pts] == chains

    def test_enumeration_does_not_reevaluate(self, monkeypatch):
        # enumerated points pass validation by membership alone
        def fail(*args):
            raise AssertionError("recursion re-evaluated")

        monkeypatch.setattr(towers, "eval_F", fail)
        monkeypatch.setattr(towers, "eval_G", fail)
        monkeypatch.setattr(towers, "eval_H_cross", fail)
        assert len(enumerate_rational(P232, 5, "F")) == 1792
        assert len(enumerate_rational(P321, 3, "H")) == 13
        assert len(enumerate_rational(P531, 2, "G")) == 837

    def test_points_cap_checked_before_building_a_level(self, monkeypatch):
        monkeypatch.setattr(towers, "POINTS_CAP", 100)
        assert len(enumerate_rational(P221, 6, "F")) == 96
        with pytest.raises(SizeCapExceeded):
            enumerate_rational(P221, 7, "F")
        with pytest.raises(SizeCapExceeded):  # at the call, before any point is taken
            towers.iter_rational(P221, 7, "F")

    @pytest.mark.parametrize("params,deg", [(P221, 4), (P2232, 3)], ids=["F16", "F64"])
    def test_validation_matches_recursion(self, params, deg):
        # oracle: a pair is accepted exactly when the recursion holds; an H-pair
        # also needs both denominators of u nonzero
        ctx = params.field(deg)
        nonzero = [x for x in ctx.all_elements() if x != ctx.zero]

        def accepted(variant, x, y):
            try:
                TowerPoint(variant, params, ctx, (x, y))
            except NotOnCurve:
                return False
            return True

        for x in nonzero:
            h_ok = ctx.zero not in _h_terms(params, ctx, x, ctx.zero)[1::2]
            for y in nonzero:
                assert accepted("F", x, y) == (eval_F(params, ctx, x, y) == ctx.zero)
                assert accepted("G", x, y) == (eval_G(params, ctx, x, y) == ctx.zero)
                on_h = h_ok and eval_H_cross(params, ctx, x, y) == ctx.zero
                assert accepted("H", x, y) == on_h

    def test_counts_match_formula(self):
        assert count_supersingular(P221, 2) == (6, 6)
        assert count_supersingular(P221, 3) == (12, 12)
        assert count_supersingular(P321, 2) == (24, 24)

    @pytest.mark.parametrize(
        "params,top",
        [(P232, 5), (TowerParams(3, 1, 3, 2), 4), (P531, 3), (P2232, 2)],
        ids=["2132", "3132", "5131", "2232"],
    )
    def test_walks_match_listing(self, params, top):
        # oracle: the hyperplane count is the length of the listing it
        # replaces, and the walk's count
        walk = towers._chain_counts(params, params.field(params.m), "F")
        for n in range(1, top + 1):
            count, formula = count_supersingular(params, n)
            assert count == formula == len(enumerate_rational(params, n, "F")) == next(walk)

    @pytest.mark.parametrize("params", [P221, P321, P2232, P331], ids=["221", "321", "2232", "331"])
    def test_chain_counts_every_variant(self, params):
        ctx = params.field(params.m)
        for variant in ("F", "G", "H"):
            walk = towers._chain_counts(params, ctx, variant)
            sizes = [next(walk) for _ in range(3)]
            levels = range(1, 4) if variant != "H" else range(2, 5)
            assert sizes == [len(enumerate_rational(params, n, variant)) for n in levels]
            assert sizes == list(itertools.islice(towers._level_sizes(params, variant), 3))

    @pytest.mark.parametrize("params", [P221, P321, P2232, P331], ids=["221", "321", "2232", "331"])
    def test_rational_chains_match_chain_counts(self, params):
        # the one walk yields nonzero coordinates only, in canonical order
        # (by to_int, first coordinate slowest, no repeats), and as many
        # chains as the counting walk counts
        ctx = params.field(params.m)
        for variant in ("F", "G", "H"):
            counts = towers._chain_counts(params, ctx, variant)
            for length in (1, 2, 3):
                chains = list(towers.rational_chains(params, variant, length))
                assert all(len(chain) == length and ctx.zero not in chain for chain in chains)
                keys = [tuple(map(ctx.to_int, chain)) for chain in chains]
                assert keys == sorted(set(keys))
                assert len(chains) == next(counts)

    def test_rational_chains_are_lazy(self):
        # level 40 of (2, 1, 5, 2) holds 31 * 16^39 chains; the first comes at once
        first = next(towers.rational_chains(P2152, "F", 40))
        assert first[:2] == next(towers.rational_chains(P2152, "F", 2)) and len(first) == 40

    @pytest.mark.parametrize("params", LEVEL_SIZE_TOWERS, ids=lambda pr: f"{pr.p}{pr.e}{pr.m}{pr.j}")
    def test_hyperplane_sizes_match_walks(self, params):
        # oracle: F's (q^m-1)|T_1|^{n-1} and G's N_m sum_c |T_c|^{n-1} are the walked counts
        ctx = params.field(params.m)
        for variant in ("F", "G"):
            walk = towers._chain_counts(params, ctx, variant)
            sizes = towers._level_sizes(params, variant)
            assert [next(sizes) for _ in range(5)] == [next(walk) for _ in range(5)]

    def test_counts_list_no_field(self, monkeypatch):
        # F and G sizes come from ranks, so the listing cap does not bound them
        def fail(*args):
            raise AssertionError("field listed")

        ctx = P2152.field(5)
        monkeypatch.setattr(type(ctx), "all_elements", fail)
        monkeypatch.setattr(type(ctx), "subfield_elements", fail)
        assert count_supersingular(P2152, 40) == (31 * 16**39,) * 2
        assert next(itertools.islice(towers._level_sizes(P2152, "G"), 3, None)) == 31 * 16**3
        monkeypatch.setattr(field, "ENUMERATION_CAP", 31)
        for variant in ("F", "G"):
            sizes = towers._level_sizes(P2152, variant)
            assert [next(sizes) for _ in range(3)] == [31, 31 * 16, 31 * 16**2]

    @pytest.mark.parametrize(
        "tup",
        [(2, 4, 5, 1), (2, 1, 26, 3), (8191, 1, 2, 1), (3, 4, 4, 3), (2, 1, 17, 1), (3, 1, 11, 2),
         (5, 1, 7, 3), (2, 2, 9, 2), (2, 6, 4, 1), (7, 1, 9, 4), (13, 1, 6, 1), (2, 13, 2, 1)],
        ids=lambda t: "".join(map(str, t)),
    )
    def test_counts_above_listing_cap(self, monkeypatch, tup):
        # 2^16 < q^m <= 2^26: past ENUMERATION_CAP, within the size cap
        monkeypatch.delenv("DRINFELD_SIZE_CAP", raising=False)
        params = TowerParams(*tup)
        q, m = params.q, params.m
        assert field.ENUMERATION_CAP < q**m <= field.DEFAULT_SIZE_CAP
        assert count_supersingular(params, 4) == ((q**m - 1) * q ** (3 * (m - 1)),) * 2

    @pytest.mark.parametrize("variant", ["F", "G"])
    def test_level_one_refused_before_any_rank(self, monkeypatch, variant):
        # level 1 holds q^m - 1 = 2^26 - 1 points, past POINTS_CAP; the cap
        # check stops there, before the q - 1 = 8191 ranks of G
        def fail(*args):
            raise AssertionError("rank taken")

        monkeypatch.delenv("DRINFELD_SIZE_CAP", raising=False)
        monkeypatch.setattr(towers, "count_affine", fail)
        for n in (1, 3):
            with pytest.raises(SizeCapExceeded, match="points on one level"):
                towers.iter_rational(TowerParams(2, 13, 2, 1), n, variant)

    def test_walk_reaches_deep_levels(self):
        assert count_supersingular(P531, 12) == (295_639_038_085_937_500,) * 2

    @pytest.mark.parametrize("n", [0, -3])
    def test_level_below_one_rejected(self, n):
        with pytest.raises(ValueError, match="n >= 1"):
            count_supersingular(P221, n)
        for variant in ("F", "G"):
            with pytest.raises(ValueError, match="n >= 1"):
                enumerate_rational(P221, n, variant)

    def test_supersingular_flag(self):
        # every coordinate must lie in F_{q^m}; in F_64 that is F_4
        ctx = P221.field(6)
        f4 = ctx.subfield_elements(2)
        pts = [
            TowerPoint("F", P221, ctx, (x, y))
            for x in ctx.all_elements() if x != ctx.zero
            for y in fiber_solutions(P221, ctx, x)
        ]
        flags = [pt.is_supersingular() for pt in pts]
        assert flags == [set(pt.coords) <= set(f4) for pt in pts]
        assert True in flags and False in flags
        assert all(pt.is_supersingular() for pt in enumerate_rational(P221, 3, "G"))

    def test_invalid_point_rejected(self):
        with pytest.raises(NotOnCurve):
            TowerPoint("F", P221, F4, (F4.one, F4.one))
        with pytest.raises(ZeroPoint):
            TowerPoint("F", P221, F4, (F4.one, F4.zero))

    @pytest.mark.parametrize("variant", ["F", "G"])
    def test_zero_and_off_curve_anywhere_rejected(self, variant):
        ctx = P232.field(3)
        good = enumerate_rational(P232, 3, variant)[5].coords
        for i in range(3):
            with pytest.raises(ZeroPoint):
                TowerPoint(variant, P232, ctx, good[:i] + (ctx.zero,) + good[i + 1 :])
        for i in (1, 2):
            prev = good[i - 1]
            bad = next(y for y in ctx.all_elements()
                       if y != ctx.zero and y not in towers._level_candidates(P232, ctx, variant)(prev))
            with pytest.raises(NotOnCurve):
                TowerPoint(variant, P232, ctx, good[:i] + (bad,) + good[i + 1 :])


class TestRSU:
    def test_jk11_structure(self):
        # a = 1, b = 0 collapse: u = R and S = 1 - u
        ctx = P221.field(2)
        for pt in enumerate_rational(P221, 2, "F"):
            r = rsu(P221, ctx, pt.coords[0], pt.coords[1])
            assert r.u == r.R
            assert r.S == ctx.sub(ctx.one, r.u)
            assert ctx.add(r.R, r.S) == ctx.one

    def test_off_curve_rejected(self):
        with pytest.raises(NotOnCurve):
            rsu(P221, F4, F4.one, F4.one)

    @pytest.mark.parametrize("params", [P232, P321])
    def test_accepts_exactly_the_curve(self, params):
        # rsu's own F-recursion check against eval_F, on every pair of F_{q^m}
        ctx = params.field(params.m)
        els = ctx.all_elements()
        accepted = 0
        for x in els[1:]:
            for y in els:
                on_curve = eval_F(params, ctx, x, y) == ctx.zero
                if on_curve:
                    r = rsu(params, ctx, x, y)
                    assert r.R == ctx.mul(y, ctx.inv(ctx.frobenius(x, params.k)))
                    accepted += 1
                else:
                    with pytest.raises(NotOnCurve, match="F-recursion"):
                        rsu(params, ctx, x, y)
        assert accepted == (params.q**params.m - 1) * params.q ** (params.m - 1)

    @pytest.mark.parametrize("params", [P221, P321, P232])
    def test_cross_level_identity(self, params):
        # x_2^{q^m - 1} links the two consecutive (R, S) pairs
        ctx = params.field(params.m)
        q, m, j, k = params.q, params.m, params.j, params.k
        for pt in enumerate_rational(params, 3, "F"):
            x1, x2, x3 = pt.coords
            r2 = rsu(params, ctx, x1, x2)
            r3 = rsu(params, ctx, x2, x3)
            lhs = ctx.pow(x2, q**m - 1)
            assert lhs == ctx.mul(ctx.pow(r2.S, q**k), ctx.inv(r2.R))
            assert lhs == ctx.mul(r3.S, ctx.inv(ctx.pow(r3.R, q**j)))


class TestGaloisAction:
    def test_identity_action(self):
        pt = enumerate_rational(P221, 2, "F")[0]
        assert galois_action(P221, F4.one, pt).coords == pt.coords

    def test_orbits_divide_group_order(self):
        ctx = P321.field(2)
        units = [x for x in ctx.all_elements() if x != ctx.zero]
        pts = enumerate_rational(P321, 2, "F")
        for pt in pts[:6]:
            orbit = {galois_action(P321, mu, pt).coords for mu in units}
            assert (P321.q**P321.m - 1) % len(orbit) == 0

    def test_u_is_invariant(self):
        ctx = P321.field(2)
        units = [x for x in ctx.all_elements() if x != ctx.zero]
        for pt in enumerate_rational(P321, 2, "F")[:6]:
            u0 = rsu(P321, ctx, pt.coords[0], pt.coords[1]).u
            for mu in units:
                moved = galois_action(P321, mu, pt)
                assert rsu(P321, ctx, moved.coords[0], moved.coords[1]).u == u0

    def test_scalar_out_of_group(self):
        pt = enumerate_rational(P221, 2, "F")[0]
        with pytest.raises(NotInSubfield):
            galois_action(P221, F4.zero, pt)


class TestSupersingularLocus:
    def test_u_set_at_q4(self):
        ctx = P221.field(2)
        got = ssing_u_set(P221, 2)
        assert got == {(W,), (F4.add(W, F4.one),)}

    @pytest.mark.parametrize("params,n", [(P221, 2), (P221, 3), (P321, 2)])
    def test_cardinality(self, params, n):
        assert len(ssing_u_set(params, n)) == params.q ** (
            (params.m - 1) * (n - 1)
        )

    @pytest.mark.parametrize("params", [P221, P321, P232])
    def test_matches_rsu_image(self, params):
        ctx = params.field(params.m)
        image = {
            (rsu(params, ctx, pt.coords[0], pt.coords[1]).u,)
            for pt in enumerate_rational(params, 2, "F")
        }
        assert image == ssing_u_set(params, 2)


class TestBound:
    def test_exact_values(self):
        assert ihara_bound(2, 1) == Fraction(3, 2)
        assert ihara_bound(3, 1) == Fraction(16, 5)
        assert ihara_bound(2, 2) == Fraction(21, 5)

    def test_m1_closed_form(self):
        for p in (2, 3, 5, 7, 11):
            assert ihara_bound(p, 1) == Fraction(2 * (p**2 - 1), p + 2)

    def test_prime_required(self):
        with pytest.raises(NotPrime):
            ihara_bound(4, 1)
