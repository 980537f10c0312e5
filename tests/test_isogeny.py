import math

import pytest

from drinfeld_towers.drinfeld import APoly, DrinfeldModule, cyclic_module
from drinfeld_towers.errors import BadRankPair, CharacteristicDividesK, NotPrime, ZeroPoint
from drinfeld_towers.field import make_field
from drinfeld_towers.isogeny import (
    TowerParams,
    XChain,
    big_phi,
    bracket_coeffs,
    check_intertwine,
    check_lemma_2_9,
    check_roundtrip,
    check_theta_marked_point,
    e_space,
    eta,
    F_and_f,
    lambda_poly,
    q_poly,
    span_qk,
    verify_lemma_1_6,
)
from drinfeld_towers.ore import TwistedPoly, evaluate, kernel, ore_mul, splitting_degree

P221 = TowerParams(2, 1, 2, 1)
P232 = TowerParams(2, 1, 3, 2)
P321 = TowerParams(3, 1, 2, 1)
P331 = TowerParams(3, 1, 3, 1)
F4 = make_field(2, 1, 2)
W = F4.from_int(2)

# (m, j) with m <= 6 and gcd(j, m - j) = 1: 11 rank pairs
RANK_PAIRS = [(m, j) for m in range(2, 7) for j in range(1, m) if math.gcd(j, m - j) == 1]
# the 44 prime-field shapes with p <= 7, m <= 6, and 36 with q in {4, 8, 9, 27}, m <= 5
LEMMA_SHAPES = [(p, 1, m, j) for p in (2, 3, 5, 7) for m, j in RANK_PAIRS] + [
    (p, e, m, j) for p, e in ((2, 2), (2, 3), (3, 2), (3, 3)) for m, j in RANK_PAIRS if m <= 5
]


def _lemma_factors(p, e, m, j, shift=0):
    """eta_x, phi^x_T, Q_x and lambda_x in F_p[x^{+-1}]{tau}, each as
    {tau-degree: {exponent n: coefficient of x^n mod p}}, from the paper's
    formulas; `shift` moves lambda_x's constant exponent."""
    q, k = p**e, m - j
    twist = [1 - q**i for i in range(m)]  # x^{1 - q^i}
    g = {q**m - q**j: 1, 1 - q**j: p - 1}  # x^{q^m - q^j} - x^{1 - q^j}
    eta_x = {i: {twist[i]: 1} for i in range(k)}
    phi_x = {0: {0: 1}, j: g, m: {0: p - 1}}
    q_x = {i: {twist[(k + i) % m]: 1} for i in range(m)}  # eta's twists rotated by k
    lam_x = {0: {q**k - 1 + shift: 1}, k: {0: p - 1}}
    return eta_x, phi_x, q_x, lam_x


def _laurent_mul(f, g, q, p):
    """f g in F_p[x^{+-1}]{tau}, where tau x^n = x^{n q} tau; zero terms dropped."""
    out = {}
    for i, a in f.items():
        for l, b in g.items():
            acc = out.setdefault(i + l, {})
            for na, ca in a.items():
                for nb, cb in b.items():
                    n = na + nb * q**i
                    acc[n] = (acc.get(n, 0) + ca * cb) % p
    out = {d: {n: c for n, c in terms.items() if c} for d, terms in out.items()}
    return {d: terms for d, terms in out.items() if terms}


class TestParams:
    def test_bezout_pairs(self):
        assert (P221.a, P221.b) == (1, 0)
        assert (P232.a, P232.b) == (1, 0)
        assert (P331.a, P331.b) == (1, 1)
        p1 = TowerParams(2, 1, 5, 3)  # k = 2: 1*2 - ... needs a*2 - b*3 = 1
        assert p1.a * p1.k - p1.b * p1.j == 1

    def test_gcd_enforced(self):
        with pytest.raises(BadRankPair):
            TowerParams(2, 1, 4, 2)

    def test_base_field_validated(self):
        with pytest.raises(NotPrime):
            TowerParams(4, 3, 3, 1)
        with pytest.raises(ValueError):
            TowerParams(2, 0, 2, 1)

    def test_characteristic_flag(self):
        assert P331.k_coprime_to_p  # k = 2, p = 3
        assert not TowerParams(2, 1, 3, 1).k_coprime_to_p  # k = 2, p = 2


class TestAuxiliaryPolynomials:
    def test_eta_k1_is_one(self):
        assert eta(P221, F4, W) == TwistedPoly.one(F4)

    def test_eta_k2_shape(self):
        ctx = make_field(3, 1, 2)
        x = ctx.from_int(5)
        f = eta(P331, ctx, x)
        assert f.coeff(0) == ctx.one
        assert f.coeff(1) == ctx.pow(x, 1 - ctx.q)
        assert f.tau_degree == 1

    def test_eta_eats_its_point(self):
        # every term of eta_x at x contributes x, so the value is k*x
        ctx = make_field(3, 1, 2)
        for x in ctx.all_elements():
            if x == ctx.zero:
                continue
            assert evaluate(eta(P331, ctx, x), x) == ctx.base_scale(
                P331.k % 3, x
            )

    def test_lambda_kills_its_point(self):
        for x in F4.all_elements():
            if x != F4.zero:
                assert evaluate(lambda_poly(P221, F4, x), x) == F4.zero

    def test_lambda_at_w(self):
        lam = lambda_poly(P221, F4, W)
        assert lam.coeff(0) == W and lam.coeff(1) == F4.one  # -1 = 1

    def test_lambda_factors_through_eta(self):
        params = TowerParams(2, 1, 3, 1)  # k = 2
        ctx = make_field(2, 1, 4)
        q, k = ctx.q, params.k
        for x in ctx.all_elements():
            if x == ctx.zero:
                continue
            head = TwistedPoly(
                ctx, (ctx.pow(x, q**k - 1), ctx.neg(ctx.pow(x, q**k - q)))
            )
            assert ore_mul(head, eta(params, ctx, x)) == lambda_poly(params, ctx, x)

    def test_q_poly_m2_shape(self):
        f = q_poly(P221, F4, W)
        assert f.coeff(0) == F4.pow(W, 1 - 2)
        assert f.coeff(1) == F4.one

    def test_q_poly_marked_coefficient(self):
        ctx = make_field(3, 1, 3)
        params = TowerParams(3, 1, 3, 2)
        for x in ctx.all_elements():
            if x != ctx.zero:
                assert q_poly(params, ctx, x).coeff(params.j) == ctx.one

    def test_zero_point_rejected(self):
        for fn in (eta, lambda_poly, q_poly):
            with pytest.raises(ZeroPoint):
                fn(P221, F4, F4.zero)


class TestIntertwining:
    def test_trivial_cases(self):
        phi = DrinfeldModule(F4, 2, 1, W)
        assert check_intertwine(TwistedPoly.one(F4), phi, phi)
        assert check_intertwine(TwistedPoly.zero(F4), phi, phi)

    @pytest.mark.parametrize("params,deg", [(P221, 2), (P232, 3), (P321, 2)])
    def test_identity_exhaustive(self, params, deg):
        ctx = params.field(deg)
        for x in ctx.all_elements():
            if x != ctx.zero:
                assert verify_lemma_1_6(params, ctx, x)

    @pytest.mark.parametrize("p,e,m,j", LEMMA_SHAPES, ids=[f"{p}{e}{m}{j}" for p, e, m, j in LEMMA_SHAPES])
    def test_identity_once_per_shape(self, p, e, m, j):
        # every coefficient of the four factors is a signed sum of monomials
        # x^n, so eta_x phi^x_T = Q_x lambda_x is one identity in
        # F_p[x^{+-1}]{tau}; a nonzero Laurent polynomial has finitely many
        # roots, so it holds at every x != 0 in every extension.  Shifting
        # lambda_x's constant exponent by one must break it.
        q = p**e
        eta_x, phi_x, q_x, lam_x = _lemma_factors(p, e, m, j)
        assert _laurent_mul(eta_x, phi_x, q, p) == _laurent_mul(q_x, lam_x, q, p)
        shifted = _lemma_factors(p, e, m, j, shift=1)[3]
        assert _laurent_mul(eta_x, phi_x, q, p) != _laurent_mul(q_x, shifted, q, p)

    @pytest.mark.parametrize("p,e,m,j", [s for s in LEMMA_SHAPES if s[0] ** (s[1] * s[2]) <= 2**10])
    def test_shape_factors_are_the_library_factors(self, p, e, m, j):
        # ties the symbolic factors to eta, module_at, q_poly and lambda_poly
        params = TowerParams(p, e, m, j)
        ctx = params.field(m)
        x = ctx.from_int(ctx.q)  # the generator y of F_{q^m} over F_q
        library = (eta(params, ctx, x), params.module_at(ctx, x).phi_T(),
                   q_poly(params, ctx, x), lambda_poly(params, ctx, x))
        for symbolic, poly in zip(_lemma_factors(p, e, m, j), library):
            values = {i: ctx.zero for i in range(max(symbolic) + 1)}
            for i, terms in symbolic.items():
                for n, c in terms.items():
                    values[i] = ctx.add(values[i], ctx.mul(ctx.scalar(c), ctx.pow(x, n)))
            assert TwistedPoly(ctx, [values[i] for i in sorted(values)]) == poly

    def test_fiber_isogenies(self):
        from drinfeld_towers.towers import fiber_solutions

        ctx = P221.field(2)
        for x in ctx.all_elements():
            if x == ctx.zero:
                continue
            lam = lambda_poly(P221, ctx, x)
            for y in fiber_solutions(P221, ctx, x):
                if y != ctx.zero:
                    assert check_intertwine(
                        lam, P221.module_at(ctx, x), P221.module_at(ctx, y)
                    )


class TestTwistedModule:
    def test_F_k1(self):
        ctx = P221.field(1)
        big_F, f = F_and_f(P221, ctx)
        assert big_F == APoly.T(ctx) and f == APoly.one(ctx)

    def test_F_k2_odd_char(self):
        ctx = P331.field(1)
        big_F, f = F_and_f(P331, ctx)
        assert big_F == APoly.from_ints(ctx, [0, 2, -1])
        assert f == APoly.from_ints(ctx, [2, -1])

    def test_f_k3(self):
        params = TowerParams(5, 1, 4, 1)
        ctx = params.field(1)
        _, f = F_and_f(params, ctx)
        assert f == APoly.from_ints(ctx, [3, -3, 1])

    def test_characteristic_divides_k(self):
        params = TowerParams(2, 1, 3, 1)
        with pytest.raises(CharacteristicDividesK):
            F_and_f(params, params.field(1))

    def test_big_phi_k1_is_phi_T(self):
        phi = DrinfeldModule(F4, 2, 1, W)
        assert big_phi(phi, P221) == phi.phi_T()

    def test_big_phi_support_and_constant(self):
        ctx = P331.field(2)
        phi = DrinfeldModule(ctx, 3, 1, ctx.from_int(4))
        f = big_phi(phi, P331)
        assert f.coeff(0) == ctx.one
        for i in range(f.tau_degree + 1):
            if f.coeff(i) != ctx.zero:
                assert i % P331.k == 0

    @pytest.mark.parametrize(
        "params,g_int",
        [(P221, 2), (P331, 4), (TowerParams(2, 1, 4, 1), 3)],  # k = 1, 2, 3
    )
    def test_bracket_recursion_matches_direct_expansion(self, params, g_int):
        ctx = params.field(2)
        phi = DrinfeldModule(ctx, params.m, params.j, ctx.from_int(g_int))
        coeffs = bracket_coeffs(phi, params)  # raises BracketMismatch on disagreement
        assert coeffs[-1] == ctx.one
        assert len(coeffs) == params.k + 1


class TestChains:
    def test_chain_validation(self):
        with pytest.raises(ValueError):
            XChain(P221, F4, (F4.one, F4.one))
        XChain(P221, F4, (F4.one, W))  # Q_1(w) = 1 holds

    def test_e_space_level_one(self):
        chain = XChain(P221, F4, (F4.one,))
        deg = splitting_degree(chain.composite(), P221.k)
        big = chain.map_to(P221.field(deg))
        sp = e_space(big)
        assert sp.cardinality == P221.q**P221.k
        assert sp.contains(big.coords[0])

    def test_e_space_level_two(self):
        chain = XChain(P221, F4, (F4.one, W))
        deg = splitting_degree(chain.composite(), 2 * P221.k)
        sp = e_space(chain.map_to(P221.field(deg)))
        assert deg == 4 and sp.dim == 2

    def test_marked_point_consistency(self):
        chain = XChain(P221, F4, (F4.one, W))
        deg = splitting_degree(chain.composite(), 2 * P221.k)
        assert check_theta_marked_point(chain.map_to(P221.field(deg)))


class TestSpansAndRoundtrip:
    def test_span_of_zero(self):
        assert span_qk(P331, P331.field(2), [P331.field(2).zero]).dim == 0

    def test_span_of_point_is_a_line(self):
        ctx = P331.field(4)  # contains F_{q^k} = F_9
        x = ctx.from_int(7)
        sp = span_qk(P331, ctx, [x])
        assert sp.dim == P331.k

    def test_span_idempotent(self):
        ctx = P331.field(4)
        sp = span_qk(P331, ctx, [ctx.from_int(7), ctx.from_int(11)])
        assert span_qk(P331, ctx, sp.elements()).basis == sp.basis

    def test_roundtrip_k2(self):
        amb = P331.field(8)
        phi = DrinfeldModule(amb, 3, 1, amb.scalar(2))
        mu = kernel(phi.phi_T()).elements()[1]
        g1 = cyclic_module(phi, mu)
        assert check_roundtrip(P331, phi, g1, 1)

    def test_roundtrip_k1_collapse(self):
        ctx = P232.field(3)
        phi = P232.module_at(ctx, ctx.one)
        deg = splitting_degree(phi.phi_T(), 3)
        amb = P232.field(deg)
        phi = phi.map_to(amb)
        mu = kernel(phi.phi_T()).elements()[1]
        assert check_roundtrip(P232, phi, cyclic_module(phi, mu), 1)

    def test_annihilator_line_checks(self):
        ctx = P331.field(6)  # contains F_{q^k}*x for x in F_{3^6}
        hits = 0
        for x in ctx.all_elements()[1:30]:
            if x == ctx.zero:
                continue
            assert check_lemma_2_9(P331, ctx, x)
            hits += 1
        assert hits >= 20
