import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld_towers.drinfeld import (
    APoly,
    DrinfeldModule,
    annihilator_order,
    cyclic_module,
    find_isomorphism,
    is_supersingular,
    j_invariant,
    module_from_point,
    monic_apolys,
    phi_a,
)
from drinfeld_towers.errors import BadRankPair, ZeroPoint
from drinfeld_towers.field import make_field
from drinfeld_towers.ore import TwistedPoly, evaluate, kernel, ore_add, ore_mul

F4 = make_field(2, 1, 2)
F9 = make_field(3, 1, 2)
W = F4.from_int(2)


def apolys(ctx, max_deg=3):
    return st.lists(st.integers(0, ctx.q - 1), max_size=max_deg + 1).map(
        lambda l: APoly(ctx, l)
    )


class TestConstruction:
    def test_supersingular_shape(self):
        phi = DrinfeldModule(F4, 2, 1, F4.zero)
        assert phi.phi_T() == TwistedPoly(F4, (F4.one, F4.zero, F4.one))  # -1 = 1 in char 2
        assert is_supersingular(phi)

    def test_bad_gcd(self):
        with pytest.raises(BadRankPair):
            DrinfeldModule(F4, 4, 2, F4.one)

    def test_rank_three_coefficients(self):
        phi = DrinfeldModule(F4, 3, 2, W)
        f = phi.phi_T()
        assert f.coeff(0) == F4.one
        assert f.coeff(2) == W
        assert f.coeff(3) == F4.neg(F4.one)
        assert f.tau_degree == 3

    def test_out_of_range_j(self):
        with pytest.raises(BadRankPair):
            DrinfeldModule(F9, 2, 2, F9.one)


class TestSubstitution:
    def test_phi_of_T(self):
        phi = DrinfeldModule(F9, 2, 1, F9.from_int(5))
        assert phi_a(phi, APoly.T(F9)) == phi.phi_T()

    def test_phi_of_constant(self):
        phi = DrinfeldModule(F9, 2, 1, F9.one)
        a = APoly(F9, (2,))
        assert phi_a(phi, a) == TwistedPoly.constant(F9, F9.scalar(2))

    def test_characteristic_annihilates_derivation(self):
        phi = DrinfeldModule(F4, 2, 1, W)
        t_minus_1 = APoly.from_ints(F4, [-1, 1])
        assert phi_a(phi, t_minus_1).coeff(0) == F4.zero

    def test_derivation_is_eval_at_one(self):
        phi = DrinfeldModule(F9, 2, 1, F9.from_int(3))
        for a in monic_apolys(F9, 2):
            a_at_one = functools.reduce(F9.add, map(F9.from_base, a.coeffs), F9.zero)
            assert phi_a(phi, a).coeff(0) == a_at_one

    @settings(max_examples=40, deadline=None)
    @given(apolys(F4), apolys(F4))
    def test_homomorphism_and_commutativity(self, a, b):
        phi = DrinfeldModule(F4, 2, 1, W)
        fa, fb = phi_a(phi, a), phi_a(phi, b)
        assert phi_a(phi, a * b) == ore_mul(fa, fb)
        assert phi_a(phi, a + b) == ore_add(fa, fb)
        assert ore_mul(fa, fb) == ore_mul(fb, fa)

    def test_tau_degree_scaling(self):
        phi = DrinfeldModule(F9, 2, 1, F9.one)
        a = APoly.T(F9) ** 2
        assert phi_a(phi, a).tau_degree == phi.m * a.degree


class TestInvariants:
    def test_supersingular_j(self):
        assert j_invariant(DrinfeldModule(F4, 2, 1, F4.zero)) == F4.zero

    def test_unit_j(self):
        assert j_invariant(DrinfeldModule(F9, 2, 1, F9.one)) == F9.one

    def test_w_cubed(self):
        assert j_invariant(DrinfeldModule(F4, 2, 1, W)) == F4.one


class TestIsomorphism:
    def test_self_isomorphism(self):
        phi = DrinfeldModule(F4, 2, 1, W)
        lam = find_isomorphism(phi, phi)
        assert lam is not None

    def test_supersingular_pair(self):
        phi = DrinfeldModule(F4, 2, 1, F4.zero)
        assert find_isomorphism(phi, phi) == F4.one

    def test_twist_by_w(self):
        phi = DrinfeldModule(F4, 2, 1, W)
        phi2 = DrinfeldModule(F4, 2, 1, F4.mul(W, W))
        lam = find_isomorphism(phi, phi2)
        assert lam is not None
        assert phi.g_j == F4.mul(phi2.g_j, F4.pow(lam, F4.q**phi.j - 1))

    @pytest.mark.parametrize(
        "ctx,m,j",
        [(F4, 2, 1), (F9, 2, 1), (make_field(2, 1, 3), 3, 2), (make_field(3, 1, 3), 3, 2)],
    )
    def test_isomorphism_iff_same_j_invariant(self, ctx, m, j):
        for g1 in ctx.all_elements():
            for g2 in ctx.all_elements():
                phi, phi2 = DrinfeldModule(ctx, m, j, g1), DrinfeldModule(ctx, m, j, g2)
                found = find_isomorphism(phi, phi2) is not None
                assert found == (j_invariant(phi) == j_invariant(phi2))


class TestPointModules:
    def test_x_one_is_supersingular(self):
        assert is_supersingular(module_from_point(F4, 2, 1, F4.one))

    def test_zero_point_rejected(self):
        with pytest.raises(ZeroPoint):
            module_from_point(F4, 2, 1, F4.zero)

    def test_g_of_w_vanishes(self):
        assert module_from_point(F4, 2, 1, W).g_j == F4.zero

    def test_defining_point_in_kernel(self):
        ctx = make_field(2, 1, 4)
        for x in ctx.all_elements():
            if x == ctx.zero:
                continue
            phi = module_from_point(ctx, 2, 1, x)
            assert evaluate(phi.phi_T(), x) == ctx.zero

    def test_supersingular_iff_norm_one_locus(self):
        # g(x) = 0 exactly when x^{q^m - 1} = 1
        ctx = make_field(2, 1, 4)
        for x in ctx.all_elements():
            if x == ctx.zero:
                continue
            phi = module_from_point(ctx, 2, 1, x)
            assert is_supersingular(phi) == (ctx.pow(x, ctx.q**2 - 1) == ctx.one)


class TestTorsion:
    def test_unit_torsion(self):
        phi = DrinfeldModule(F4, 2, 1, F4.one)
        assert kernel(phi_a(phi, APoly.one(F4))).elements() == [F4.zero]

    def test_T_torsion_in_splitting_ambient(self):
        amb = make_field(2, 1, 6)
        phi = DrinfeldModule(amb, 2, 1, amb.one)
        ker = kernel(phi_a(phi, APoly.T(amb)))
        assert ker.dim == 2 and amb.q**ker.dim == 4

    def test_T_squared_torsion(self):
        amb = make_field(2, 1, 6)
        phi = DrinfeldModule(amb, 2, 1, amb.one)
        assert amb.q ** kernel(phi_a(phi, APoly.T(amb) ** 2)).dim == 16

    def test_characteristic_torsion_is_small(self):
        # T - 1 is the characteristic: phi_{T-1} is inseparable, kernel stays
        # strictly below q^m even in a splitting ambient for phi_T
        amb = make_field(2, 1, 6)
        phi = DrinfeldModule(amb, 2, 1, amb.one)
        t_minus_1 = APoly.from_ints(amb, [-1, 1])
        assert amb.q ** kernel(phi_a(phi, t_minus_1)).dim < 4


class TestAnnihilatorsAndCyclicModules:
    def _phi(self):
        amb = make_field(2, 1, 6)
        return DrinfeldModule(amb, 2, 1, amb.one)

    def test_zero_annihilated_by_one(self):
        phi = self._phi()
        assert annihilator_order(phi, phi.ctx.zero, 2) == APoly.one(phi.ctx)

    def test_T_torsion_point_order(self):
        phi = self._phi()
        mu = kernel(phi_a(phi, APoly.T(phi.ctx))).elements()[1]
        assert annihilator_order(phi, mu, 2) == APoly.T(phi.ctx)

    def test_order_T_squared_and_cyclic_dim(self):
        phi = self._phi()
        ctx = phi.ctx
        t2 = APoly.T(ctx) ** 2
        ker_T = set(kernel(phi_a(phi, APoly.T(ctx))).elements())
        mu = next(v for v in kernel(phi_a(phi, t2)).elements() if v not in ker_T)
        assert annihilator_order(phi, mu, 2) == t2
        assert cyclic_module(phi, mu).dim == 2

    def test_cyclic_of_zero(self):
        phi = self._phi()
        assert cyclic_module(phi, phi.ctx.zero).elements() == [phi.ctx.zero]

    def test_cyclic_of_T_torsion_is_a_line(self):
        phi = self._phi()
        mu = kernel(phi_a(phi, APoly.T(phi.ctx))).elements()[1]
        line = cyclic_module(phi, mu)
        assert line.dim == 1 and line.contains(mu)
