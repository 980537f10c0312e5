import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld_towers import field, linalg
from drinfeld_towers.errors import ContextMismatch, SizeCapExceeded
from drinfeld_towers.field import make_field
from drinfeld_towers.ore import (
    Subspace,
    TwistedPoly,
    count_affine,
    evaluate,
    kernel,
    linear_matrix,
    ore_add,
    ore_mul,
    ore_mul_logs,
    ore_scale,
    point_derivation,
    solve_affine,
    splitting_degree,
)

F4 = make_field(2, 1, 2)
F9 = make_field(3, 1, 2)
W = F4.from_int(2)


def poly(ctx, ints):
    return TwistedPoly(ctx, tuple(ctx.from_int(i % (ctx.q**ctx.d)) for i in ints))


def polys(ctx):
    size = ctx.q**ctx.d
    return st.lists(st.integers(0, size - 1), max_size=5).map(lambda l: poly(ctx, l))


class TestRingBasics:
    def test_twist_rule(self):
        # tau * w = w^2 tau = (w + 1) tau
        lhs = ore_mul(TwistedPoly.tau(F4), TwistedPoly.constant(F4, W))
        assert lhs == TwistedPoly.tau(F4, 1, F4.add(W, F4.one))

    def test_identity(self):
        f = poly(F4, [2, 3, 1])
        assert ore_mul(f, TwistedPoly.one(F4)) == f
        assert ore_mul(TwistedPoly.one(F4), f) == f

    def test_difference_of_squares_with_central_constants(self):
        t = TwistedPoly.tau(F9)
        one = TwistedPoly.one(F9)
        prod = ore_mul(t - one, t + one)
        expected = ore_add(ore_mul(t, t), -one)
        assert prod == expected

    def test_add_zero(self):
        f = poly(F9, [4, 0, 7])
        assert ore_add(f, TwistedPoly.zero(F9)) == f

    def test_scale_zero(self):
        f = poly(F4, [1, 2])
        assert ore_scale(F4.zero, f).is_zero()

    def test_scale_respects_twist(self):
        for c_i in range(1, 4):
            for a_i in range(1, 4):
                c, a = F4.from_int(c_i), F4.from_int(a_i)
                lhs = ore_mul(ore_scale(c, TwistedPoly.tau(F4)), TwistedPoly.constant(F4, a))
                rhs = ore_scale(F4.mul(c, F4.frobenius(a, 1)), TwistedPoly.tau(F4))
                assert lhs == rhs

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatch):
            ore_mul(TwistedPoly.one(F4), TwistedPoly.one(F9))

    def test_degree_additivity(self):
        f, g = poly(F9, [1, 2, 3]), poly(F9, [0, 5])
        assert ore_mul(f, g).tau_degree == f.tau_degree + g.tau_degree

    @settings(max_examples=60, deadline=None)
    @given(polys(F4), polys(F4), polys(F4))
    def test_associativity_and_distributivity_f4(self, f, g, h):
        assert ore_mul(ore_mul(f, g), h) == ore_mul(f, ore_mul(g, h))
        assert ore_mul(f, ore_add(g, h)) == ore_add(ore_mul(f, g), ore_mul(f, h))

    @settings(max_examples=40, deadline=None)
    @given(polys(F9), polys(F9), polys(F9))
    def test_associativity_and_distributivity_f9(self, f, g, h):
        assert ore_mul(ore_mul(f, g), h) == ore_mul(f, ore_mul(g, h))
        assert ore_mul(ore_add(f, g), h) == ore_add(ore_mul(f, h), ore_mul(g, h))


class TestProductOnLogs:
    """`ore_mul_logs` against `ore_mul` on the coordinate path of an untabled
    build of the same field."""

    @pytest.mark.parametrize("p,e,d", [(2, 1, 4), (3, 1, 3), (2, 2, 3), (5, 1, 2), (3, 1, 6)])
    def test_matches_coordinate_product(self, monkeypatch, p, e, d):
        ctx = make_field(p, e, d)
        monkeypatch.setattr(field, "LOG_CAP", 0)
        oracle = field.FieldCtx(p, e, d)
        n, rng = ctx.q**d - 1, random.Random(f"{p}-{e}-{d}")

        def as_poly(logs):
            return TwistedPoly(oracle, [oracle.zero if k is None else ctx._exp[k] for k in logs])

        def draw():
            # few distinct logs, so sums cancel often, in characteristic 2 too
            return [rng.choice((None, 0, ctx._log_neg1, rng.randrange(n))) for _ in range(rng.randrange(6))]

        for _ in range(300):
            f, g = draw(), draw()
            prod = ore_mul_logs(ctx, f, g)
            assert as_poly(prod) == ore_mul(as_poly(f), as_poly(g))
            assert not prod or prod[-1] is not None


class TestEvaluation:
    def test_tau_is_frobenius(self):
        for x in F9.all_elements():
            assert evaluate(TwistedPoly.tau(F9), x) == F9.frobenius(x, 1)

    def test_zero_point(self):
        assert evaluate(poly(F4, [1, 2, 3]), F4.zero) == F4.zero

    def test_tau_plus_one_at_w(self):
        f = ore_add(TwistedPoly.tau(F4), TwistedPoly.one(F4))
        assert evaluate(f, W) == F4.one

    @settings(max_examples=40, deadline=None)
    @given(polys(F4), polys(F4), st.integers(0, 15))
    def test_composition_law(self, f, g, mu_i):
        mu = F4.from_int(mu_i % 4)
        assert evaluate(ore_mul(f, g), mu) == evaluate(f, evaluate(g, mu))

    def test_point_derivation(self):
        assert point_derivation(TwistedPoly.tau(F4, 3)) == F4.zero
        assert point_derivation(TwistedPoly.one(F4)) == F4.one
        c, c2 = F4.from_int(2), F4.from_int(3)
        prod = ore_mul(
            ore_add(TwistedPoly.tau(F4), TwistedPoly.constant(F4, c)),
            ore_add(TwistedPoly.tau(F4), TwistedPoly.constant(F4, c2)),
        )
        assert point_derivation(prod) == F4.mul(c, c2)


class TestLinearAlgebraBridge:
    def test_matrix_of_identity(self):
        mat = linear_matrix(TwistedPoly.one(F4))
        assert mat == ((1, 0), (0, 1))

    def test_matrix_of_zero(self):
        assert linear_matrix(TwistedPoly.zero(F9)) == ((0, 0), (0, 0))

    def test_frobenius_matrix_invertible(self):
        from drinfeld_towers import field, linalg

        ctx = make_field(2, 1, 3)
        mat = linear_matrix(TwistedPoly.tau(ctx))
        red, pivots = linalg.rref(mat, ctx._bops)
        assert len(pivots) == ctx.d

    @settings(max_examples=30, deadline=None)
    @given(polys(F9), polys(F9))
    def test_matrix_is_multiplicative(self, f, g):
        from drinfeld_towers import field, linalg

        mf, mg, mfg = linear_matrix(f), linear_matrix(g), linear_matrix(ore_mul(f, g))
        d = F9.d
        prod = tuple(
            tuple(
                # exact dot product over the base field
                reduce(
                    F9._bops.add,
                    (F9._bops.mul(mf[r][t], mg[t][c]) for t in range(d)),
                    0,
                )
                for c in range(d)
            )
            for r in range(d)
        )
        assert prod == mfg


class TestKernels:
    def test_kernel_of_one(self):
        assert kernel(TwistedPoly.one(F4)).elements() == [F4.zero]

    def test_kernel_of_tau_minus_one(self):
        f = ore_add(TwistedPoly.tau(F9), -TwistedPoly.one(F9))
        ker = kernel(f)
        assert ker.dim == 1
        assert set(ker.elements()) == set(F9.subfield_elements(1))

    def test_kernel_members_evaluate_to_zero(self):
        f = poly(F4, [1, 3, 2])
        for v in kernel(f).elements():
            assert evaluate(f, v) == F4.zero

    def test_kernel_canonical_across_runs(self):
        f = poly(F9, [1, 4, 2])
        assert kernel(f).basis == kernel(poly(F9, [1, 4, 2])).basis

    def test_solve_affine_homogeneous(self):
        f = poly(F4, [1, 1])
        assert solve_affine(f, F4.zero) == kernel(f).elements()

    def test_solve_affine_coset_sizes(self):
        f = poly(F4, [1, 1, 1])
        card = kernel(f).cardinality
        for c in F4.all_elements():
            assert len(solve_affine(f, c)) in (0, card)

    def test_kernel_of_zero_is_whole_field(self):
        ker = kernel(TwistedPoly.zero(F9))
        assert ker.dim == 2
        assert ker.elements() == F9.all_elements()

    def test_solve_affine_one_elimination(self, monkeypatch):
        f = ore_add(TwistedPoly.tau(F9), -TwistedPoly.one(F9))
        mu = F9.from_int(5)
        calls = []
        rref = linalg.rref
        monkeypatch.setattr(linalg, "rref", lambda *a: calls.append(1) or rref(*a))
        sols = solve_affine(f, evaluate(f, mu))
        assert len(calls) == 1
        assert len(sols) == 3 and mu in sols

    def test_solve_affine_zero_map(self):
        zero = TwistedPoly.zero(F9)
        assert solve_affine(zero, F9.zero) == F9.all_elements()
        assert solve_affine(zero, F9.one) == []

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 63), max_size=4), st.integers(0, 63))
    def test_count_affine_is_the_listing_length(self, ints, c_int):
        # oracle: the count read off the ranks is the number of listed solutions
        ctx = make_field(2, 1, 6)
        f, c = poly(ctx, ints), ctx.from_int(c_int)
        assert count_affine(f, c) == len(solve_affine(f, c))

    def test_count_affine_zero_map(self):
        zero = TwistedPoly.zero(F9)
        assert (count_affine(zero, F9.zero), count_affine(zero, F9.one)) == (9, 0)

    def test_subspace_span_and_containment(self):
        s = Subspace.from_vectors(F4, [W])
        assert s.dim == 1 and s.contains(W) and not s.contains(F4.one)


class TestSplittingDegree:
    def test_already_split(self):
        ctx = make_field(2, 1, 1)
        f = ore_add(TwistedPoly.tau(ctx), -TwistedPoly.one(ctx))
        assert splitting_degree(f, 1) == 1

    def test_module_splitting_search(self):
        # -tau^2 + tau + 1 over F_4 gains its full 4-element kernel in degree 6
        f = TwistedPoly(F4, (F4.one, F4.one, F4.neg(F4.one)))
        assert splitting_degree(f, 2) == 6

    def test_full_kernel_returns_current_degree(self):
        f = ore_add(TwistedPoly.tau(F4), -TwistedPoly.one(F4))
        assert splitting_degree(f, 1) == F4.d

    def test_unreachable_target(self, monkeypatch):
        # the search stops at the cap: F_{2^8} is the last ambient tried
        monkeypatch.setenv("DRINFELD_SIZE_CAP", "256")
        f = TwistedPoly(F4, (F4.one, F4.one))
        with pytest.raises(SizeCapExceeded):
            splitting_degree(f, 5)
