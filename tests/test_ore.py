import itertools
import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld_towers import field, linalg, ore
from drinfeld_towers.drinfeld import DrinfeldModule
from drinfeld_towers.errors import ContextMismatch, SizeCapExceeded
from drinfeld_towers.field import make_field
from drinfeld_towers.isogeny import TowerParams, XChain
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
    solve_affine,
    splitting_degree,
)
from drinfeld_towers.towers import iter_rational
from drinfeld_towers.verify import DEFAULT_GRID

F4 = make_field(2, 1, 2)
F9 = make_field(3, 1, 2)
W = F4.from_int(2)


def poly(ctx, ints):
    return TwistedPoly(ctx, tuple(ctx.from_int(i % (ctx.q**ctx.d)) for i in ints))


def tau(ctx, i=1, coeff=None):
    """coeff * tau^i (coeff defaults to 1)."""
    return TwistedPoly(ctx, (ctx.zero,) * i + (ctx.one if coeff is None else coeff,))


def minus_one(ctx):
    return TwistedPoly.constant(ctx, ctx.neg(ctx.one))


def polys(ctx):
    size = ctx.q**ctx.d
    return st.lists(st.integers(0, size - 1), max_size=5).map(lambda l: poly(ctx, l))


class TestRingBasics:
    def test_twist_rule(self):
        # tau * w = w^2 tau = (w + 1) tau
        lhs = ore_mul(tau(F4), TwistedPoly.constant(F4, W))
        assert lhs == tau(F4, 1, F4.add(W, F4.one))

    def test_identity(self):
        f = poly(F4, [2, 3, 1])
        assert ore_mul(f, TwistedPoly.one(F4)) == f
        assert ore_mul(TwistedPoly.one(F4), f) == f

    def test_difference_of_squares_with_central_constants(self):
        t = tau(F9)
        prod = ore_mul(ore_add(t, minus_one(F9)), ore_add(t, TwistedPoly.one(F9)))
        expected = ore_add(ore_mul(t, t), minus_one(F9))
        assert prod == expected

    def test_add_zero(self):
        f = poly(F9, [4, 0, 7])
        assert ore_add(f, TwistedPoly.zero(F9)) == f

    def test_scale_respects_twist(self):
        for c_i in range(1, 4):
            for a_i in range(1, 4):
                c, a = F4.from_int(c_i), F4.from_int(a_i)
                lhs = ore_mul(tau(F4, coeff=c), TwistedPoly.constant(F4, a))
                rhs = tau(F4, coeff=F4.mul(c, F4.frobenius(a, 1)))
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
    build of the same field, one that nothing lists."""

    @pytest.mark.parametrize("p,e,d", [(2, 1, 4), (3, 1, 3), (2, 2, 3), (5, 1, 2), (3, 1, 6)])
    def test_matches_coordinate_product(self, p, e, d):
        ctx = make_field(p, e, d)
        ctx.all_elements()  # tables ctx
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
        assert oracle._log is None


class TestEvaluation:
    def test_tau_is_frobenius(self):
        for x in F9.all_elements():
            assert evaluate(tau(F9), x) == F9.frobenius(x, 1)

    def test_zero_point(self):
        assert evaluate(poly(F4, [1, 2, 3]), F4.zero) == F4.zero

    def test_tau_plus_one_at_w(self):
        f = ore_add(tau(F4), TwistedPoly.one(F4))
        assert evaluate(f, W) == F4.one

    @settings(max_examples=40, deadline=None)
    @given(polys(F4), polys(F4), st.integers(0, 15))
    def test_composition_law(self, f, g, mu_i):
        mu = F4.from_int(mu_i % 4)
        assert evaluate(ore_mul(f, g), mu) == evaluate(f, evaluate(g, mu))

    def test_point_derivation(self):
        assert tau(F4, 3).coeff(0) == F4.zero
        assert TwistedPoly.one(F4).coeff(0) == F4.one
        c, c2 = F4.from_int(2), F4.from_int(3)
        prod = ore_mul(
            ore_add(tau(F4), TwistedPoly.constant(F4, c)),
            ore_add(tau(F4), TwistedPoly.constant(F4, c2)),
        )
        assert prod.coeff(0) == F4.mul(c, c2)


def _matrix_by_evaluation(f):
    """linear_matrix's oracle: column t is f evaluated at the basis vector y^t."""
    return tuple(zip(*(evaluate(f, u) for u in f.ctx.basis)))


class TestLinearAlgebraBridge:
    def test_matrix_of_identity(self):
        mat = linear_matrix(TwistedPoly.one(F4))
        assert mat == ((1, 0), (0, 1))

    def test_matrix_of_zero(self):
        assert linear_matrix(TwistedPoly.zero(F9)) == ((0, 0), (0, 0))

    def test_frobenius_matrix_invertible(self):
        from drinfeld_towers import field, linalg

        ctx = make_field(2, 1, 3)
        mat = linear_matrix(tau(ctx))
        red, pivots = linalg.rref(mat, ctx._bops)
        assert len(pivots) == ctx.d

    @settings(max_examples=30, deadline=None)
    @given(polys(F9), polys(F9))
    def test_matrix_is_multiplicative(self, f, g):
        from drinfeld_towers import field, linalg

        mf, mg, mfg = linear_matrix(f), linear_matrix(g), linear_matrix(ore_mul(f, g))
        # ore_mul(f, g) reaches tau-degree 8 > d, so the cached images wrap mod d
        assert (mf, mg, mfg) == tuple(map(_matrix_by_evaluation, (f, g, ore_mul(f, g))))
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


    # a tabled F_{q^m} (F_{4^3}, swept by verify) and the coordinate F_{4^6}
    @pytest.mark.parametrize("dims", [(2, 2, 3), (2, 2, 6)], ids=str)
    def test_matrix_is_evaluation_at_basis(self, dims):
        # coefficients drawn among 0, 1 and random elements, as in the
        # hyperplane polynomials whose first j coefficients are 1, up to
        # tau-degree 2d + 1
        ctx = make_field(*dims)
        rng = random.Random(str(dims))
        for _ in range(20):
            coeffs = [rng.choice((ctx.zero, ctx.one, ctx.from_int(rng.randrange(ctx.q**ctx.d))))
                      for _ in range(rng.randrange(2 * ctx.d + 2))]
            f = TwistedPoly(ctx, coeffs)
            assert linear_matrix(f) == _matrix_by_evaluation(f)
        assert (ctx._log is None) == (dims == (2, 2, 6))
        assert len(ctx._basis_frob) == ctx.d  # one image of the basis per power mod d
        assert ctx.basis_frobenius(ctx.d + 1) == tuple(ctx.frobenius(u, 1) for u in ctx.basis)


class TestKernels:
    def test_kernel_of_one(self):
        assert kernel(TwistedPoly.one(F4)).elements() == [F4.zero]

    def test_kernel_of_tau_minus_one(self):
        f = ore_add(tau(F9), minus_one(F9))
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
        card = F4.q ** kernel(f).dim
        for c in F4.all_elements():
            assert len(solve_affine(f, c)) in (0, card)

    def test_kernel_of_zero_is_whole_field(self):
        ker = kernel(TwistedPoly.zero(F9))
        assert ker.dim == 2
        assert ker.elements() == F9.all_elements()

    def test_solve_affine_one_elimination(self, monkeypatch):
        f = ore_add(tau(F9), minus_one(F9))
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
        f = ore_add(tau(ctx), minus_one(ctx))
        assert splitting_degree(f) == 1

    def test_module_splitting_search(self):
        # -tau^2 + tau + 1 over F_4 gains its full 4-element kernel in degree 6
        f = TwistedPoly(F4, (F4.one, F4.one, F4.neg(F4.one)))
        assert splitting_degree(f) == 6

    def test_full_kernel_returns_current_degree(self):
        f = ore_add(tau(F4), minus_one(F4))
        assert splitting_degree(f) == F4.d

    def test_unreachable_target(self, monkeypatch):
        # the search stops at the cap: F_{2^8} is the last ambient tried
        monkeypatch.setenv("DRINFELD_SIZE_CAP", "256")
        f = TwistedPoly(F4, (F4.one, F4.one))
        with pytest.raises(SizeCapExceeded):
            _splitting_search(f, 5)


def _splitting_search(f, target_dim: int) -> int:
    """The least multiple D of f's ambient degree at which Ker(f) reaches
    target_dim, by trying the ambients F_{q^d}, F_{q^{2d}}, ... in turn: the
    closed form's oracle, which also takes a partial target."""
    ctx = f.ctx
    D = ctx.d
    while True:
        amb = make_field(ctx.p, ctx.e, D)
        if kernel(f.map_to(amb)).dim == target_dim:
            return D
        D += ctx.d


def _degree_or_cap(search, *args):
    """search(*args), or the message of the SizeCapExceeded it raises."""
    try:
        return search(*args)
    except SizeCapExceeded as exc:
        return str(exc)


def _full_kernel_polys():
    """Polynomials with a nonzero constant term, searched for their full
    kernel: theta's chain composites, phi_T = 1 + g tau^j - tau^m for every g
    of F_{q^m} on the default grid, and random ones over seven small fields."""
    for tup in DEFAULT_GRID:
        params = TowerParams(*tup)
        ctx = params.field(params.m)
        for pt in itertools.islice(iter_rational(params, 2, "F"), 3):
            yield XChain(params, ctx, pt.coords).composite()
        for g in ctx.all_elements():
            yield DrinfeldModule(ctx, params.m, params.j, g).phi_T()
    rng = random.Random(1)
    for p, e, d in [(2, 1, 1), (2, 1, 2), (3, 1, 1), (3, 1, 2), (2, 2, 1), (5, 1, 1), (2, 1, 3)]:
        ctx = make_field(p, e, d)
        size = ctx.q**d
        for _ in range(40):
            r = rng.randint(1, 3)
            inner = [rng.randrange(size) for _ in range(r - 1)]
            yield poly(ctx, [rng.randrange(1, size), *inner, rng.randrange(1, size)])


class TestSplittingClosedForm:
    def test_matches_search(self):
        # the search is the oracle; reversing the product B, or dropping its
        # Frobenius twists, makes some of these disagree
        outcomes = []
        for f in _full_kernel_polys():
            got = _degree_or_cap(splitting_degree, f)
            assert got == _degree_or_cap(_splitting_search, f, f.tau_degree), f
            outcomes.append(got)
        degrees = {d for d in outcomes if isinstance(d, int)}
        assert len(outcomes) == 435 and len(degrees) > 10 and len(degrees) < len(set(outcomes))

    def test_one_kernel_confirms(self, monkeypatch):
        # theta's degree at (2, 1, 2, 1) builds only the ambient it returns
        calls, kernel_ = [], ore.kernel
        monkeypatch.setattr(ore, "kernel", lambda f: calls.append(f.ctx.d) or kernel_(f))
        params = TowerParams(2, 1, 2, 1)
        chain = XChain(params, params.field(2), next(iter_rational(params, 2, "F")).coords)
        assert splitting_degree(chain.composite()) == 4 and calls == [4]

    def test_cap_message_is_the_builds(self, monkeypatch):
        # the closed form stops where the search's next build would be refused
        monkeypatch.setenv("DRINFELD_SIZE_CAP", "32")
        f = TwistedPoly(F4, (F4.one, F4.one, F4.neg(F4.one)))  # splits in degree 6
        with pytest.raises(SizeCapExceeded) as closed:
            splitting_degree(f)
        with pytest.raises(SizeCapExceeded) as searched:
            _splitting_search(f, 2)
        assert str(closed.value) == str(searched.value) == "p^(e*d) = 2^6 exceeds cap 32"

    def test_constant_polynomial(self):
        assert splitting_degree(TwistedPoly.constant(F9, F9.one)) == F9.d
