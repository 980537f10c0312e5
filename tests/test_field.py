import pytest

from drinfeld_towers.errors import (
    DegreeNotDividing,
    DivisionByZero,
    NotPrime,
    SizeCapExceeded,
)
from drinfeld_towers.field import FieldCtx, embed, make_field, poly_mod, poly_mul


@pytest.fixture
def f4():
    return make_field(2, 1, 2)


@pytest.fixture
def f9():
    return make_field(3, 1, 2)


class TestConstruction:
    def test_f2_trivial_extension(self):
        ctx = make_field(2, 1, 1)
        assert ctx.q == 2 and ctx.d == 1
        assert ctx.all_elements() == [ctx.zero, ctx.one]

    def test_f4_modulus_is_unique_irreducible_quadratic(self, f4):
        # w^2 + w + 1
        assert f4.ext_modulus == (1, 1, 1)

    def test_f9_modulus_is_least_irreducible_quadratic(self, f9):
        # y^2 + 1 precedes y^2 + y + 2 etc. in the canonical order
        assert f9.ext_modulus == (1, 0, 1)

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            make_field(6, 1, 1)

    def test_size_cap(self):
        with pytest.raises(SizeCapExceeded):
            make_field(2, 1, 64)

    def test_determinism_of_independent_builds(self):
        a = FieldCtx(3, 2, 3)
        b = FieldCtx(3, 2, 3)
        assert a.base_modulus == b.base_modulus
        assert a.ext_modulus == b.ext_modulus
        assert [a.to_int(x) for x in a.all_elements()] == [
            b.to_int(x) for x in b.all_elements()
        ]


class TestArithmetic:
    def test_w_squared(self, f4):
        w = f4.from_int(2)
        assert f4.mul(w, w) == f4.add(w, f4.one)

    def test_w_cubed_is_one(self, f4):
        w = f4.from_int(2)
        assert f4.pow(w, 3) == f4.one

    def test_inverse_everywhere(self, f9):
        for x in f9.all_elements():
            if x == f9.zero:
                continue
            assert f9.mul(x, f9.inv(x)) == f9.one

    def test_inv_zero(self, f4):
        with pytest.raises(DivisionByZero):
            f4.inv(f4.zero)

    def test_fermat(self):
        ctx = make_field(2, 1, 4)
        for x in ctx.all_elements():
            assert ctx.pow(x, ctx.q**ctx.d) == x

    def test_negative_exponent(self, f9):
        for x in f9.all_elements():
            if x != f9.zero:
                assert f9.pow(x, -1) == f9.inv(x)


class TestFrobenius:
    def test_frobenius_of_w(self, f4):
        w = f4.from_int(2)
        assert f4.frobenius(w, 1) == f4.add(w, f4.one)
        assert f4.frobenius(w, 2) == w

    def test_frobenius_of_zero(self, f9):
        assert f9.frobenius(f9.zero, 3) == f9.zero

    def test_frobenius_is_field_automorphism(self):
        ctx = make_field(2, 2, 2)
        els = ctx.all_elements()
        for x in els:
            for y in els:
                assert ctx.frobenius(ctx.mul(x, y), 1) == ctx.mul(
                    ctx.frobenius(x, 1), ctx.frobenius(y, 1)
                )
                assert ctx.frobenius(ctx.add(x, y), 1) == ctx.add(
                    ctx.frobenius(x, 1), ctx.frobenius(y, 1)
                )

    @pytest.mark.parametrize("p,e,d", [(2, 1, 4), (3, 1, 3), (2, 2, 3)])
    def test_frobenius_matches_pow(self, p, e, d):
        # i runs past d, where x^{q^d} = x wraps the iteration count
        ctx = make_field(p, e, d)
        for x in ctx.all_elements():
            for i in range(2 * d + 1):
                assert ctx.frobenius(x, i) == ctx.pow(x, ctx.q**i)

    def test_mul_matches_poly_mod(self):
        # oracle for the precomputed reductions of y^{d+i}
        ctx = make_field(2, 2, 3)
        els = ctx.all_elements()
        for x in els:
            for y in els:
                prod = poly_mod(poly_mul(x, y, ctx._bops), ctx.ext_modulus, ctx._bops)
                assert ctx.mul(x, y) == ctx.element(prod)


class TestTraceAndSubfields:
    def test_trace_single_summand(self, f9):
        for x in f9.all_elements():
            assert f9.trace_partial(x, 1) == x

    def test_trace_of_w(self, f4):
        w = f4.from_int(2)
        assert f4.trace_partial(w, 2) == f4.one

    def test_trace_of_zero(self, f4):
        assert f4.trace_partial(f4.zero, 2) == f4.zero

    def test_full_trace_lands_in_base(self):
        ctx = make_field(2, 1, 4)
        for x in ctx.all_elements():
            t = ctx.trace_partial(x, ctx.d)
            assert ctx.in_subfield(t, 1)

    def test_in_subfield_one(self, f4):
        assert f4.in_subfield(f4.one, 1)
        assert f4.in_subfield(f4.one, 2)

    def test_generator_not_in_proper_subfield(self):
        ctx = make_field(2, 1, 4)
        gens = [
            x
            for x in ctx.all_elements()
            if x != ctx.zero and not ctx.in_subfield(x, 2) and not ctx.in_subfield(x, 1)
        ]
        assert gens  # multiplicative generators exist and are detected

    def test_whole_field_membership(self, f9):
        for x in f9.all_elements():
            assert f9.in_subfield(x, f9.d)

    def test_non_divisor_rejected(self, f4):
        with pytest.raises(DegreeNotDividing):
            f4.in_subfield(f4.one, 3)

    def test_subfield_elements_prime_field(self, f4):
        assert f4.subfield_elements(1) == [f4.zero, f4.one]

    def test_subfield_cardinality(self):
        ctx = make_field(2, 1, 4)
        assert len(ctx.subfield_elements(2)) == 4
        assert ctx.subfield_elements(4) == ctx.all_elements()


class TestTextForm:
    def test_w_format(self, f4):
        w = f4.from_int(2)
        assert f4.format_elem(w) == "[0,1]"
        assert f4.parse_elem("[0,1]") == w

    def test_roundtrip(self, f9):
        for x in f9.all_elements():
            assert f9.parse_elem(f9.format_elem(x)) == x


class TestEmbedding:
    def test_embed_preserves_arithmetic(self):
        src = make_field(2, 1, 2)
        dst = make_field(2, 1, 4)
        for x in src.all_elements():
            for y in src.all_elements():
                assert embed(src.mul(x, y), src, dst) == dst.mul(
                    embed(x, src, dst), embed(y, src, dst)
                )

    def test_embedded_image_is_the_subfield(self):
        src = make_field(3, 1, 2)
        dst = make_field(3, 1, 4)
        image = {embed(x, src, dst) for x in src.all_elements()}
        assert image == set(dst.subfield_elements(2))
