import functools
import json
import operator
import random
import sys
import time

import pytest

from drinfeld_towers import field, linalg, towers
from drinfeld_towers.errors import (
    DegreeNotDividing,
    DivisionByZero,
    NotPrime,
    SizeCapExceeded,
)
from drinfeld_towers.field import (
    FieldCtx,
    _BaseOps,
    _is_irreducible,
    _poly_from_index,
    embed,
    least_irreducible,
    make_field,
    poly_inv_mod,
    poly_mod,
    poly_mul,
)
from drinfeld_towers.isogeny import TowerParams
from drinfeld_towers.towers import enumerate_rational
from drinfeld_towers.verify import run_suite


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

    def test_is_prime_matches_trial_division(self):
        for n in range(10**5):
            assert field.is_prime(n) == (n >= 2 and field._prime_factors(n) == [n])

    @pytest.mark.parametrize(
        "n,prime",
        [
            (561, False),  # a Carmichael number
            (3_215_031_751, False),  # a strong pseudoprime to 2, 3, 5 and 7
            (399_165_290_221 * 798_330_580_441, False),  # psi_12: fools every base up to 37
            (2**61 - 1, True),
            (10**24 + 7, True),
            (3_317_044_064_679_887_385_961_979, False),  # psi_13 - 2, which 17 divides
        ],
    )
    def test_is_prime_values(self, n, prime):
        assert field.is_prime(n) == prime

    @pytest.mark.parametrize("n", [1_287_836_182_261 * 2_575_672_364_521, 10**30 + 57])
    def test_is_prime_refuses_from_psi13_on(self, n):
        # psi_13 is a strong pseudoprime to every base up to 41: from it on
        # the test would not be exact, so it answers neither way
        with pytest.raises(SizeCapExceeded):
            field.is_prime(n)

    def test_size_cap(self):
        with pytest.raises(SizeCapExceeded):
            make_field(2, 1, 64)

    def test_enumeration_cap(self):
        # F_{2^17} is under the size cap but too large to list
        with pytest.raises(SizeCapExceeded):
            make_field(2, 1, 17).all_elements()

    def test_determinism_of_independent_builds(self):
        a = FieldCtx(3, 2, 3)
        b = FieldCtx(3, 2, 3)
        assert a.base_modulus == b.base_modulus
        assert a.ext_modulus == b.ext_modulus
        assert [a.to_int(x) for x in a.all_elements()] == [
            b.to_int(x) for x in b.all_elements()
        ]


def _trial_division_irreducible(f, ops):
    """Oracle: no monic divisor of degree 1..deg/2, found by dividing by each."""
    deg = len(f) - 1
    if deg <= 0:
        return False
    for t in range(1, deg // 2 + 1):
        for idx in range(ops.size**t):
            if not poly_mod(f, _poly_from_index(idx, t, ops.size), ops):
                return False
    return True


class TestIrreducibility:
    @pytest.mark.parametrize("p,e,max_deg", [(2, 1, 5), (3, 1, 4), (5, 1, 3), (2, 2, 3), (3, 2, 3)])
    def test_ben_or_matches_trial_division(self, p, e, max_deg):
        ops = _BaseOps(p, e)
        assert not _is_irreducible((), ops)
        for deg in range(max_deg + 1):  # degree 0 is the constant 1
            for idx in range(ops.size**deg):
                f = _poly_from_index(idx, deg, ops.size)
                assert _is_irreducible(f, ops) == _trial_division_irreducible(f, ops), f

    # the moduli trial division chose; every element encoding depends on them
    @pytest.mark.parametrize(
        "p,e,d,modulus",
        [
            (2, 1, 2, (1, 1, 1)),
            (2, 1, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1)),
            (2, 1, 10, (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1)),
            (3, 1, 6, (2, 1, 0, 0, 0, 0, 1)),
            (3, 1, 9, (1, 0, 1, 2, 0, 0, 0, 0, 0, 1)),
            (5, 1, 6, (2, 1, 0, 0, 0, 0, 1)),
            (5, 1, 8, (2, 0, 0, 0, 0, 0, 0, 0, 1)),
            (5, 1, 10, (3, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1)),
            (7, 1, 6, (2, 0, 0, 0, 0, 0, 1)),
            (2, 2, 4, (1, 2, 1, 0, 1)),
            (2, 2, 6, (2, 1, 1, 0, 0, 0, 1)),
            (2, 2, 12, (1, 2, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1)),
            (2, 3, 4, (1, 1, 0, 0, 1)),
            (3, 2, 4, (4, 0, 0, 0, 1)),
            (5, 2, 3, (6, 0, 0, 1)),
        ],
    )
    def test_least_irreducible_pinned(self, p, e, d, modulus):
        assert least_irreducible(d, _BaseOps(p, e)) == modulus

    # h of F_q = F_p[x]/(h), which `_BaseOps` takes from the field F_{p^e}
    @pytest.mark.parametrize(
        "p,e,modulus",
        [
            (2, 2, (1, 1, 1)),
            (2, 3, (1, 1, 0, 1)),
            (2, 4, (1, 1, 0, 0, 1)),
            (3, 2, (1, 0, 1)),
            (3, 3, (1, 2, 0, 1)),
            (5, 2, (2, 0, 1)),
        ],
    )
    def test_base_modulus_pinned(self, p, e, modulus):
        assert FieldCtx(p, e, 1).base_modulus == FieldCtx(p, 1, e).ext_modulus == modulus

    # moduli of builds up to the size cap and of every build the four
    # perfbench workloads make (those pinned above are not repeated), as
    # chosen when a root scan by Horner ran before Ben-Or's first gcd
    @pytest.mark.parametrize(
        "p,e,d,modulus",
        [
            (2, 1, 26, (1, 1, 0, 1, 1) + (0,) * 21 + (1,)),
            (3, 1, 16, (1, 0, 1, 1) + (0,) * 12 + (1,)),
            (5, 1, 11, (1, 2) + (0,) * 9 + (1,)),
            (2, 4, 4, (4, 2, 1, 0, 1)),
            (257, 1, 3, (1, 1, 0, 1)),
            (8191, 1, 2, (1, 0, 1)),
            (5, 2, 5, (5, 1, 0, 0, 0, 1)),
            (2, 1, 3, (1, 1, 0, 1)),
            (2, 1, 4, (1, 1, 0, 0, 1)),
            (2, 1, 6, (1, 1, 0, 0, 0, 0, 1)),
            (2, 2, 3, (2, 0, 0, 1)),
            (3, 1, 2, (1, 0, 1)),
            (3, 1, 3, (1, 2, 0, 1)),
            (3, 1, 4, (2, 1, 0, 0, 1)),
            (3, 1, 8, (2, 0, 1, 0, 0, 0, 0, 0, 1)),
            (5, 1, 2, (2, 0, 1)),
            (5, 1, 3, (1, 1, 0, 1)),
            (5, 1, 4, (2, 0, 0, 0, 1)),
        ],
    )
    def test_moduli_without_root_scan(self, p, e, d, modulus):
        assert least_irreducible(d, _BaseOps(p, e)) == modulus

    def test_large_base_quadratic_builds_fast(self, capsys, monkeypatch):
        # over F_8192 every y^2 + c has a root; scanning for it point by point
        # took ~29 s before y^2 + y + 1, and the command's count waited for it
        from drinfeld_towers.cli import main

        monkeypatch.delenv("DRINFELD_SIZE_CAP", raising=False)
        start = time.perf_counter()
        assert main(["ss-count", "--p", "2", "--e", "13", "--m", "2", "--j", "1", "--n", "2"]) == 0
        assert time.perf_counter() - start < 6
        assert make_field(2, 13, 2).ext_modulus == (1, 1, 1)
        rec = json.loads(capsys.readouterr().out)
        assert rec["match"] and rec["enumerated"] == (8192**2 - 1) * 8192

    def test_search_makes_few_divisions(self, monkeypatch):
        # trial division makes 4,657 divisions here
        calls = []
        divmod_ = field.poly_divmod

        def counting_divmod(a, b, ops):
            calls.append(b)
            return divmod_(a, b, ops)

        monkeypatch.setattr(field, "poly_divmod", counting_divmod)
        modulus = least_irreducible(10, _BaseOps(5, 1))
        assert modulus == (3, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1)
        assert len(calls) < 1000


class TestArithmetic:
    def test_w_squared(self, f4):
        w = f4.from_int(2)
        assert f4.mul(w, w) == f4.add(w, f4.one)

    def test_w_cubed_is_one(self, f4):
        w = f4.from_int(2)
        assert f4.pow(w, 3) == f4.one

    # e > 1 covers the shared extended Euclid at both levels, F_q and F_{q^d}
    @pytest.mark.parametrize("p,e,d", [(3, 1, 2), (2, 2, 3), (3, 2, 2)])
    def test_inverse_everywhere(self, p, e, d):
        ctx = make_field(p, e, d)
        for x in ctx.all_elements():
            if x == ctx.zero:
                continue
            assert ctx.mul(x, ctx.inv(x)) == ctx.one

    def test_inv_zero(self, f4):
        with pytest.raises(DivisionByZero):
            f4.inv(f4.zero)

    @staticmethod
    def _count_euclids(monkeypatch, ctx) -> int:
        calls = []
        inv_mod = field.poly_inv_mod
        monkeypatch.setattr(field, "poly_inv_mod", lambda *a: calls.append(a) or inv_mod(*a))
        nonzero = [x for x in ctx.all_elements() if x != ctx.zero]
        for _ in range(2):
            for x in nonzero:
                ctx.inv(x)
        for _ in range(2):
            with pytest.raises(DivisionByZero):
                ctx.inv(ctx.zero)
        return len(calls)

    def test_inverse_once_per_element(self, monkeypatch):
        # a fresh context above LOG_CAP, so no other test has warmed its cache
        ctx = FieldCtx(2, 1, 11)
        assert self._count_euclids(monkeypatch, ctx) == ctx.q**ctx.d - 1

    def test_logged_inverse_needs_no_euclid(self, monkeypatch):
        assert self._count_euclids(monkeypatch, FieldCtx(3, 1, 3)) == 0

    def test_fermat(self):
        ctx = make_field(2, 1, 4)
        for x in ctx.all_elements():
            assert ctx.pow(x, ctx.q**ctx.d) == x

    def test_negative_exponent(self, f9):
        for x in f9.all_elements():
            if x != f9.zero:
                assert f9.pow(x, -1) == f9.inv(x)

    @pytest.mark.parametrize("p,e,d", [(2, 1, 4), (2, 2, 3)])
    def test_pow_matches_repeated_multiplication(self, p, e, d):
        ctx = make_field(p, e, d)
        for x in ctx.all_elements():
            acc = ctx.one
            for n in range(41):
                assert ctx.pow(x, n) == acc
                acc = ctx.mul(acc, x)
            if x == ctx.zero:
                continue
            acc, x_inv = ctx.one, ctx.inv(x)
            for n in range(4):
                assert ctx.pow(x, -n) == acc
                acc = ctx.mul(acc, x_inv)

    @staticmethod
    def _pow_two_power_muls(monkeypatch, ctx) -> list:
        """Coordinate multiplies made by ctx.pow(x, 2^k) for k = 0..6."""
        calls = []
        mul = FieldCtx.mul

        def counting_mul(self, x, y):
            calls.append(1)
            return mul(self, x, y)

        monkeypatch.setattr(FieldCtx, "mul", counting_mul)
        x = ctx.from_int(7)
        counts = []
        for k in range(7):
            calls.clear()
            ctx.pow(x, 2**k)
            counts.append(len(calls))
        return counts

    def test_pow_of_two_power_only_squares(self, monkeypatch):
        # F_{4^6} is above LOG_CAP; a fresh build, since a verify sweep tables
        # the cached one
        assert self._pow_two_power_muls(monkeypatch, FieldCtx(2, 2, 6)) == list(range(7))

    def test_logged_pow_needs_no_multiply(self, monkeypatch):
        assert self._pow_two_power_muls(monkeypatch, make_field(2, 2, 3)) == [0] * 7


def _digits(a, p, e):
    return [a // p**i % p for i in range(e)]


def _undigits(ds, p):
    return sum(c * p**i for i, c in enumerate(ds))


def _schoolbook_mul(a, b, p, e, h):
    """a*b in F_p[x]/(h) on base-p digits, h monic of degree e."""
    prod = [0] * (2 * e - 1)
    for i, x in enumerate(_digits(a, p, e)):
        for j, y in enumerate(_digits(b, p, e)):
            prod[i + j] = (prod[i + j] + x * y) % p
    for k in range(2 * e - 2, e - 1, -1):
        c = prod[k]
        for t in range(e + 1):
            prod[k - e + t] = (prod[k - e + t] - c * h[t]) % p
    return _undigits(prod[:e], p)


class TestBaseField:
    """F_q = F_p[x]/(h) against digit arithmetic written out here."""

    @pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (2, 5), (3, 3)])
    def test_ops_match_digit_oracle(self, p, e):
        ctx = make_field(p, e, 1)
        assert _base_tabled(ctx._bops) == (p == 2)  # only F_{2^e} on tables
        self._match_digit_oracle(ctx._bops, ctx.base_modulus)

    @pytest.mark.parametrize("p,e", [(2, 3), (2, 4)])
    def test_cached_formulas_match_digit_oracle(self, monkeypatch, p, e):
        monkeypatch.setattr(field, "LOG_CAP", 0)
        ops = _BaseOps(p, e)
        assert not _base_tabled(ops)
        assert ops.add is ops.sub is operator.xor  # XOR with or without tables
        self._match_digit_oracle(ops, ops.modulus)

    @staticmethod
    def _match_digit_oracle(ops, h):
        p, e, q = ops.p, ops.e, ops.size
        for b in range(q):
            # the operands whose log is the zero sentinel
            assert ops.mul(0, b) == ops.mul(b, 0) == 0
            assert ops.add(0, b) == ops.add(b, 0) == ops.sub(b, 0) == b
            assert ops.sub(0, b) == ops.neg(b)
        table = {}
        for a in range(q):
            da = _digits(a, p, e)
            assert ops.neg(a) == _undigits([-x % p for x in da], p)
            for b in range(q):
                db = _digits(b, p, e)
                assert ops.add(a, b) == _undigits([(x + y) % p for x, y in zip(da, db)], p)
                assert ops.sub(a, b) == _undigits([(x - y) % p for x, y in zip(da, db)], p)
                table[a, b] = _schoolbook_mul(a, b, p, e, h)
                assert ops.mul(a, b) == table[a, b]
        for a in range(1, q):
            assert [b for b in range(q) if table[a, b] == 1] == [ops.inv(a)]

    def test_inv_zero_raises_every_time(self):
        ops = make_field(2, 2, 1)._bops
        for _ in range(2):
            with pytest.raises(DivisionByZero):
                ops.inv(0)

    def test_digit_work_once_per_argument_tuple(self, monkeypatch):
        # the work of F_q's operations is done in the field F_{p^e}, which
        # unpacks every int argument with its from_int
        calls = []
        from_int = FieldCtx.from_int

        def counting_from_int(self, v):
            calls.append((self.p, self.e, self.d))
            return from_int(self, v)

        monkeypatch.setattr(FieldCtx, "from_int", counting_from_int)
        # fresh contexts, so no other test has warmed their caches, counted
        # from their build, where a tabled F_{q^d} makes all its F_q calls;
        # for p = 2 add and sub are XOR, so F_{9^2} is the one whose
        # add/sub/neg use F_q
        for p, e, d in ((2, 2, 3), (3, 2, 2)):
            calls.clear()
            ctx = FieldCtx(p, e, d)
            els = ctx.all_elements()
            for _ in range(2):
                for x in els:
                    for y in els:
                        ctx.mul(x, y)
                        ctx.add(x, y)
                        ctx.sub(x, y)
                    ctx.neg(x)
                    if x != ctx.zero:
                        ctx.inv(x)
            # at most two unpacks per (add, sub, neg, mul, inv) argument tuple,
            # and some wherever F_q runs on its cached operations
            unpacks = calls.count((ctx.p, 1, ctx.e))
            assert unpacks <= 2 * 5 * ctx.q**2
            assert unpacks > 0 or _base_tabled(ctx._bops)

    def test_digit_work_once_per_argument_tuple_without_tables(self, monkeypatch):
        # the same bound with every table off, so that F_{2^e} too runs on
        # its cached operations and the extension fields on coordinates
        monkeypatch.setattr(field, "LOG_CAP", 0)
        self.test_digit_work_once_per_argument_tuple(monkeypatch)


class TestAddition:
    """add/sub/neg against the per-coordinate F_q operations, on the Zech table
    path and, with LOG_CAP patched to 0, on the coordinate path."""

    @staticmethod
    def _ctx(monkeypatch, p, e, d, tabled):
        if not tabled:
            monkeypatch.setattr(field, "LOG_CAP", 0)
        ctx = FieldCtx(p, e, d)  # a fresh build, so the patched cap applies
        assert (ctx._log is not None) == tabled
        return ctx

    @staticmethod
    def _check(ctx, x, y):
        ops = ctx._bops
        assert ctx.add(x, y) == tuple(ops.add(a, b) for a, b in zip(x, y))
        assert ctx.sub(x, y) == tuple(ops.sub(a, b) for a, b in zip(x, y))
        assert ctx.neg(x) == tuple(ops.neg(a) for a in x)

    # e = 1 with p odd (ints mod p; -1 = g^{n/2}), p = 2 with e > 1 (XOR),
    # e = 1 with p = 2, and a field whose generator is y + c
    EVERY_PAIR = [(3, 1, 3), (2, 2, 3), (2, 1, 6), (5, 1, 3)]

    @pytest.mark.parametrize("p,e,d", EVERY_PAIR)
    def test_every_pair(self, monkeypatch, p, e, d):
        self._every_pair(self._ctx(monkeypatch, p, e, d, True))

    @pytest.mark.parametrize("p,e,d", EVERY_PAIR)
    def test_every_pair_on_coordinates(self, monkeypatch, p, e, d):
        self._every_pair(self._ctx(monkeypatch, p, e, d, False))

    def _every_pair(self, ctx):
        els = ctx.all_elements()
        for x in els:
            for y in els:
                self._check(ctx, x, y)

    @pytest.mark.parametrize("tabled", [True, False], ids=["zech", "coords"])
    @pytest.mark.parametrize("p,e,d", [(3, 1, 3), (2, 2, 3), (3, 2, 2), (5, 1, 1)])
    def test_cancellation_and_zero(self, monkeypatch, p, e, d, tabled):
        # the cases where the Zech table holds None or an operand has no log
        ctx = self._ctx(monkeypatch, p, e, d, tabled)
        zero = ctx.zero
        assert ctx.add(zero, zero) == ctx.sub(zero, zero) == ctx.neg(zero) == zero
        for x in ctx.all_elements():
            assert ctx.add(x, ctx.neg(x)) == ctx.add(ctx.neg(x), x) == zero
            assert ctx.sub(x, x) == zero
            assert ctx.add(x, zero) == ctx.add(zero, x) == ctx.sub(x, zero) == x
            assert ctx.sub(zero, x) == ctx.neg(x)
            assert ctx.neg(ctx.neg(x)) == x

    def test_sample_odd_extension(self):
        ctx = make_field(3, 2, 2)
        els = ctx.all_elements()
        rng = random.Random(2)
        for _ in range(2000):
            self._check(ctx, rng.choice(els), rng.choice(els))


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

    # the same oracle on both e = 1 paths of the coordinate `mul`, above the cap:
    # F_{3^8} and F_{5^10} pack the coordinates into bytes, and in F_{17^2}
    # d (p-1)^2 >= 256 rules bytes out
    @pytest.mark.parametrize("p,e,d", [(3, 1, 8), (5, 1, 10), (17, 1, 2)])
    def test_mul_coords_matches_poly_mod(self, p, e, d):
        ctx = make_field(p, e, d)
        rng = random.Random(3)
        size = ctx.q**d
        full = ctx.from_int(size - 1)  # every coefficient q - 1: the largest sums
        pairs = [(full, full)] + [
            tuple(ctx.from_int(rng.randrange(size)) for _ in range(2)) for _ in range(1500)
        ]
        for x, y in pairs:
            prod = poly_mod(poly_mul(x, y, ctx._bops), ctx.ext_modulus, ctx._bops)
            assert FieldCtx.mul(ctx, x, y) == ctx.element(prod)
        for x, _ in pairs[:60]:
            for i in range(d):
                assert FieldCtx.frobenius(ctx, x, i) == FieldCtx.pow(ctx, x, ctx.q**i)


class TestNonPrimeBaseCoordinates:
    """The coordinate path over F_q with e > 1: `FieldCtx.mul` against
    poly_mod(poly_mul(...)) and `FieldCtx.frobenius(x, i)` against
    `FieldCtx.pow(x, q^i)`, with F_q on tables (LOG_CAP patched to q) and on
    its cached operations (LOG_CAP patched to 0).  Only F_{2^e} has tables."""

    @pytest.mark.parametrize(
        "p,e,d,base_tables",
        [(2, 2, 6, True), (2, 3, 3, True), (2, 2, 6, False), (2, 3, 3, False), (3, 2, 3, False), (5, 2, 2, False)],
    )
    def test_against_oracles(self, monkeypatch, p, e, d, base_tables):
        monkeypatch.setattr(field, "LOG_CAP", p**e if base_tables else 0)
        ctx = FieldCtx(p, e, d)  # a fresh build, so the patched cap applies
        assert ctx._log is None and _base_tabled(ctx._bops) == base_tables
        rng = random.Random(5)
        size = ctx.q**d
        full = ctx.from_int(size - 1)
        els = [ctx.zero, ctx.one, full] + [ctx.from_int(rng.randrange(size)) for _ in range(150)]
        for x, y in zip(els, els[1:] + els[:1]):
            prod = poly_mod(poly_mul(x, y, ctx._bops), ctx.ext_modulus, ctx._bops)
            assert FieldCtx.mul(ctx, x, y) == ctx.element(prod)
        for x in els[:40]:
            for i in range(d):
                assert FieldCtx.frobenius(ctx, x, i) == FieldCtx.pow(ctx, x, ctx.q**i)

    def test_f4_base_on_tables(self):
        # F_{4^6} is above LOG_CAP and F_4 is not: the coordinate loops run
        # on F_4's log/antilog lookups and XOR, not on the cached operations
        ops = make_field(2, 2, 6)._bops
        assert _base_tabled(ops)
        assert not any(hasattr(getattr(ops, name), "cache_info") for name in ("add", "sub", "neg", "mul", "inv"))


class TestCombine:
    """`_BaseOps.combine` against a per-term sum of F_q's add and mul."""

    # F_3 and F_17 sum past p before their one reduction; F_4 on tables;
    # F_8 with LOG_CAP patched to 0 adds by XOR and multiplies by a cached
    # operation; F_9 runs on cached operations
    @pytest.mark.parametrize("p,e,cap", [(3, 1, None), (17, 1, None), (2, 2, None), (2, 3, 0), (3, 2, 0)])
    def test_matches_per_term_sum(self, monkeypatch, p, e, cap):
        if cap is not None:
            monkeypatch.setattr(field, "LOG_CAP", cap)
        ops = _BaseOps(p, e)
        q, n = ops.size, 5
        rng = random.Random(7)
        for _ in range(300):
            acc = [rng.randrange(q) for _ in range(n)]
            coeffs = [rng.choice([0, q - 1, rng.randrange(q)]) for _ in range(n)]
            rows = [
                tuple((t, rng.randrange(1, q)) for t in sorted(rng.sample(range(n), rng.randrange(n + 1))))
                for _ in range(n)
            ]
            want = list(acc)
            for c, row in zip(coeffs, rows):
                for t, r in row:
                    want[t] = ops.add(want[t], ops.mul(c, r))
            assert ops.combine(acc, coeffs, rows) == tuple(want)


def _base_tabled(ops):
    """F_q multiplies on its tables rather than by a cached operation.  Every
    F_{2^e} adds by XOR, tabled or not, so addition cannot tell them apart."""
    return ops.e > 1 and not hasattr(ops.mul, "cache_info")


def _check_log_keys(ctx, els):
    """The log table has every element as a key, and only zero maps to None."""
    assert set(ctx._log) == set(els) and len(els) == ctx.q**ctx.d
    assert [x for x, k in ctx._log.items() if k is None] == [ctx.zero]


class TestLogTables:
    """The table path, bound on the instance, against the coordinate
    arithmetic of the class methods it is built with."""

    @pytest.mark.parametrize("p,e,d", [(2, 2, 3), (3, 1, 3), (2, 1, 6), (5, 1, 3)])
    def test_matches_coordinate_path(self, p, e, d):
        ctx = make_field(p, e, d)
        size = ctx.q**ctx.d
        els = ctx.all_elements()
        _check_log_keys(ctx, els)  # g generates every unit
        assert {"add", "neg", "mul", "inv", "pow", "frobenius"} <= vars(ctx).keys()
        for x in els:
            for y in els:
                assert ctx.mul(x, y) == FieldCtx.mul(ctx, x, y)
                assert ctx.add(x, y) == FieldCtx.add(ctx, x, y)
                assert ctx.sub(x, y) == FieldCtx.add(ctx, x, FieldCtx.neg(ctx, y))
            assert ctx.neg(x) == FieldCtx.neg(ctx, x)
            for i in range(-d, 2 * d):
                assert ctx.frobenius(x, i) == FieldCtx.frobenius(ctx, x, i)
            for n in range(2 * size + 1):
                assert ctx.pow(x, n) == FieldCtx.pow(ctx, x, n)
            if x == ctx.zero:
                continue
            x_inv = ctx._pad(poly_inv_mod(x, ctx.ext_modulus, ctx._bops))
            assert ctx.inv(x) == FieldCtx.inv(ctx, x) == x_inv
            for n in range(1, 4):
                assert ctx.pow(x, -n) == FieldCtx.pow(ctx, x_inv, n)
        for pow_ in (ctx.pow, functools.partial(FieldCtx.pow, ctx)):
            with pytest.raises(DivisionByZero):
                pow_(ctx.zero, -1)

    def test_zero(self):
        ctx = make_field(2, 2, 3)
        for _ in range(2):
            with pytest.raises(DivisionByZero):
                ctx.pow(ctx.zero, -1)
        assert ctx.pow(ctx.zero, 0) == ctx.one
        assert ctx.pow(ctx.zero, 5) == ctx.zero

    def test_largest_logged_field(self):
        ctx = make_field(2, 1, 10)
        assert field.LOG_CAP == 2**10
        _check_log_keys(ctx, ctx.all_elements())
        rng = random.Random(1)
        for _ in range(2000):
            x, y = ctx.from_int(rng.randrange(2**10)), ctx.from_int(rng.randrange(2**10))
            assert ctx.mul(x, y) == FieldCtx.mul(ctx, x, y)
            i = rng.randrange(ctx.d)
            assert ctx.frobenius(x, i) == FieldCtx.frobenius(ctx, x, i)

    # the exp table is stepped by x -> x g; check it against powers of g made
    # by the coordinate multiply, for g = y, for g = y + c with c != 0, and for
    # F_{2^9}, where no y + c is primitive and g is y^2 + y + 1
    @pytest.mark.parametrize(
        "p,e,d,g",
        [
            (3, 1, 6, (0, 1, 0, 0, 0, 0)),
            (5, 1, 3, (4, 1, 0)),
            (2, 1, 9, (1, 1, 1, 0, 0, 0, 0, 0, 0)),
        ],
    )
    def test_exp_table_is_powers_of_g(self, p, e, d, g):
        ctx = make_field(p, e, d)
        n = ctx.q**d - 1
        assert ctx._exp[1] == g and len(ctx._exp) == 2 * n
        for k in range(2 * n):
            assert ctx._exp[k] == FieldCtx.pow(ctx, g, k % n)

    def test_build_multiplies_only_to_test_primitivity(self, monkeypatch):
        # F_{3^6}: g = y passes the test x^{728/r} != 1 for r = 2, 7, 13, and
        # each exp entry is a shift and one fold, with no coordinate multiply
        calls = []
        mul = FieldCtx.mul

        def counting_mul(self, x, y):
            calls.append(1)
            return mul(self, x, y)

        monkeypatch.setattr(FieldCtx, "mul", counting_mul)
        FieldCtx(3, 1, 6)
        # square-and-multiply makes (bits - 1) squarings and (ones - 1) multiplies
        exps = (728 // 2, 728 // 7, 728 // 13)
        assert len(calls) == sum(k.bit_length() + bin(k).count("1") - 2 for k in exps)

    @pytest.mark.parametrize("p,e,d", [(3, 1, 6), (5, 1, 3)])
    def test_cheap_step_for_y_plus_c(self, monkeypatch, p, e, d):
        # with g = y or g = y + c no exp entry is a coordinate multiply: every
        # call comes from the powers of the primitivity test
        callers = []
        mul = FieldCtx.mul

        def recording_mul(self, x, y):
            callers.append(sys._getframe(1).f_code.co_name)
            return mul(self, x, y)

        monkeypatch.setattr(FieldCtx, "mul", recording_mul)
        FieldCtx(p, e, d)
        assert set(callers) == {"pow"}

    def test_tabled_suite_adds_no_coordinates(self, monkeypatch):
        # every field lemma1_6 builds at (3,1,3,2) is tabled: F_{3^3} and F_{3^6}.
        # They are built before counting, since a build tests primitivity by
        # coordinate powers
        for d in (3, 6):
            make_field(3, 1, d)
        calls = []
        for name in ("add", "mul"):
            op = getattr(FieldCtx, name)
            monkeypatch.setattr(FieldCtx, name, lambda *a, op=op: calls.append(1) or op(*a))
        report = run_suite("lemma1_6", ((3, 1, 3, 2),))
        assert report and calls == []

    def test_no_tables_above_cap(self):
        ctx = make_field(2, 1, 11)
        assert ctx._log is None
        # the class methods run; only the Euclid inverse is cached on the instance
        assert {"add", "neg", "mul", "pow", "frobenius", "format_elem"}.isdisjoint(vars(ctx))
        assert "inv" in vars(ctx)

    def test_tables_leave_reports_unchanged(self, monkeypatch):
        # oracle for the table path: with LOG_CAP patched to 0, only the
        # fields that lemma1_6 and thm1_7 sweep build tables (they do so
        # whatever the cap), so theta, roundtrip, rsu and the G/H point
        # listings run on coordinates; the report and the listings are
        # byte-identical to the default run
        def clear_caches():
            field._make_field_cached.cache_clear()
            field._embed_cache.clear()
            towers._level_candidates.cache_clear()
            towers._trace_hyperplane.cache_clear()

        def outputs():
            report = json.dumps(run_suite("all", grid), sort_keys=True)
            params = TowerParams(3, 1, 2, 1)
            points = [
                json.dumps([pt.to_json_dict() for pt in enumerate_rational(params, 3, v)])
                for v in ("G", "H")
            ]
            return report, points

        grid = ((2, 1, 2, 1), (3, 1, 2, 1), (2, 1, 3, 2), (2, 2, 2, 1))
        clear_caches()
        try:
            default = outputs()
            clear_caches()
            monkeypatch.setattr(field, "LOG_CAP", 0)
            assert outputs() == default
            swept, unswept = make_field(2, 1, 4), make_field(3, 1, 8)  # lemma1_6's and roundtrip's
            assert swept._log is not None and unswept._log is None
        finally:
            clear_caches()


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

    def test_subfield_degree_checked_before_listing_cap(self):
        # 2^20 elements is past ENUMERATION_CAP, but 20 not dividing 6 is the
        # input error
        with pytest.raises(DegreeNotDividing):
            make_field(2, 1, 6).subfield_elements(20)

    def test_subfield_elements_one_elimination(self, monkeypatch):
        calls = []
        rref = linalg.rref
        monkeypatch.setattr(linalg, "rref", lambda *a: calls.append(1) or rref(*a))
        ctx = FieldCtx(2, 1, 6)
        assert len(ctx.subfield_elements(3)) == 8
        assert len(calls) == 1


class TestTextForm:
    def test_w_format(self, f4):
        w = f4.from_int(2)
        assert f4.format_elem(w) == "[0,1]"
        assert f4.parse_elem("[0,1]") == w

    # F_{3^2} (e = 1), and e > 1 with F_q on tables (F_{4^3}) and on its
    # cached operations (F_{9^2})
    @pytest.mark.parametrize("p,e,d", [(3, 1, 2), (2, 2, 3), (3, 2, 2)])
    def test_roundtrip(self, p, e, d):
        ctx = make_field(p, e, d)
        for x in ctx.all_elements():
            text = ctx.format_elem(x)
            assert text == "[" + ",".join(str(t) for c in x for t in _digits(c, p, e)) + "]"
            assert ctx.parse_elem(text) == x


class TestEmbedding:
    def test_embed_preserves_arithmetic(self):
        # F_{4^3} -> F_{4^6} is the theta suite's map into an ambient above
        # LOG_CAP, on F_4's tables; F_{9^2} -> F_{9^4} runs on cached operations
        for p, e, d, dst_d in [(2, 1, 2, 4), (2, 2, 3, 6), (3, 2, 2, 4)]:
            src = make_field(p, e, d)
            dst = make_field(p, e, dst_d)
            els = src.all_elements()
            if len(els) > 16:
                els = random.Random(11).sample(els, 16) + [src.zero, src.one]
            for x in els:
                for y in els:
                    ex, ey = embed(x, src, dst), embed(y, src, dst)
                    assert embed(src.mul(x, y), src, dst) == dst.mul(ex, ey)
                    assert embed(src.add(x, y), src, dst) == dst.add(ex, ey)

    def test_embedded_image_is_the_subfield(self):
        src = make_field(3, 1, 2)
        dst = make_field(3, 1, 4)
        image = {embed(x, src, dst) for x in src.all_elements()}
        assert image == set(dst.subfield_elements(2))
