"""Isogeny calculus for the two-coefficient Drinfeld family.

Covers the auxiliary twisted polynomials eta_x, lambda_x, Q_x and the
identities tying them together; the twisted module Phi_T = phi_{F(T)} with
its bracket-coefficient expansion; kernel spaces of composite isogenies; and
the marked-point / round-trip checks behind the level-structure
correspondence, both computed on subspace bases.  Over a tabled field,
`phi_logs`, `lambda_logs` and the two identities also come in exponent form,
on the discrete log s of x.
"""

from __future__ import annotations

from . import linalg
from .drinfeld import APoly, DrinfeldModule, check_rank_pair, module_from_point, monic_apolys, phi_a
from .errors import (
    BracketMismatch,
    CharacteristicDividesK,
    NoMarkedPreimage,
    NotCyclic,
    NotPrime,
    ZeroPoint,
)
from .field import FieldCtx, FieldElem, _sparse, embed, is_prime, make_field
from .ore import Subspace, TwistedPoly, evaluate, kernel, ore_mul, ore_mul_logs
from .value import Value


class TowerParams(Value):
    """The numeric data (q = p^e, m = j + k, and a*k - b*j = 1) of one tower."""

    __slots__ = ("p", "e", "m", "j", "k", "a", "b", "_hash")

    def __init__(self, p: int, e: int, m: int, j: int):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if e < 1:
            raise ValueError(f"e must be at least 1, got {e}")
        check_rank_pair(m, j)
        k = m - j
        # smallest nonnegative (a, b) with a*k - b*j = 1: a = k^{-1} mod j, taken in 1..j
        a = pow(k, -1, j) or j
        # hashed once: every cached successor lookup hashes its params
        self._assign(p, e, m, j, k, a, (a * k - 1) // j, hash((p, e, m, j)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def q(self) -> int:
        return self.p**self.e

    @property
    def k_coprime_to_p(self) -> bool:
        return self.k % self.p != 0

    def field(self, d: int) -> FieldCtx:
        return make_field(self.p, self.e, d)

    def module_at(self, ctx: FieldCtx, x: FieldElem) -> DrinfeldModule:
        """phi^x for this (m, j)."""
        return module_from_point(ctx, self.m, self.j, x)


def _require_nonzero(ctx: FieldCtx, x: FieldElem):
    if x == ctx.zero:
        raise ZeroPoint("x must be nonzero")


def _twists(ctx: FieldCtx, x: FieldElem, n: int) -> list:
    """[c_0, ..., c_{n-1}] with c_i = x^{1-q^i}, taken as x * (x^{-1})^{q^i} so
    that x is inverted once; c_0 = 1."""
    _require_nonzero(ctx, x)
    x_inv = ctx.inv(x)
    return [ctx.one] + [ctx.mul(x, ctx.frobenius(x_inv, i)) for i in range(1, n)]


def eta(params: TowerParams, ctx: FieldCtx, x: FieldElem) -> TwistedPoly:
    """eta_x = 1 + x^{1-q} tau + ... + x^{1-q^{k-1}} tau^{k-1}: the twists c_0, ..., c_{k-1}."""
    return TwistedPoly(ctx, _twists(ctx, x, params.k))


def lambda_poly(params: TowerParams, ctx: FieldCtx, x: FieldElem) -> TwistedPoly:
    """lambda_x = x^{q^k - 1} - tau^k."""
    _require_nonzero(ctx, x)
    q, k = ctx.q, params.k
    coeffs = [ctx.zero] * (k + 1)
    coeffs[0] = ctx.pow(x, q**k - 1)
    coeffs[k] = ctx.neg(ctx.one)
    return TwistedPoly(ctx, coeffs)


def q_poly(params: TowerParams, ctx: FieldCtx, x: FieldElem) -> TwistedPoly:
    """Q_x, tau-degree m-1: the twists (c_k, ..., c_{m-1}, c_0, ..., c_{k-1}),
    eta_x's list rotated by k, so the tau^j coefficient is c_0 = 1."""
    c = _twists(ctx, x, params.m)
    return TwistedPoly(ctx, c[params.k:] + c[:params.k])


def check_intertwine(lam: TwistedPoly, phi: DrinfeldModule, psi: DrinfeldModule) -> bool:
    """True iff lam phi_T = psi_T lam exactly (the isogeny condition)."""
    return ore_mul(lam, phi.phi_T()) == ore_mul(psi.phi_T(), lam)


def verify_lemma_1_6(params: TowerParams, ctx: FieldCtx, x: FieldElem) -> bool:
    """The intertwining identity eta_x phi^x_T = Q_x lambda_x."""
    phi = params.module_at(ctx, x)
    lhs = ore_mul(eta(params, ctx, x), phi.phi_T())
    rhs = ore_mul(q_poly(params, ctx, x), lambda_poly(params, ctx, x))
    return lhs == rhs


# Exponent forms over a tabled field (`FieldCtx._build_logs`): with x = g^s
# for its primitive g, a twisted polynomial is the list of its coefficients'
# logs mod n = q^d - 1, None for zero (`ore.ore_mul_logs`).  Every
# coefficient of eta_x, Q_x and lambda_x is a signed monomial in x, and
# phi^x_T's g(x) a binomial, so none of them takes a field operation.


def _twist_logs(ctx: FieldCtx, s: int, count: int) -> list:
    """`_twists` at x = g^s: log c_i = s (1 - q^i)."""
    n, qpow, d = ctx._n, ctx._qpow, ctx.d
    return [s * (1 - qpow[i % d]) % n for i in range(count)]


def phi_logs(params: TowerParams, ctx: FieldCtx, s: int) -> list:
    """phi^x_T = 1 + g(x) tau^j - tau^m at x = g^s (`module_from_point`):
    g(x) = x^{q^m - q^j} - x^{1 - q^j} = g^a - g^b = g^{a + zech[b + log(-1) - a]}."""
    n, qpow, d, m, j = ctx._n, ctx._qpow, ctx.d, params.m, params.j
    a, b = s * (qpow[m % d] - qpow[j % d]) % n, s * (1 - qpow[j % d]) % n
    k = ctx._zech[(b + ctx._log_neg1 - a) % n]
    coeffs = [None] * (m + 1)
    coeffs[0], coeffs[m] = 0, ctx._log_neg1
    coeffs[j] = None if k is None else (a + k) % n
    return coeffs


def lambda_logs(params: TowerParams, ctx: FieldCtx, s: int) -> list:
    """`lambda_poly` at x = g^s: x^{q^k - 1} - tau^k."""
    k = params.k
    coeffs = [None] * (k + 1)
    coeffs[0], coeffs[k] = s * (ctx._qpow[k % ctx.d] - 1) % ctx._n, ctx._log_neg1
    return coeffs


def lemma_1_6_logs(params: TowerParams, ctx: FieldCtx, s: int) -> bool:
    """`verify_lemma_1_6` at x = g^s: eta_x is the twists c_0..c_{k-1} and Q_x
    all m of them rotated by k."""
    c, k = _twist_logs(ctx, s, params.m), params.k
    lhs = ore_mul_logs(ctx, c[:k], phi_logs(params, ctx, s))
    return lhs == ore_mul_logs(ctx, c[k:] + c[:k], lambda_logs(params, ctx, s))


def intertwine_logs(ctx: FieldCtx, lam: list, phi_T: list, psi_T: list) -> bool:
    """`check_intertwine` on logs: lam phi_T = psi_T lam."""
    return ore_mul_logs(ctx, lam, phi_T) == ore_mul_logs(ctx, psi_T, lam)


def F_and_f(params: TowerParams, ctx: FieldCtx) -> tuple:
    """F(T) = 1 - (1 - T)^k = T*f(T); needs p not dividing k."""
    if not params.k_coprime_to_p:
        raise CharacteristicDividesK(f"p = {params.p} divides k = {params.k}")
    one = APoly.one(ctx)
    one_minus_T = APoly.from_ints(ctx, [1, -1])
    big_F = one - one_minus_T**params.k
    f, rem = big_F.divmod(APoly.T(ctx))
    assert rem.is_zero()
    return big_F, f


def big_phi(phi: DrinfeldModule, params: TowerParams) -> TwistedPoly:
    """Phi_T = phi_{F(T)}, a tau^k-polynomial with constant term 1."""
    big_F, _ = F_and_f(params, phi.ctx)
    return phi_a(phi, big_F)


def bracket_coeffs(phi: DrinfeldModule, params: TowerParams) -> list:
    """Coefficients [k i] of (tau^m - g_j tau^j)^k = sum [k i] tau^{(i+j)k}.

    Built by the recursion [k i] = [k-1 i-1]^{q^m} - g_j [k-1 i]^{q^j} with
    [k k] = 1 and [k 0] = (-1)^k g_j^{1 + q^j + ... + q^{(k-1)j}}, then
    cross-checked coefficient-wise against the direct twisted product.
    """
    ctx, q = phi.ctx, phi.ctx.q
    m, j, k = params.m, params.j, params.k
    g = phi.g_j

    def base_coeff(t: int) -> FieldElem:
        exp = sum(q ** (i * j) for i in range(t))
        v = ctx.pow(g, exp)
        return v if t % 2 == 0 else ctx.neg(v)

    level = [base_coeff(1), ctx.one]
    for t in range(2, k + 1):
        nxt = [ctx.zero] * (t + 1)
        nxt[0] = base_coeff(t)
        nxt[t] = ctx.one
        for i in range(1, t):
            nxt[i] = ctx.sub(
                ctx.frobenius(level[i - 1], m), ctx.mul(g, ctx.frobenius(level[i], j))
            )
        level = nxt
    # cross-check: Phi_T must equal 1 - sum [k i] tau^{(i+j)k}
    rebuilt = [ctx.zero] * ((k + j) * k + 1)
    rebuilt[0] = ctx.one
    for i, c in enumerate(level):
        idx = (i + j) * k
        rebuilt[idx] = ctx.sub(rebuilt[idx], c)
    if TwistedPoly(ctx, rebuilt) != big_phi(phi, params):
        raise BracketMismatch("bracket recursion disagrees with direct expansion")
    return level


class XChain(Value):
    """Coordinates (x_1, ..., x_n) with Q_{x_i}(x_{i+1}) = x_i, all nonzero."""

    __slots__ = ("params", "ctx", "coords")

    def __init__(self, params: TowerParams, ctx: FieldCtx, coords: tuple):
        if not coords:
            raise ValueError("chain needs at least one coordinate")
        for x in coords:
            _require_nonzero(ctx, x)
        for x, y in zip(coords, coords[1:]):
            if evaluate(q_poly(params, ctx, x), y) != x:
                raise ValueError("consecutive coordinates violate Q_x(y) = x")
        self._assign(params, ctx, coords)

    def __len__(self):
        return len(self.coords)

    def composite(self, upto: int | None = None) -> TwistedPoly:
        """lambda_{x_upto} ... lambda_{x_1} (identity for upto = 0)."""
        n = len(self.coords) if upto is None else upto
        comp = TwistedPoly.one(self.ctx)
        for i in range(n):
            comp = ore_mul(lambda_poly(self.params, self.ctx, self.coords[i]), comp)
        return comp

    def map_to(self, dst: FieldCtx) -> "XChain":
        return XChain(self.params, dst, tuple(embed(x, self.ctx, dst) for x in self.coords))


def e_space(chain: XChain) -> Subspace:
    """E_n = Ker(lambda_{x_n} ... lambda_{x_1}); q^{nk} points once split."""
    return kernel(chain.composite())


def check_theta_marked_point(chain: XChain) -> bool:
    """Marked-point consistency of the level-structure correspondence.

    The h in E_n with Phi_{T^{n-1}}(h) = x_1 (Phi built from phi^{x_1}) are
    h_0 + K, read off one `linalg.solve` of sum c_i Phi(b_i) = x_1 over E_n's
    basis b.  Checks that lambda_{x_{n-1}} ... lambda_{x_1}(h) = x_n for each
    such h: the maps are F_q-linear, so this holds iff the composite sends
    h_0 to x_n and kills each basis vector of K.  Raises NoMarkedPreimage
    when no such h exists in the ambient.
    """
    params, ctx = chain.params, chain.ctx
    n = len(chain)
    x1 = chain.coords[0]
    phi = params.module_at(ctx, x1)
    big_F, _ = F_and_f(params, ctx)
    phi_F_pow = phi_a(phi, big_F ** (n - 1))
    basis = e_space(chain).basis
    images = [evaluate(phi_F_pow, b) for b in basis]
    sol = linalg.solve([[v[i] for v in images] for i in range(ctx.d)], x1, ctx._bops)
    if sol is None:
        raise NoMarkedPreimage("H_n is empty; ambient too small or inconsistent chain")
    h0, K = sol
    comp = chain.composite(n - 1)
    if evaluate(comp, _combination(ctx, h0, basis)) != chain.coords[-1]:
        return False
    return all(evaluate(comp, _combination(ctx, k, basis)) == ctx.zero for k in K)


def _combination(ctx: FieldCtx, coeffs, vectors) -> FieldElem:
    """sum c_i v_i for base ints c_i, in the one F_q accumulate loop."""
    return ctx._bops.combine(ctx.zero, coeffs, map(_sparse, vectors))


def span_qk(params: TowerParams, ctx: FieldCtx, S) -> Subspace:
    """Smallest F_{q^k}-stable subspace containing S, as an F_q-Subspace: the
    F_q-span of w s over an F_q-basis w of F_{q^k} and s in S."""
    scalars = ctx.subfield_basis(params.k)
    return Subspace.from_vectors(ctx, [ctx.mul(w, s) for s in S for w in scalars])


def _check_cyclic(phi: DrinfeldModule, G_n: Subspace, n: int) -> None:
    """Raise NotCyclic unless G_n is a cyclic F_q[T]-module with annihilator
    exactly (T^n), checked on its basis: on a phi_T-stable G_n inside
    Ker(phi_{T^n}), phi_T is nilpotent, and G_n of F_q-dimension n is cyclic
    iff phi_{T^{n-1}} does not kill it."""
    ctx, basis, T = phi.ctx, G_n.basis, APoly.T(phi.ctx)
    if G_n.dim != n:
        raise NotCyclic(f"expected F_q-dimension {n}, got {G_n.dim}")
    T_pow = phi_a(phi, T**n)
    if any(evaluate(T_pow, b) != ctx.zero for b in basis):
        raise NotCyclic("subspace not contained in Ker(phi_{T^n})")
    phi_T, T_pow_prev = phi.phi_T(), phi_a(phi, T ** (n - 1))
    if not all(G_n.contains(evaluate(phi_T, b)) for b in basis) or all(
        evaluate(T_pow_prev, b) == ctx.zero for b in basis
    ):
        raise NotCyclic("no cyclic generator found")


def check_roundtrip(params: TowerParams, phi: DrinfeldModule, G_n: Subspace, n: int) -> bool:
    """Both composite identities of the level-structure equivalence.

    With E_n = F_{q^k}<G_n>: phi_{f(T)^n} must map E_n onto G_n exactly, and
    re-spanning the image over F_{q^k} must give back E_n.  phi_{f(T)^n} is
    F_q-linear, so the image is the span of the images of E_n's basis.
    """
    ctx = phi.ctx
    _check_cyclic(phi, G_n, n)
    _, f = F_and_f(params, ctx)
    f_pow = phi_a(phi, f**n)
    e_span = span_qk(params, ctx, G_n.basis)
    image = Subspace.from_vectors(ctx, [evaluate(f_pow, v) for v in e_span.basis])
    return image == G_n and span_qk(params, ctx, image.basis) == e_span


def check_lemma_2_9(params: TowerParams, ctx: FieldCtx, x: FieldElem) -> bool:
    """Annihilator of F_{q^k}*x under the phi^x-action is generated by F(T).

    Checks (i) phi_{F(T)} kills every mu*x, (ii) the explicit module action
    (1-T).(mu x) = mu^{q^j} x, and (iii) no proper monic divisor of F
    annihilates the whole line.
    """
    _require_nonzero(ctx, x)
    phi = params.module_at(ctx, x)
    big_F, _ = F_and_f(params, ctx)
    scalars = ctx.subfield_elements(params.k)
    line = [ctx.mul(mu, x) for mu in scalars]

    phi_F = phi_a(phi, big_F)
    if any(evaluate(phi_F, v) != ctx.zero for v in line):
        return False

    phi_1mT = phi_a(phi, APoly.from_ints(ctx, [1, -1]))
    for mu in scalars:
        lhs = evaluate(phi_1mT, ctx.mul(mu, x))
        rhs = ctx.mul(ctx.frobenius(mu, params.j), x)
        if lhs != rhs:
            return False

    for deg in range(1, params.k):
        for cand in monic_apolys(ctx, deg):
            if not cand.divides(big_F):
                continue
            phi_c = phi_a(phi, cand)
            if all(evaluate(phi_c, v) == ctx.zero for v in line):
                return False
    return True
