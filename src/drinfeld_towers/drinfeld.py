"""Normalized rank-m Drinfeld modules phi_T = -tau^m + g_j tau^j + 1.

The substitution homomorphism a -> phi_a sends F_q[T] into the twisted ring;
T acts with constant term 1, so the characteristic ideal is (T - 1).  Only
the two-coefficient family with gcd(j, m - j) = 1 is supported.
"""

from __future__ import annotations

import math

from .errors import AmbientTooSmall, BadRankPair, NotCyclic, NotFoundWithinBound, ZeroPoint
from .field import FieldCtx, FieldElem, _poly_from_index, embed, poly_add, poly_divmod, poly_mul, poly_sub, poly_trim
from .ore import Subspace, TwistedPoly, evaluate, ore_add, ore_mul
from .value import Value


class APoly:
    """Element of A = F_q[T]; coefficients are base ints of the context."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs):
        self.ctx = ctx
        self.coeffs = poly_trim(tuple(coeffs))

    @classmethod
    def from_ints(cls, ctx, ints):
        """Coefficients given as integers, mapped into the prime subfield."""
        return cls(ctx, tuple(i % ctx.p for i in ints))

    @classmethod
    def T(cls, ctx):
        return cls(ctx, (0, 1))

    @classmethod
    def one(cls, ctx):
        return cls(ctx, (1,))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, APoly)
            and self.ctx == other.ctx
            and self.coeffs == other.coeffs
        )

    def __add__(self, other):
        return APoly(self.ctx, poly_add(self.coeffs, other.coeffs, self.ctx._bops))

    def __sub__(self, other):
        return APoly(self.ctx, poly_sub(self.coeffs, other.coeffs, self.ctx._bops))

    def __mul__(self, other):
        return APoly(self.ctx, poly_mul(self.coeffs, other.coeffs, self.ctx._bops))

    def __pow__(self, n: int):
        r = APoly.one(self.ctx)
        for _ in range(n):
            r = r * self
        return r

    def divmod(self, other: "APoly"):
        q, r = poly_divmod(self.coeffs, other.coeffs, self.ctx._bops)
        return APoly(self.ctx, q), APoly(self.ctx, r)

    def divides(self, other: "APoly") -> bool:
        return other.divmod(self)[1].is_zero()

    def __repr__(self):
        return f"APoly({self.coeffs!r})"


def monic_apolys(ctx: FieldCtx, degree: int):
    """All monic polynomials of the given degree, canonical (base-q) order."""
    for idx in range(ctx.q**degree):
        yield APoly(ctx, _poly_from_index(idx, degree, ctx.q))


def check_rank_pair(m: int, j: int) -> None:
    """Raise BadRankPair unless 2 <= m, 1 <= j < m and gcd(j, m - j) = 1."""
    if m < 2 or not (1 <= j < m):
        raise BadRankPair(f"need 2 <= m and 1 <= j < m, got (m, j) = ({m}, {j})")
    if math.gcd(j, m - j) != 1:
        raise BadRankPair(f"gcd(j, m - j) must be 1, got (j, k) = ({j}, {m - j})")


class DrinfeldModule(Value):
    """The data (m, j, g_j) of phi_T = -tau^m + g_j tau^j + 1."""

    __slots__ = ("ctx", "m", "j", "g_j")

    def __init__(self, ctx: FieldCtx, m: int, j: int, g_j: FieldElem):
        check_rank_pair(m, j)
        self._assign(ctx, m, j, g_j)

    def phi_T(self) -> TwistedPoly:
        ctx = self.ctx
        coeffs = [ctx.zero] * (self.m + 1)
        coeffs[0] = ctx.one
        coeffs[self.j] = self.g_j  # 1 <= j < m, so the three slots are distinct
        coeffs[self.m] = ctx.neg(ctx.one)
        return TwistedPoly(ctx, coeffs)

    def map_to(self, dst: FieldCtx) -> "DrinfeldModule":
        return DrinfeldModule(dst, self.m, self.j, embed(self.g_j, self.ctx, dst))


def phi_a(phi: DrinfeldModule, a: APoly) -> TwistedPoly:
    """Image of a under the algebra homomorphism T -> phi_T (Horner)."""
    ctx = phi.ctx
    phi_T = phi.phi_T()
    acc = TwistedPoly.zero(ctx)
    for c in reversed(a.coeffs):
        acc = ore_mul(acc, phi_T)
        if c:
            acc = ore_add(acc, TwistedPoly.constant(ctx, ctx.from_base(c)))
    return acc


def j_invariant(phi: DrinfeldModule) -> FieldElem:
    """g_j^{N_m} with N_m = (q^m - 1)/(q - 1)."""
    q = phi.ctx.q
    n_m = (q**phi.m - 1) // (q - 1)
    return phi.ctx.pow(phi.g_j, n_m)


def is_supersingular(phi: DrinfeldModule) -> bool:
    return phi.g_j == phi.ctx.zero


def find_isomorphism(phi: DrinfeldModule, phi2: DrinfeldModule):
    """lambda in F_{q^m}^* with g_j = g_j' * lambda^{q^j - 1}, or None.

    Searches the subfield exhaustively in canonical order; an isomorphism
    exists iff the J-invariants agree.
    """
    ctx = phi.ctx
    if (phi.m, phi.j) != (phi2.m, phi2.j) or ctx != phi2.ctx:
        raise BadRankPair("modules must share context, rank, and twist index")
    if ctx.d % phi.m != 0:
        raise AmbientTooSmall(f"ambient degree {ctx.d} does not contain F_(q^{phi.m})")
    if is_supersingular(phi) and is_supersingular(phi2):
        return ctx.one
    exp = ctx.q**phi.j - 1
    for lam in ctx.subfield_elements(phi.m):
        if lam == ctx.zero:
            continue
        if phi.g_j == ctx.mul(phi2.g_j, ctx.pow(lam, exp)):
            return lam
    return None


def module_from_point(ctx: FieldCtx, m: int, j: int, x: FieldElem) -> DrinfeldModule:
    """The module phi^x with g(x) = x^{q^m - q^j} - x^{1 - q^j}; kills x."""
    if x == ctx.zero:
        raise ZeroPoint("phi^x needs x != 0")
    x_inv_qj = ctx.frobenius(ctx.inv(x), j)
    head = ctx.mul(ctx.frobenius(x, m), x_inv_qj)
    tail = ctx.mul(x, x_inv_qj)
    return DrinfeldModule(ctx, m, j, ctx.sub(head, tail))


def annihilator_order(phi: DrinfeldModule, mu: FieldElem, bound: int) -> APoly:
    """Least-degree monic a with phi_a(mu) = 0, ties broken in canonical order."""
    for deg in range(bound + 1):
        for a in monic_apolys(phi.ctx, deg):
            if evaluate(phi_a(phi, a), mu) == phi.ctx.zero:
                return a
    raise NotFoundWithinBound(f"no annihilator of degree <= {bound}")


def cyclic_module(phi: DrinfeldModule, mu: FieldElem) -> Subspace:
    """Smallest phi_T-stable F_q-subspace containing mu."""
    ctx = phi.ctx
    phi_T = phi.phi_T()
    iterates = []
    cur = mu
    for _ in range(ctx.d + 1):
        if cur == ctx.zero:
            break
        iterates.append(cur)
        cur = evaluate(phi_T, cur)
    else:
        raise NotCyclic("point is not T-power torsion in this ambient")
    return Subspace.from_vectors(ctx, iterates)
