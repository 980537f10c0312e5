"""Twisted polynomial ring L{tau} with tau * a = a^q * tau.

A TwistedPoly acts on its field as the q-linearized map
f(mu) = sum g_i mu^{q^i}; multiplication in the ring models composition of
these maps.  Kernels and affine solution sets are computed by exact linear
algebra over F_q inside the ambient field standing in for the algebraic
closure.
"""

from __future__ import annotations

from . import linalg
from .errors import ContextMismatch
from .field import FieldCtx, FieldElem, embed, make_field
from .value import Value


class TwistedPoly:
    """Finite coefficient sequence (g_0, ..., g_d) over a FieldCtx."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs):
        coeffs = tuple(coeffs)
        while coeffs and coeffs[-1] == ctx.zero:
            coeffs = coeffs[:-1]
        self.ctx = ctx
        self.coeffs = coeffs

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx):
        return cls(ctx, (ctx.one,))

    @classmethod
    def constant(cls, ctx, c: FieldElem):
        return cls(ctx, (c,))

    @classmethod
    def tau(cls, ctx, i: int = 1, coeff: FieldElem | None = None):
        """coeff * tau^i (coeff defaults to 1)."""
        c = ctx.one if coeff is None else coeff
        return cls(ctx, (ctx.zero,) * i + (c,))

    @property
    def tau_degree(self):
        """Index of the last nonzero coefficient; None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int) -> FieldElem:
        return self.coeffs[i] if i < len(self.coeffs) else self.ctx.zero

    def __eq__(self, other):
        return (
            isinstance(other, TwistedPoly)
            and self.ctx == other.ctx
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ctx, self.coeffs))

    def __add__(self, other):
        return ore_add(self, other)

    def __sub__(self, other):
        return ore_add(self, ore_scale(self.ctx.neg(self.ctx.one), other))

    def __neg__(self):
        return ore_scale(self.ctx.neg(self.ctx.one), self)

    def __mul__(self, other):
        return ore_mul(self, other)

    def __call__(self, mu: FieldElem) -> FieldElem:
        return evaluate(self, mu)

    def __repr__(self):
        return f"TwistedPoly({self.text()})"

    def text(self) -> str:
        """Canonical text form: "g_0 + g_1*t + g_2*t^2 + ..."."""
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == self.ctx.zero:
                continue
            s = self.ctx.format_elem(c)
            if i == 0:
                parts.append(s)
            elif i == 1:
                parts.append(f"{s}*t")
            else:
                parts.append(f"{s}*t^{i}")
        return " + ".join(parts)

    def map_to(self, dst: FieldCtx) -> "TwistedPoly":
        """Same polynomial with coefficients embedded into a larger ambient."""
        return TwistedPoly(dst, tuple(embed(c, self.ctx, dst) for c in self.coeffs))


def _same_ctx(f: TwistedPoly, g: TwistedPoly):
    if f.ctx is not g.ctx and f.ctx != g.ctx:
        raise ContextMismatch("twisted polynomials over different contexts")


def ore_add(f: TwistedPoly, g: TwistedPoly) -> TwistedPoly:
    _same_ctx(f, g)
    ctx = f.ctx
    n = max(len(f.coeffs), len(g.coeffs))
    return TwistedPoly(ctx, (ctx.add(f.coeff(i), g.coeff(i)) for i in range(n)))


def ore_scale(c: FieldElem, f: TwistedPoly) -> TwistedPoly:
    ctx = f.ctx
    return TwistedPoly(ctx, (ctx.mul(c, a) for a in f.coeffs))


def ore_mul(f: TwistedPoly, g: TwistedPoly) -> TwistedPoly:
    """Product under the twist rule (a tau^i)(b tau^j) = a b^{q^i} tau^{i+j}."""
    _same_ctx(f, g)
    ctx = f.ctx
    if f.is_zero() or g.is_zero():
        return TwistedPoly.zero(ctx)
    add, mul, frobenius, zero = ctx.add, ctx.mul, ctx.frobenius, ctx.zero
    out = [zero] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        if a == zero:
            continue
        for j, b in enumerate(g.coeffs):
            if b == zero:
                continue
            out[i + j] = add(out[i + j], mul(a, frobenius(b, i)))
    return TwistedPoly(ctx, out)


def ore_mul_logs(ctx: FieldCtx, f: list, g: list) -> list:
    """`ore_mul` on coefficient logs over a tabled field, None standing for
    zero: (g^a tau^i)(g^b tau^l) = g^{a + q^i b} tau^{i+l} with exponents
    mod n = q^d - 1, and a sum is one Zech lookup, g^c + g^t =
    g^{c + zech[t - c]}.  Trailing zeros are dropped, so equal products give
    equal lists."""
    n, zech, qpow, d = ctx._n, ctx._zech, ctx._qpow, ctx.d
    out = [None] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a is None:
            continue
        qi = qpow[i % d]
        for l, b in enumerate(g):
            if b is None:
                continue
            t, c = (a + qi * b) % n, out[i + l]
            if c is not None:  # zech is doubled, so t - c in (-n, n) needs no reduction
                k = zech[t - c]
                t = None if k is None else (c + k) % n
            out[i + l] = t
    while out and out[-1] is None:
        out.pop()
    return out


def evaluate(f: TwistedPoly, mu: FieldElem) -> FieldElem:
    """f(mu) = sum g_i mu^{q^i}."""
    ctx = f.ctx
    acc, cur = ctx.zero, mu
    for i, g in enumerate(f.coeffs):
        if i:
            cur = ctx.frobenius(cur, 1)
        if g != ctx.zero:
            acc = ctx.add(acc, ctx.mul(g, cur))
    return acc


def point_derivation(f: TwistedPoly) -> FieldElem:
    """The constant coefficient g_0 (multiplicative on products)."""
    return f.coeff(0)


def linear_matrix(f: TwistedPoly):
    """d x d matrix over F_q of the q-linear map mu -> f(mu).

    Column i holds the coordinates of f(y^i) in the basis {1, y, ..., y^{d-1}}.
    """
    ctx = f.ctx
    return tuple(zip(*(evaluate(f, u) for u in ctx.basis)))


class Subspace(Value):
    """F_q-subspace of a FieldCtx, held as a canonical RREF basis."""

    __slots__ = ("ctx", "basis")

    def __init__(self, ctx: FieldCtx, basis: tuple):
        self._assign(ctx, basis)  # rows are FieldElems in reduced echelon form

    @classmethod
    def from_vectors(cls, ctx: FieldCtx, vectors) -> "Subspace":
        rows = tuple(tuple(v) for v in vectors)
        if not rows:
            return cls(ctx, ())
        red, _ = linalg.rref(rows, ctx._bops)
        return cls(ctx, red)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def cardinality(self) -> int:
        return self.ctx.q**self.dim

    def contains(self, x: FieldElem) -> bool:
        red, _ = linalg.rref(self.basis + (tuple(x),), self.ctx._bops)
        return len(red) == self.dim

    def elements(self) -> list:
        """All q^dim members, sorted in canonical field order."""
        return self.ctx.span_elements(self.basis)


def kernel(f: TwistedPoly) -> Subspace:
    """All mu in the ambient with f(mu) = 0, as a canonical Subspace."""
    ctx = f.ctx
    return Subspace.from_vectors(ctx, linalg.solve(linear_matrix(f), ctx.zero, ctx._bops)[1])


def solve_affine(f: TwistedPoly, c: FieldElem) -> list:
    """All mu in the ambient with f(mu) = c, in canonical order."""
    ctx = f.ctx
    sol = linalg.solve(linear_matrix(f), c, ctx._bops)
    if sol is None:
        return []
    part, ker = sol
    sols = [ctx.add(part, k) for k in ctx.span_elements(ker)]
    sols.sort(key=ctx.to_int)
    return sols


def count_affine(f: TwistedPoly, c: FieldElem) -> int:
    """The number of mu in the ambient with f(mu) = c: q^{dim ker f}, or 0
    when c is not in the image; the same one elimination as `solve_affine`,
    with nothing listed."""
    sol = linalg.solve(linear_matrix(f), c, f.ctx._bops)
    return 0 if sol is None else f.ctx.q ** len(sol[1])


def splitting_degree(f: TwistedPoly, target_dim: int) -> int:
    """Least multiple D of the ambient degree at which Ker(f) reaches target_dim.

    Requires a nonzero constant coefficient (so f is separable and the kernel
    stops growing once full).  Raises SizeCapExceeded once the next ambient
    would outgrow the field size cap.
    """
    ctx = f.ctx
    if f.is_zero() or f.coeff(0) == ctx.zero:
        raise ValueError("splitting_degree needs a nonzero constant coefficient")
    D = ctx.d
    while True:
        amb = make_field(ctx.p, ctx.e, D)
        if kernel(f.map_to(amb)).dim == target_dim:
            return D
        D += ctx.d
