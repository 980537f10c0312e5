"""Twisted polynomial ring L{tau} with tau * a = a^q * tau.

A TwistedPoly acts on its field as the q-linearized map
f(mu) = sum g_i mu^{q^i}; multiplication in the ring models composition of
these maps.  Its operations are functions, one spelling each: `ore_add`,
`ore_mul` and `evaluate`, with no operator methods.  Kernels and affine
solution sets are computed by exact linear algebra over F_q inside the
ambient field standing in for the algebraic closure; the least ambient that
splits a whole kernel is read off a matrix order (`splitting_degree`),
without building the ambients below it.
"""

from __future__ import annotations

import functools

from . import linalg
from .errors import ContextMismatch
from .field import FieldCtx, FieldElem, check_size_cap, embed, make_field
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

    def __repr__(self):
        return f"TwistedPoly({self.coeffs!r})"

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


def linear_matrix(f: TwistedPoly):
    """d x d matrix over F_q of the q-linear map mu -> f(mu).

    Column t holds the coordinates of f(y^t) = sum g_i (y^t)^{q^i} in the
    basis {1, y, ..., y^{d-1}}, summed from the field's cached basis images
    (`FieldCtx.basis_frobenius`): no Frobenius per call, and no product
    where g_i is 0 or 1.
    """
    ctx = f.ctx
    add, mul, one, zero = ctx.add, ctx.mul, ctx.one, ctx.zero
    cols = [zero] * ctx.d
    for i, g in enumerate(f.coeffs):
        if g == zero:
            continue
        images = ctx.basis_frobenius(i)
        if g != one:
            images = [mul(g, v) for v in images]
        cols = list(map(add, cols, images))
    return tuple(zip(*cols))


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


def splitting_degree(f: TwistedPoly) -> int:
    """Least multiple D of the ambient degree at which Ker(f) is whole, of
    dimension f's tau-degree.

    Requires a nonzero constant coefficient (so f is separable and the kernel
    stops growing once full).  D = d ord(B) in closed form
    (`_frobenius_order`), confirmed by one kernel at F_{q^D}; raises
    SizeCapExceeded once the next ambient would outgrow the field size cap.
    """
    ctx = f.ctx
    if f.is_zero() or f.coeff(0) == ctx.zero:
        raise ValueError("splitting_degree needs a nonzero constant coefficient")
    D = ctx.d * _frobenius_order(f)
    if kernel(f.map_to(make_field(ctx.p, ctx.e, D))).dim != f.tau_degree:
        raise ArithmeticError(f"Ker(f) is not split at the closed-form degree {D}")
    return D


def _frobenius_order(f: TwistedPoly) -> int:
    """The least t with Ker(f) inside F_{q^{dt}}, f = g_0 + ... + g_r tau^r over
    L = F_{q^d}, g_0 g_r != 0 (Gekeler, Trans. AMS 2008; Musleh-Schost, ISSAC
    2019).

    On Ker(f), v(mu) = (mu, mu^q, ..., mu^{q^{r-1}}) has v(mu^q) = C v(mu)
    for the tau-companion matrix C of f, and mu^q lies in the kernel of f
    with each coefficient raised to the q, so v(mu^{q^d}) = B v(mu) with
    B = C^{sigma^{d-1}} ... C^sigma C, sigma raising each entry to the q.
    B has entries in L, so v(mu^{q^{dt}}) = B^t v(mu); the v(mu) of an
    F_q-basis of the r-dimensional kernel are the columns of an invertible
    Moore matrix, so the whole kernel lies in F_{q^{dt}} iff B^t = 1.  The
    powers of B are tried in turn, B^t only once `check_size_cap` admits
    F_{q^{dt}}.
    """
    ctx = f.ctx
    *low, top = f.coeffs
    r, scale = len(low), ctx.neg(ctx.inv(top))
    one, zero = ctx.one, ctx.zero
    identity = tuple(tuple(one if c == i else zero for c in range(r)) for i in range(r))
    # mu^{q^r} = -(g_0 mu + ... + g_{r-1} mu^{q^{r-1}}) / g_r on Ker(f)
    C = identity[1:] + (tuple(ctx.mul(scale, g) for g in low),) if r else ()
    B = C
    for i in range(1, ctx.d):
        B = _mat_mul(ctx, tuple(tuple(ctx.frobenius(c, i) for c in row) for row in C), B)
    power, t = B, 1
    while True:
        check_size_cap(ctx.p, ctx.e, ctx.d * t)
        if power == identity:
            return t
        power, t = _mat_mul(ctx, power, B), t + 1


def _mat_mul(ctx: FieldCtx, X: tuple, Y: tuple) -> tuple:
    """The product of two square matrices over ctx, as tuples of rows."""
    add, mul, zero = ctx.add, ctx.mul, ctx.zero
    cols = tuple(zip(*Y))
    return tuple(tuple(functools.reduce(add, map(mul, row, col), zero) for col in cols) for row in X)
