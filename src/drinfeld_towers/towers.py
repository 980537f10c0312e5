"""The three recursive towers: evaluation, point enumeration, and counts.

Variant F is the recursion tr_j(y/x^{q^k}) + tr_k(y^{q^j}/x) - 1 = 0, variant
G its (q-1)-power pushforward, and variant H the quotient recursion in the
u-coordinates.  Rational points live in F_{q^m}^*.  Every successor set is
the solution set of one affine F_q-linear equation: Q_x(y) = x for F
(`fiber_solutions`), L_X(s) = 1 with Y = X s^{q-1} for G, and the
cross-multiplied recursion in v for H.  The F and G equations are one cached
hyperplane T_c (`_trace_hyperplane`) per value of c = x^{q^m-1} or X^{N_m};
over F_{q^m} itself c lies in F_q^*, so rational successors cost no solve
per point.  All come out in canonical element order, so output is
deterministic.  The successor relation is cached once per tower variant and
field (`_level_candidates`); enumeration extends chains by it and
`TowerPoint` checks every pair against it.  Level 1 holds q^m - 1 points
in every variant, counted before any field is built.  Later level sizes of
F and G come from the sizes |T_c| alone, one rank per c, so counting them
lists no point and no field; H's are walks on its successor graph
(`_chain_counts`), which stay the tests' oracle for the F and G sizes.
Every q-power x^{q^i} is taken through the Frobenius linear map.
"""

from __future__ import annotations

import functools
import itertools

from .errors import NotInSubfield, NotOnCurve, NotPrime, SizeCapExceeded, ZeroDenominator, ZeroPoint
from .field import FieldCtx, FieldElem, is_prime
from .isogeny import TowerParams
from .ore import TwistedPoly, count_affine, solve_affine
from .value import Value

POINTS_CAP = 2**18  # most chains on one level that `points` lists or verify's rsu sweeps


def eval_F(params: TowerParams, ctx: FieldCtx, x: FieldElem, y: FieldElem) -> FieldElem:
    """tr_j(y/x^{q^k}) + tr_k(y^{q^j}/x) - 1; requires x != 0."""
    if x == ctx.zero:
        raise ZeroDenominator("x = 0 in the F-recursion")
    return _recursion(params, ctx, *_rs(params, ctx, x, y))


def _rs(params: TowerParams, ctx: FieldCtx, x: FieldElem, y: FieldElem) -> tuple:
    """R = y/x^{q^k} and S = y^{q^j}/x at (x, y); x != 0."""
    x_inv = ctx.inv(x)
    return ctx.mul(y, ctx.frobenius(x_inv, params.k)), ctx.mul(ctx.frobenius(y, params.j), x_inv)


def _recursion(params: TowerParams, ctx: FieldCtx, R: FieldElem, S: FieldElem) -> FieldElem:
    """The F-recursion tr_j(R) + tr_k(S) - 1 in the coordinates R, S."""
    return ctx.sub(ctx.add(ctx.trace_partial(R, params.j), ctx.trace_partial(S, params.k)), ctx.one)


def eval_G(params: TowerParams, ctx: FieldCtx, X: FieldElem, Y: FieldElem) -> FieldElem:
    """Y * (sum of Y^{N_i}/X^{N_*} terms)^{q-1} - X with N_l = (q^l-1)/(q-1)."""
    if X == ctx.zero:
        raise ZeroDenominator("X = 0 in the G-recursion")
    q, j, k = ctx.q, params.j, params.k
    N = lambda l: (q**l - 1) // (q - 1)
    acc = ctx.zero
    for i in range(params.m):
        l = k + i if i < j else i - j
        acc = ctx.add(acc, ctx.mul(ctx.pow(Y, N(i)), ctx.pow(X, -N(l))))
    return ctx.sub(ctx.mul(Y, ctx.pow(acc, q - 1)), X)


def _h_terms(params: TowerParams, ctx: FieldCtx, u: FieldElem, v: FieldElem) -> tuple:
    """num1, den1, num2, den2 of the H-recursion num1/den1 - num2/den2 (see `eval_H`)."""
    j, k = params.j, params.k
    a_c, b_c = ctx.scalar(params.a), ctx.scalar(params.b)
    return (
        ctx.sub(ctx.trace_partial(v, j), a_c),
        ctx.sub(ctx.frobenius(ctx.trace_partial(u, j), k), a_c),
        ctx.sub(ctx.frobenius(ctx.trace_partial(v, k), j), b_c),
        ctx.sub(ctx.trace_partial(u, k), b_c),
    )


def eval_H(params: TowerParams, ctx: FieldCtx, u: FieldElem, v: FieldElem) -> FieldElem:
    """(tr_j(v)-a)/(tr_j(u)^{q^k}-a) - (tr_k(v)^{q^j}-b)/(tr_k(u)-b)."""
    num1, den1, num2, den2 = _h_terms(params, ctx, u, v)
    if den1 == ctx.zero:
        raise ZeroDenominator("tr_j(u)^{q^k} - a vanishes")
    if den2 == ctx.zero:
        raise ZeroDenominator("tr_k(u) - b vanishes")
    return ctx.sub(ctx.mul(num1, ctx.inv(den1)), ctx.mul(num2, ctx.inv(den2)))


def eval_H_cross(params: TowerParams, ctx: FieldCtx, u: FieldElem, v: FieldElem) -> FieldElem:
    """Cross-multiplied form of the H-recursion, safe at degenerate denominators."""
    num1, den1, num2, den2 = _h_terms(params, ctx, u, v)
    return ctx.sub(ctx.mul(num1, den2), ctx.mul(num2, den1))


class TowerPoint(Value):
    """A coordinate tuple on one tower level, validated at construction:
    each consecutive pair (x, y) by y in `_level_candidates(...)(x)`."""

    __slots__ = ("variant", "params", "ctx", "coords")

    def __init__(self, variant: str, params: TowerParams, ctx: FieldCtx, coords: tuple):
        if variant not in ("F", "G", "H"):
            raise ValueError(f"unknown variant {variant!r}")
        if ctx.zero in coords:
            raise ZeroPoint("tower coordinates must be nonzero")
        successors = _level_candidates(params, ctx, variant)
        for x, y in zip(coords, coords[1:]):
            if y not in successors(x):
                raise NotOnCurve(f"coordinates violate the {variant}-recursion")
        self._assign(variant, params, ctx, coords)

    def to_json_dict(self) -> dict:
        return {
            "variant": self.variant,
            "params": {
                "p": self.params.p,
                "e": self.params.e,
                "m": self.params.m,
                "j": self.params.j,
            },
            "coords": [self.ctx.format_elem(x) for x in self.coords],
            "supersingular": self.is_supersingular(),
        }

    def is_supersingular(self) -> bool:
        """Every coordinate lies in F_{q^m}^*, whatever the variant; so does every rational point."""
        m = self.params.m
        if self.ctx.d == m:
            return True
        if self.ctx.d % m != 0:
            return False
        return all(self.ctx.in_subfield(x, m) for x in self.coords)


def _hyperplane_poly(ctx: FieldCtx, j: int, k: int, c: FieldElem) -> TwistedPoly:
    """sum_{i<j} tau^i + sum_{i<k} c^{q^i} tau^{j+i}: T_c is where it takes the value 1."""
    return TwistedPoly(ctx, [ctx.one] * j + [ctx.frobenius(c, i) for i in range(k)])


@functools.cache
def _trace_hyperplane(ctx: FieldCtx, j: int, k: int, c: FieldElem, e: int) -> tuple:
    """t^e for all t in T_c: sum_{i<j} t^{q^i} + sum_{i<k} c^{q^i} t^{q^{j+i}} = 1."""
    return tuple(ctx.pow(t, e) for t in solve_affine(_hyperplane_poly(ctx, j, k, c), ctx.one))


def _on_hyperplane(params: TowerParams, ctx: FieldCtx, x: FieldElem, n: int, e: int) -> list:
    """x^{q^k} t^e for each t on the hyperplane of c = x^n, in canonical order."""
    ts = _trace_hyperplane(ctx, params.j, params.k, ctx.pow(x, n), e)
    if not ts:
        return []
    xk = ctx.frobenius(x, params.k)
    return sorted((ctx.mul(xk, t) for t in ts), key=ctx.to_int)


def fiber_solutions(params: TowerParams, ctx: FieldCtx, x: FieldElem) -> list:
    """All y in the ambient with Q_x(y) = x; q^{m-1} of them once split.

    Dividing by x, Q_x(y) = x iff y = x^{q^k} t with t on the hyperplane of
    c = x^{q^m-1}, which is 1 over F_{q^m}.
    """
    if x == ctx.zero:
        raise ZeroPoint("fiber over x = 0 is undefined")
    return _on_hyperplane(params, ctx, x, ctx.q**params.m - 1, 1)


@functools.cache
def _level_candidates(params: TowerParams, ctx: FieldCtx, variant: str):
    """The tower's successor relation on ctx, cached once per variant and
    field: a cached map from x to the tuple of its nonzero successors.
    Enumeration extends chains by it, walks count chains along it, and
    `TowerPoint` checks pairs by membership in it."""
    return functools.cache(functools.partial(_solve_successors, params, ctx, variant))


def _solve_successors(params: TowerParams, ctx: FieldCtx, variant: str, prev: FieldElem) -> tuple:
    """The nonzero successors of coordinate `prev`, in canonical order.

    F(x, y) = 0 iff Q_x(y) = x; Q_x(0) = 0 != x keeps zero out.  With
    N_l = (q^l-1)/(q-1), a = X^{-N_k} and b = X^{N_j}, G(X, Y) = 0 iff
    Y = X s^{q-1} for some s with L_X(s) = tr_j(a s) + tr_k(b s^{q^j}) = 1;
    s is fixed up to F_q^*, which scales L_X(s), so s -> X s^{q-1} maps the
    solutions one-to-one onto the successors.  Since N_j + q^j N_k = N_m, t = a s turns L_X(s) = 1 into
    the hyperplane of F with c = X^{N_m}, and Y = X^{q^k} t^{q-1}.  So F and
    G solve once per distinct c, which over F_{q^m} lies in F_q^*.
    Cross-multiplied, H(u, v) = 0 reads den2 tr_j(v) - den1 tr_k(v)^{q^j} =
    a den2 - b den1, which is affine in v (one solve each); a degenerate
    denominator has no successors.
    """
    if variant == "F":
        return tuple(fiber_solutions(params, ctx, prev))
    q, j, k = ctx.q, params.j, params.k
    if variant == "G":
        return tuple(_on_hyperplane(params, ctx, prev, (q**params.m - 1) // (q - 1), q - 1))
    # num1 = -a and num2 = -b at v = 0, so c = a den2 - b den1
    num1, den1, num2, den2 = _h_terms(params, ctx, prev, ctx.zero)
    if den1 == ctx.zero or den2 == ctx.zero:
        return ()
    f = TwistedPoly(ctx, [den2] * j + [ctx.neg(den1)] * k)
    c = ctx.sub(ctx.mul(num2, den1), ctx.mul(num1, den2))
    return tuple(v for v in solve_affine(f, c) if v != ctx.zero)


def enumerate_rational(params: TowerParams, n: int, variant: str) -> list:
    """All level-n points with coordinates in F_{q^m}^*, canonical order.

    Variant F/G points have n coordinates; variant H points have n-1
    (u_2, ..., u_n) and require n >= 2.  Raises SizeCapExceeded before
    building anything if a level holds more than POINTS_CAP chains.
    """
    return list(iter_rational(params, n, variant))


def iter_rational(params: TowerParams, n: int, variant: str):
    """The points of `enumerate_rational`, in order, built lazily; every check
    and the cap check on `_level_sizes` run before it returns, and F_{q^m} is
    built only once the cap check has passed."""
    if variant not in ("F", "G", "H"):
        raise ValueError(f"unknown variant {variant!r}")
    if n < 1:
        raise ValueError("need n >= 1")
    if variant == "H" and n < 2:
        raise ValueError("H-variant needs n >= 2")
    length = n if variant != "H" else n - 1
    _check_points_cap(params, variant, length)
    ctx = params.field(params.m)
    successors = _level_candidates(params, ctx, variant)
    frontier = ((x,) for x in ctx.all_elements() if x != ctx.zero)
    for _ in range(length - 1):
        frontier = (t + (y,) for t in frontier for y in successors(t[-1]))
    return (TowerPoint(variant, params, ctx, coords) for coords in frontier)


def _check_points_cap(params: TowerParams, variant: str, length: int) -> None:
    """Raise SizeCapExceeded if a level of chains of up to `length`
    coordinates holds more than POINTS_CAP of them."""
    for size in itertools.islice(_level_sizes(params, variant), length):
        if size > POINTS_CAP:
            raise SizeCapExceeded(f"{size} points on one level exceed the cap {POINTS_CAP}")


def _level_sizes(params: TowerParams, variant: str):
    """Yield the number of chains of 1, 2, ... nonzero coordinates in F_{q^m}.

    Level 1 holds q^m - 1 chains for every variant and comes first, before
    F_{q^m} is built (cached, by `params.field`) for the later levels.  For
    F and G a chain keeps the c of its first coordinate, and each coordinate
    has |T_c| successors, so level l holds sum_c N_c |T_c|^{l-1} chains, N_c
    being the number of first coordinates with that c.  For F,
    c = x^{q^m-1} = 1 for all q^m - 1 of them.  For G, c = X^{N_m} is the
    norm to F_q^*, which takes each value N_m = (q^m-1)/(q-1) times, and a
    successor Y = X^{q^k} t^{q-1} has norm c^{q^k} N(t)^{q-1} = c.  So F and
    G count with at most q - 1 ranks, list nothing and answer to the size cap
    alone.  H walks its successor graph (`_chain_counts`) from level 2.
    """
    q, m = params.q, params.m
    yield q**m - 1
    ctx = params.field(m)
    if variant == "H":
        yield from itertools.islice(_chain_counts(params, ctx, variant), 1, None)
        return
    if variant == "F":
        cs, chains = [ctx.one], [q**m - 1]
    else:
        cs, chains = [ctx.from_int(c) for c in range(1, q)], [(q**m - 1) // (q - 1)] * (q - 1)
    sizes = [count_affine(_hyperplane_poly(ctx, params.j, params.k, c), ctx.one) for c in cs]
    while True:
        chains = [w * size for w, size in zip(chains, sizes)]
        yield sum(chains)


def _chain_counts(params: TowerParams, ctx: FieldCtx, variant: str):
    """Yield the number of chains of 1, 2, ... nonzero coordinates in ctx by
    walking the successor relation: H's level sizes, and the tests' oracle
    for the F and G sizes of `_level_sizes`.

    ways_1(x) = 1 and ways_{l+1}(x) = sum of ways_l(y) over the successors y
    of x count the chains of l coordinates that start at x, with no chain
    built; each level costs a pass over every successor set, O(q^{2m-1})
    for F and G.
    """
    nonzero = [x for x in ctx.all_elements() if x != ctx.zero]
    successors = _level_candidates(params, ctx, variant)
    ways = dict.fromkeys(nonzero, 1)
    while True:
        yield sum(ways.values())
        ways = {x: sum(ways[y] for y in successors(x)) for x in nonzero}


def count_supersingular(params: TowerParams, n: int) -> tuple:
    """(F-variant rational count (q^m-1) |T_1|^{n-1}, (q^m-1) q^{(m-1)(n-1)}).

    The count comes from the successor relation's hyperplane, not from the
    formula; it costs one rank at any n > 1 and lists nothing, so only the
    size cap bounds the field.  F_{q^m} is built first, at n = 1 too, where
    the count needs no field, so every count answers to that cap.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    params.field(params.m)
    count = next(itertools.islice(_level_sizes(params, "F"), n - 1, None))
    formula = (params.q**params.m - 1) * params.q ** ((params.m - 1) * (n - 1))
    return count, formula


class RSU(Value):
    """The coordinates R = y/x^{q^k}, S = y^{q^j}/x, and u on the quotient curve."""

    __slots__ = ("R", "S", "u")

    def __init__(self, R: FieldElem, S: FieldElem, u: FieldElem):
        self._assign(R, S, u)


def rsu(params: TowerParams, ctx: FieldCtx, x: FieldElem, y: FieldElem, relations=None) -> RSU:
    """R, S, u for a consecutive pair on the F-tower; verifies the F-recursion
    and the trace relations.

    The F-recursion is tr_j(R) + tr_k(S) = 1 and u is a sum of q-powers of
    R and S, so every check reads (R, S) alone (`rsu_relations`).  Over
    F_{q^m} R is a point t of the hyperplane T_1 and S = t^{q^j}, so the
    rational pairs meet only q^{m-1} distinct (R, S); a caller may pass
    `relations`, a memo of `rsu_relations`, to run each check once.  The
    verify suite keeps that memo for one report entry, so a field or params
    patched after it never meets a stale answer; an exception is never
    memoised, so a failing (R, S) fails on every pair that reaches it.
    """
    if x == ctx.zero:
        raise ZeroPoint("rsu needs x != 0")
    return (relations or rsu_relations)(params, ctx, *_rs(params, ctx, x, y))


def rsu_relations(params: TowerParams, ctx: FieldCtx, R: FieldElem, S: FieldElem) -> RSU:
    """R, S and u = sum_{r<a} R^{q^{rk}} + (sum_{s<b} S^{q^{sj}})^q, after
    checking the F-recursion tr_j(R) + tr_k(S) = 1 and the trace relations
    R = tr_k(u) - b and S = -tr_j(u) + a; raises NotOnCurve on the first
    that fails."""
    j, k, a, b = params.j, params.k, params.a, params.b
    if _recursion(params, ctx, R, S) != ctx.zero:
        raise NotOnCurve("(x, y) does not satisfy the F-recursion")
    acc = ctx.zero
    for r in range(a):
        acc = ctx.add(acc, ctx.frobenius(R, r * k))
    acc2 = ctx.zero
    for s in range(b):
        acc2 = ctx.add(acc2, ctx.frobenius(S, s * j))
    u = ctx.add(acc, ctx.frobenius(acc2, 1))
    # the trace relations are load-bearing downstream; fail loudly if violated
    a_c, b_c = ctx.scalar(a), ctx.scalar(b)
    if R != ctx.sub(ctx.trace_partial(u, k), b_c):
        raise NotOnCurve("R = tr_k(u) - b violated")
    if S != ctx.add(ctx.neg(ctx.trace_partial(u, j)), a_c):
        raise NotOnCurve("S = -tr_j(u) + a violated")
    return RSU(R, S, u)


def galois_action(params: TowerParams, mu: FieldElem, point: TowerPoint) -> TowerPoint:
    """The twisted scaling (mu x_1, mu^{q^k} x_2, ..., mu^{q^{k(n-1)}} x_n)."""
    if point.variant != "F":
        raise ValueError("the twisted action is defined on F-variant points")
    ctx = point.ctx
    if ctx.d % params.m != 0 or not ctx.in_subfield(mu, params.m) or mu == ctx.zero:
        raise NotInSubfield("mu must lie in F_{q^m}^*")
    coords = tuple(
        ctx.mul(ctx.frobenius(mu, params.k * i), x) for i, x in enumerate(point.coords)
    )
    return TowerPoint("F", params, ctx, coords)


def ssing_u_set(params: TowerParams, n: int) -> set:
    """{(u_2,...,u_n) in (F_{q^m}^*)^{n-1} : tr_m(u_i) = a + b for all i}."""
    if n < 2:
        raise ValueError("need n >= 2")
    ctx = params.field(params.m)
    target = ctx.scalar(params.a + params.b)
    good = [
        u
        for u in ctx.all_elements()
        if u != ctx.zero and ctx.trace_partial(u, params.m) == target
    ]
    return set(itertools.product(good, repeat=n - 1))


def ihara_bound(p: int, m: int):
    """The closed-form lower bound 2(p^{m+1}-1) / (p + 1 + (p-1)/(p^m-1)), a Fraction."""
    from fractions import Fraction  # imported here: it loads `decimal`, which nothing else needs
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if m < 1:
        raise ValueError("m must be positive")
    num = 2 * (p ** (m + 1) - 1)
    den = Fraction(p + 1) + Fraction(p - 1, p**m - 1)
    return Fraction(num) / den
