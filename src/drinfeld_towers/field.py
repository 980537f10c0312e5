"""Finite fields F_{q^d} with q = p^e, built as F_q[y]/(g) over F_q = F_p[x]/(h).

A field element is a plain tuple of length d whose entries are "base ints":
an element of F_q packed as an integer in [0, q) via base-p digits.  The
tuple is exactly the coordinate vector in the F_q-basis {1, y, ..., y^{d-1}},
which is what the linear algebra downstream works with.

For e > 1, F_q is itself a field of this module, `FieldCtx(p, 1, e)`, whose
`to_int` is the base-p digit packing, so for p = 2 a sum of packed ints is
their XOR.  Inverses outside the tables below come from the one extended
Euclid, `poly_inv_mod`, once per element.

A field gets discrete-log tables for a primitive element g when it is listed
whole, and not before: `subfield_elements` builds them before it lists the
field, so the listing itself runs on lookups.  This is the small-field design
of FLINT's `fq_zech`: with exp[k] = g^k, log = exp^{-1} (zero maps to None)
and the Zech logarithms zech[k] = log(1 + g^k), every operation is one
lookup, addition included, since g^a + g^b = g^{a + zech[b - a]} (Huber,
"Some comments on Zech's logarithms", IEEE Trans. IT 1990).  Work that lists
a field is Theta(q^d), about the cost of the build, so the tables are bought
exactly where they repay it, and a field that nothing lists stays on the
coordinate arithmetic of the `FieldCtx` methods.  `_build_logs` builds the
tables with those methods and then binds its lookups on the instance under
the names `add`, `neg`, `mul`, `inv`, `pow` and `frobenius`, so the class
methods stay the tables' test oracle.  The build keeps zech, n = q^d - 1,
log(-1) and q^i mod n on the instance for exponent arithmetic
(`ore.ore_mul_logs`).  A base field F_q with e > 1 follows the same rule:
`_BaseOps` lists it whenever it can be listed.  A product's fold of
y^{d+i}, a Frobenius step and `embed` each sum F_q-multiples of sparse rows,
in the one loop `_BaseOps.combine`.

All contexts are canonical: both moduli are the least monic irreducibles of
their degree (coefficient sequences compared as base-q / base-p integers), so
two builds of the same (p, e, d) agree bit for bit.  The search tests the
candidates in that order with Ben-Or's irreducibility test, which is exact,
so it picks the same moduli as trial division with far fewer divisions.
"""

from __future__ import annotations

import contextlib
import functools
import operator
import os
from typing import Sequence

from .errors import (
    ContextMismatch,
    DegreeNotDividing,
    DivisionByZero,
    NoIrreducibleFound,
    NotPrime,
    SizeCapExceeded,
)

FieldElem = tuple  # length-d tuple of base ints; alias for readability

DEFAULT_SIZE_CAP = 2**26
ENUMERATION_CAP = 2**16  # largest field `subfield_elements` lists


def size_cap() -> int:
    """Largest ambient field size allowed: $DRINFELD_SIZE_CAP, else DEFAULT_SIZE_CAP."""
    raw = os.environ.get("DRINFELD_SIZE_CAP")
    if not raw:
        return DEFAULT_SIZE_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"DRINFELD_SIZE_CAP must be a positive integer, got {raw!r}")
    return cap


def check_size_cap(p: int, e: int, d: int) -> None:
    """Raise SizeCapExceeded if F_{(p^e)^d} would pass the size cap."""
    cap = size_cap()
    if p ** (e * d) > cap:
        raise SizeCapExceeded(f"p^(e*d) = {p}^{e * d} exceeds cap {cap}")


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin to the prime bases 2, ..., 41, which is exact
    below psi_13 = 3,317,044,064,679,887,385,961,981 (Sorenson and Webster,
    "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017); at or
    above psi_13 it raises SizeCapExceeded."""
    psi13 = 3_317_044_064_679_887_385_961_981
    if n >= psi13:
        raise SizeCapExceeded(f"primality is decided only below {psi13}, got {n}")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    s, odd = 0, n - 1  # n - 1 = 2^s odd
    while odd % 2 == 0:
        s, odd = s + 1, odd // 2
    for a in bases:
        x = pow(a, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list:
    """Distinct prime factors of n >= 1 in increasing order, by trial division."""
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# generic dense polynomials over a small field given by an "ops" object
# (elements are ints; ops is a `_BaseOps`)

def poly_trim(c: Sequence[int]) -> tuple:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def poly_add(a, b, ops) -> tuple:
    return _poly_sub_scaled(a, ops.neg(1), b, ops)


def poly_sub(a, b, ops) -> tuple:
    return _poly_sub_scaled(a, 1, b, ops)


def _poly_sub_scaled(a, c, b, ops) -> tuple:
    """a - c b, padded to one length and taken in one row operation."""
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return poly_trim(ops.sub_row(a, c, b))


def poly_mul(a, b, ops) -> tuple:
    if not a or not b:
        return ()
    out, n = [0] * (len(a) + len(b) - 1), len(b)
    for i, x in enumerate(a):
        if x:
            out[i : i + n] = ops.sub_row(out[i : i + n], ops.neg(x), b)
    return poly_trim(out)


def poly_divmod(a, b, ops) -> tuple:
    """Quotient and remainder of dense polynomials; b must be nonzero."""
    b = poly_trim(b)
    if not b:
        raise DivisionByZero("polynomial division by zero")
    a = list(a)
    db = len(b) - 1
    lb_inv = ops.inv(b[-1])
    q = [0] * max(len(a) - db, 0)
    # clear the coefficient of y^{shift + db} for each shift, top down
    for shift in range(len(a) - 1 - db, -1, -1):
        c = a[shift + db]
        if c:
            q[shift] = c = ops.mul(c, lb_inv)
            a[shift : shift + db + 1] = ops.sub_row(a[shift : shift + db + 1], c, b)
    return poly_trim(q), poly_trim(a[:db])


def poly_mod(a, b, ops) -> tuple:
    return poly_divmod(a, b, ops)[1]


def poly_inv_mod(a, modulus, ops) -> tuple:
    """Inverse of a modulo an irreducible modulus, by extended Euclid; a must be nonzero."""
    r0, r1 = poly_trim(a), modulus
    s0, s1 = (1,), ()
    while r1:
        q, r = poly_divmod(r0, r1, ops)
        r0, r1 = r1, r
        s0, s1 = s1, poly_sub(s0, poly_mul(q, s1, ops), ops)
    lead_inv = ops.inv(r0[-1])
    return tuple(ops.mul(lead_inv, c) for c in s0)


def _poly_from_index(idx: int, deg: int, size: int) -> tuple:
    """Monic polynomial of given degree whose low coefficients encode idx base `size`."""
    coeffs = []
    for _ in range(deg):
        coeffs.append(idx % size)
        idx //= size
    coeffs.append(1)
    return tuple(coeffs)


def _is_irreducible(f, ops) -> bool:
    """Ben-Or's test: f of degree d >= 1 over F_Q (Q = ops.size) is irreducible
    iff gcd(f, y^{Q^i} - y) = 1 for 1 <= i <= d/2, since a reducible f has an
    irreducible factor of some degree i <= d/2 and y^{Q^i} - y is the product
    of all monic irreducibles of degree dividing i (Ben-Or, FOCS 1981; Shoup,
    "A Computational Introduction to Number Theory and Algebra", ch. 20).
    The first gcd, with y^Q - y, finds every root in O(log Q) polynomial
    steps, so no candidate is scanned point by point.
    """
    deg = len(f) - 1
    if deg <= 0:
        return False
    y = h = (0, 1)
    for _ in range(deg // 2):
        # h <- h^Q mod f, so h = y^{Q^i} mod f
        r = h
        for bit in bin(ops.size)[3:]:
            r = poly_mod(poly_mul(r, r, ops), f, ops)
            if bit == "1":
                r = poly_mod(poly_mul(r, h, ops), f, ops)
        h = r
        a, b = f, poly_sub(h, y, ops)
        while b:
            a, b = b, poly_mod(a, b, ops)
        if len(a) > 1:
            return False
    return True


def least_irreducible(deg: int, ops) -> tuple:
    """Least monic irreducible of the given degree, coefficient order ascending.

    Above degree 1 a candidate with constant term 0 is divisible by y, so
    only the indices with a nonzero low digit are tested."""
    for idx in range(ops.size**deg):
        if deg > 1 and idx % ops.size == 0:
            continue
        f = _poly_from_index(idx, deg, ops.size)
        if _is_irreducible(f, ops):
            return f
    raise NoIrreducibleFound(f"no monic irreducible of degree {deg} over size-{ops.size} field")


def _sparse(v: Sequence[int]) -> tuple:
    """The (index, entry) pairs of v's nonzero entries."""
    return tuple((t, c) for t, c in enumerate(v) if c)


# ---------------------------------------------------------------------------
# the two coefficient levels

class _BaseOps:
    """Arithmetic on F_q = F_p[x]/(h), elements packed as ints in [0, q).

    With e = 1 the five operations are the F_p methods below.  With e > 1,
    F_q is the field `FieldCtx(p, 1, e)`: h is its modulus and the packing
    is its `to_int` (value = sum(digit_i * p^i) over the coefficients of
    x^i).  __init__ lists that field when it can be listed, which tables it
    (the module's one table rule), and replaces the five operations:
    - for every F_{2^e}, add and sub by XOR of the packed digits and neg by
      the identity;
    - for a tabled F_{2^e}, mul and inv by int lookups read off its tables.
      With n = q - 1 and its primitive g, exp[k] = g^(k mod n) below 2n and
      0 from 2n to 4n, and log = exp^{-1} with log 0 = 2n, so a b =
      exp[log a + log b] needs no test for zero;
    - otherwise by that field's operation, computed once per argument tuple.
    """

    def __init__(self, p: int, e: int):
        self.p = p
        self.e = e
        self.size = p**e
        if e == 1:
            self.modulus = (0, 1)  # x, the least monic of degree 1
            return
        f = FieldCtx(p, 1, e)
        self.modulus = f.ext_modulus
        self._unpack, self._pack = f.from_int, f.to_int
        with contextlib.suppress(SizeCapExceeded):
            f.all_elements()  # tables F_q, so the operations read below are lookups
        names = ("add", "sub", "neg", "mul", "inv")
        if p == 2:  # digits add mod 2, so a sum of packed ints is their XOR
            self.add = self.sub = operator.xor
            self.neg = lambda a: a
            if f._log is not None:
                self._use_tables([f.to_int(x) for x in f._exp[: self.size - 1]])
                return
            names = ("mul", "inv")
        for name in names:
            op = getattr(f, name)
            lifted = lambda *a, op=op: self._pack(op(*map(self._unpack, a)))
            setattr(self, name, functools.cache(lifted))

    def _use_tables(self, exp: list) -> None:
        """mul and inv of F_{2^e} on exp = [g^0, ..., g^{n-1}]."""
        n = self.size - 1
        log = [2 * n] * self.size
        for k, v in enumerate(exp):
            log[v] = k
        exp = exp + exp + [0] * (2 * n + 1)

        def inv(a):
            if a == 0:
                raise DivisionByZero("inverse of 0 in F_q")
            return exp[n - log[a]]

        self.mul = lambda a, b: exp[log[a] + log[b]]
        self.inv = inv

    # F_p; an element is its one digit

    def _unpack(self, a: int) -> tuple:
        return (a,)

    def _pack(self, digits: Sequence[int]) -> int:
        return digits[0]

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of 0 in F_q")
        return pow(a, -1, self.p)

    # row helpers: one call per row, and for e = 1 no method call per entry

    def scale_row(self, c, row) -> list:
        """c row, entrywise."""
        if self.e == 1:
            p = self.p
            return [c * v % p for v in row]
        mul = self.mul
        return [mul(c, v) for v in row]

    def sub_row(self, a, c, b) -> list:
        """a - c b, entrywise."""
        if self.e == 1:
            p = self.p
            return [(u - c * v) % p for u, v in zip(a, b)]
        sub, mul = self.sub, self.mul
        return [sub(u, mul(c, v)) for u, v in zip(a, b)]

    def combine(self, acc, coeffs, rows) -> tuple:
        """acc + sum of c row over coeffs and sparse (index, entry) rows; for
        e = 1 the sums run on plain ints, reduced mod p once at the end."""
        acc = list(acc)
        if self.e == 1:
            for c, row in zip(coeffs, rows):
                if c:
                    for t, r in row:
                        acc[t] += c * r
            p = self.p
            return tuple([v % p for v in acc])
        add, mul = self.add, self.mul
        for c, row in zip(coeffs, rows):
            if c:
                for t, r in row:
                    acc[t] = add(acc[t], mul(c, r))
        return tuple(acc)


class FieldCtx:
    """Immutable description of F_{q^d}; owns all element arithmetic.

    Elements are tuples of length d of base ints (see module docstring).
    """

    def __init__(self, p: int, e: int, d: int):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if e < 1 or d < 1:
            raise ValueError("extension degrees must be positive")
        check_size_cap(p, e, d)
        self.p = p
        self.e = e
        self.d = d
        self._hash = hash((p, e, d))  # every cached successor lookup hashes its field
        self.q = p**e
        self._bops = _BaseOps(p, e)
        self.base_modulus = self._bops.modulus
        self.ext_modulus = least_irreducible(d, self._bops)
        self.zero: FieldElem = (0,) * d
        self.basis = tuple(self._pad((0,) * t + (1,)) for t in range(d))  # 1, y, ..., y^{d-1}
        self.one: FieldElem = self.basis[0]
        # y^{d+i} reduced mod ext_modulus, for multiplication reduction
        self._high_pows = [
            _sparse(poly_mod((0,) * (d + i) + (1,), self.ext_modulus, self._bops))
            for i in range(d - 1)
        ]
        self._subfield_cache: dict = {}  # m -> the elements of F_{q^m}
        self._subfield_bases: dict = {}  # m -> an F_q-basis of F_{q^m}
        self._basis_frob = [self.basis]  # i -> (y^t)^{q^i} for each t, grown by `basis_frobenius`
        self._log = None  # element -> k with g^k = element (zero -> None), once listed
        self.inv = functools.cache(self.inv)  # one extended Euclid per element, until tabled

    def _build_logs(self) -> None:
        """exp[k] = g^k, log = exp^{-1} with zero -> None, and zech[k] = log(1 + g^k);
        then add, neg, mul, inv, pow and frobenius bound on this instance as
        lookups in them.

        Any primitive g gives the same arithmetic.  For g = y + c the step
        x -> x g is a shift, one fold of y^d = -(f_0 + ... + f_{d-1} y^{d-1})
        and c x, so the first such g that is primitive makes a cheap table;
        where none is (F_{2^9}), the least primitive g in from_int order is
        stepped by the coordinate `mul`.  The build calls the class methods
        by name, so it never runs on lookups bound earlier.
        """
        n, d, ops, f = self.q**self.d - 1, self.d, self._bops, self.ext_modulus
        one, zero = self.one, self.zero
        primes = _prime_factors(n)

        def primitive(g):
            return g != zero and all(FieldCtx.pow(self, g, n // r) != one for r in primes)

        for c in range(self.q):
            def step(x, neg_c=ops.neg(c)):
                xy = ops.sub_row((0,) + x, x[-1], f)[:-1]  # its top entry is x_{d-1} - x_{d-1} = 0
                return tuple(ops.sub_row(xy, neg_c, x) if neg_c else xy)

            if primitive(step(one)):
                break
        else:
            g = next(g for g in map(self.from_int, range(1, n + 1)) if primitive(g))
            step = functools.partial(FieldCtx.mul, self, g)
        exp = [one]
        for _ in range(n - 1):
            exp.append(step(exp[-1]))
        log = dict(zip(exp, range(n)))
        log[zero] = None
        # 1 + g^k differs from g^k only in coordinate 0
        zech = [log[(ops.add(x[0], 1),) + x[1:]] for x in exp]
        # doubled, so a sum or difference of two logs needs no reduction
        exp, zech = exp + exp, zech + zech
        half = n // 2 if self.p > 2 else 0  # -1 = g^{n/2} for odd q
        qpow = [self.q**i % n for i in range(d)]  # x^{q^i} = g^{k q^i}
        self._exp, self._log = exp, log
        # the exponent arithmetic of `ore.ore_mul_logs` and the isogeny forms
        self._zech, self._n, self._log_neg1, self._qpow = zech, n, half, qpow
        # for an element the log is None exactly at zero

        def add(x, y):
            lx, ly = log[x], log[y]
            if lx is None:
                return y
            if ly is None:
                return x
            k = zech[ly - lx]  # g^lx + g^ly = g^lx (1 + g^{ly - lx})
            return zero if k is None else exp[lx + k]

        def neg(x):
            k = log[x]
            return x if k is None else exp[k + half]

        def mul(x, y):
            lx, ly = log[x], log[y]
            if lx is None or ly is None:
                return zero
            return exp[lx + ly]

        def inv(x):
            k = log[x]
            if k is None:
                raise DivisionByZero("inverse of 0")
            return exp[n - k]

        def power(x, e):
            k = log[x]
            if k is None:
                return inv(x) if e < 0 else zero if e else one  # inv raises at zero
            return exp[k * e % n]

        def frobenius(x, i=1):
            k = log[x]
            return x if k is None else exp[k * qpow[i % d] % n]

        self.add, self.neg, self.mul = add, neg, mul
        self.inv, self.pow, self.frobenius = inv, power, frobenius

    @functools.cached_property
    def _frob_y(self) -> list:
        """(y^t)^q for each basis power; coefficients live in F_q and are fixed
        by x -> x^q, so the q-Frobenius is F_q-linear in the coordinates.
        Built on first use, so a field listed before its first Frobenius builds
        it only for an oracle."""
        return [_sparse(FieldCtx.pow(self, u, self.q)) for u in self.basis]

    # -- representation helpers ------------------------------------------------

    def _pad(self, coeffs: Sequence[int]) -> FieldElem:
        return tuple(coeffs) + (0,) * (self.d - len(coeffs))

    def from_base(self, b: int) -> FieldElem:
        """Constant element of the F_q-subfield, given as a base int."""
        return self._pad((b,))

    def scalar(self, n: int) -> FieldElem:
        """Integer constant mapped into the prime subfield."""
        return self.from_base(n % self.p)

    def to_int(self, x: FieldElem) -> int:
        v = 0
        for c in reversed(x):
            v = v * self.q + c
        return v

    def from_int(self, v: int) -> FieldElem:
        out = []
        for _ in range(self.d):
            out.append(v % self.q)
            v //= self.q
        return tuple(out)

    def format_elem(self, x: FieldElem) -> str:
        """Canonical text form: base-p digits, inner (x-)coefficients first."""
        digits = []
        for c in x:
            digits.extend(self._bops._unpack(c))
        return "[" + ",".join(str(t) for t in digits) + "]"

    def parse_elem(self, s: str) -> FieldElem:
        s = s.strip()
        if not (s.startswith("[") and s.endswith("]")):
            raise ValueError(f"bad element literal: {s!r}")
        digits = [int(t) for t in s[1:-1].split(",")] if s != "[]" else []
        if len(digits) != self.e * self.d:
            raise ValueError(f"expected {self.e * self.d} digits, got {len(digits)}")
        if any(t < 0 or t >= self.p for t in digits):
            raise ValueError("digits out of range")
        coeffs = []
        for i in range(self.d):
            coeffs.append(self._bops._pack(digits[i * self.e : (i + 1) * self.e]))
        return tuple(coeffs)

    # -- arithmetic ------------------------------------------------------------

    # the coordinate arithmetic; a tabled field shadows add, neg, mul, inv, pow
    # and frobenius on the instance with lookups (`_build_logs`)

    def add(self, x: FieldElem, y: FieldElem) -> FieldElem:
        """Plain ints mod p for e = 1, else F_q's addition (`_BaseOps.add`)
        per coordinate."""
        if self.e == 1:
            p = self.p
            return tuple([(a + b) % p for a, b in zip(x, y)])
        return tuple(map(self._bops.add, x, y))

    def sub(self, x: FieldElem, y: FieldElem) -> FieldElem:
        return self.add(x, self.neg(y))

    def neg(self, x: FieldElem) -> FieldElem:
        return self.base_scale(self.p - 1, x)  # -1 packs to p - 1 for every e

    def mul(self, x: FieldElem, y: FieldElem) -> FieldElem:
        """Schoolbook product with y^{d+i} folded back by `_high_pows`.

        For e = 1 and d (p-1)^2 < 256 the convolution is one int product of
        the coordinate vectors packed a byte per coefficient (Kronecker
        substitution): no sum overflows its byte, so the bytes of the product
        are the sums.
        """
        d, ops = self.d, self._bops
        if self.e == 1 and d * (self.p - 1) ** 2 < 256:
            prod = int.from_bytes(bytes(x), "little") * int.from_bytes(bytes(y), "little")
            out = prod.to_bytes(2 * d, "little")
        else:
            add, mul = ops.add, ops.mul
            out = [0] * (2 * d - 1)
            for i, a in enumerate(x):
                if a:
                    for j, b in enumerate(y):
                        if b:
                            out[i + j] = add(out[i + j], mul(a, b))
        return ops.combine(out[:d], out[d:], self._high_pows)

    def base_scale(self, b: int, x: FieldElem) -> FieldElem:
        return tuple(self._bops.scale_row(b, x))

    def inv(self, x: FieldElem) -> FieldElem:
        """By the extended Euclid, `poly_inv_mod`."""
        if x == self.zero:
            raise DivisionByZero("inverse of 0")
        return self._pad(poly_inv_mod(x, self.ext_modulus, self._bops))

    def pow(self, x: FieldElem, n: int) -> FieldElem:
        """x^n by square-and-multiply on the coordinate `mul`; n < 0 inverts x."""
        if n < 0:
            x, n = self.inv(x), -n
        if n == 0:
            return self.one
        # left to right from the top bit: one squaring per lower bit
        mul, r = FieldCtx.mul, x
        for bit in bin(n)[3:]:
            r = mul(self, r, r)
            if bit == "1":
                r = mul(self, r, x)
        return r

    def frobenius(self, x: FieldElem, i: int = 1) -> FieldElem:
        """x^{q^i}; x^{q^d} = x, so i wraps mod d.  x -> x^q fixes F_q, so each
        step is the F_q-linear map sending the coordinates of x to their
        combination of `_frob_y`."""
        combine, rows = self._bops.combine, self._frob_y
        for _ in range(i % self.d):
            x = combine(self.zero, x, rows)
        return x

    def basis_frobenius(self, i: int) -> tuple:
        """(y^t)^{q^i} for each basis power y^t, i mod d: the columns of the
        i-th Frobenius power.  Each power is built once per field, one
        Frobenius step from the one below it, so at most d^2 elements are kept."""
        images = self._basis_frob
        while len(images) <= i % self.d:
            images.append(tuple(self.frobenius(u, 1) for u in images[-1]))
        return images[i % self.d]

    def trace_partial(self, x: FieldElem, l: int) -> FieldElem:
        """tr_l(x) = sum of x^{q^i} for 0 <= i < l."""
        acc, cur = self.zero, x
        for i in range(l):
            if i:
                cur = self.frobenius(cur, 1)
            acc = self.add(acc, cur)
        return acc

    def _check_divides(self, m: int) -> None:
        if m < 1 or self.d % m != 0:
            raise DegreeNotDividing(f"{m} does not divide ambient degree {self.d}")

    def in_subfield(self, x: FieldElem, m: int) -> bool:
        """True iff x^{q^m} = x, i.e. x lies in F_{q^m} inside this field."""
        self._check_divides(m)
        return self.frobenius(x, m) == x

    def subfield_elements(self, m: int) -> list:
        """All q^m elements of F_{q^m} inside this field, in canonical order.

        This is the one place that lists a whole field, so it alone reads
        ENUMERATION_CAP and refuses a field of more elements.  Counts that
        list nothing (F and G level sizes) answer to the size cap alone.
        With m = d it tables the field first (see the module docstring).
        """
        self._check_divides(m)
        if self.q**m > ENUMERATION_CAP:
            raise SizeCapExceeded(f"q^m = {self.q}^{m} exceeds enumeration cap {ENUMERATION_CAP}")
        if m == self.d and self._log is None:
            self._build_logs()
        cached = self._subfield_cache.get(m)
        if cached is None:
            cached = self._subfield_cache[m] = tuple(self.span_elements(self.subfield_basis(m)))
        return list(cached)

    def subfield_basis(self, m: int) -> tuple:
        """An F_q-basis of F_{q^m} inside this field, listing nothing: the
        kernel of the F_q-linear map u -> u^{q^m} - u, whose fixed points
        F_{q^m} are."""
        self._check_divides(m)
        basis = self._subfield_bases.get(m)
        if basis is None:
            from .linalg import solve

            cols = [self.sub(self.frobenius(u, m), u) for u in self.basis]
            basis = self._subfield_bases[m] = solve(tuple(zip(*cols)), self.zero, self._bops)[1]
        return basis

    def span_elements(self, basis) -> list:
        """All F_q-linear combinations of the basis vectors, in canonical order."""
        span = [self.zero]
        for b in basis:
            layer = list(span)
            for s in range(1, self.q):
                sb = self.base_scale(s, b)
                layer.extend(self.add(v, sb) for v in span)
            span = layer
        span.sort(key=self.to_int)
        return span

    def all_elements(self) -> list:
        return self.subfield_elements(self.d)

    # contexts with equal parameters are interchangeable
    def __eq__(self, other):
        return (
            isinstance(other, FieldCtx)
            and (self.p, self.e, self.d) == (other.p, other.e, other.d)
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FieldCtx(p={self.p}, e={self.e}, d={self.d})"


@functools.lru_cache(maxsize=None)
def _make_field_cached(p: int, e: int, d: int, cap: int) -> FieldCtx:
    return FieldCtx(p, e, d)


def make_field(p: int, e: int, d: int) -> FieldCtx:
    """Canonical context for F_{(p^e)^d}; deterministic across runs.

    The current size cap is part of the cache key, so a lowered cap is
    enforced even for a field built earlier.
    """
    return _make_field_cached(p, e, d, size_cap())


# ---------------------------------------------------------------------------
# canonical embeddings along the tower of canonical contexts

_embed_cache: dict = {}


def embed(x: FieldElem, src: FieldCtx, dst: FieldCtx) -> FieldElem:
    """Map x from a canonical context into a larger one with src.d | dst.d.

    Sends the generator y of src to the least root (canonical order) of
    src.ext_modulus inside dst.  Both contexts must share (p, e); only
    canonically constructed contexts are supported.
    """
    if (src.p, src.e) != (dst.p, dst.e):
        raise ContextMismatch("contexts have different base fields")
    if dst.d % src.d != 0:
        raise DegreeNotDividing(f"{src.d} does not divide {dst.d}")
    if src.d == dst.d:
        return x
    key = (src.p, src.e, src.d, dst.d)
    powers = _embed_cache.get(key)
    if powers is None:
        root = None
        for cand in dst.subfield_elements(src.d):
            acc = dst.zero
            for c in reversed(src.ext_modulus):
                acc = dst.add(dst.mul(acc, cand), dst.from_base(c))
            if acc == dst.zero:
                root = cand
                break
        if root is None:
            raise NoIrreducibleFound("modulus has no root in target subfield")
        powers = [dst.one]
        for _ in range(src.d - 1):
            powers.append(dst.mul(powers[-1], root))
        _embed_cache[key] = powers = [_sparse(v) for v in powers]
    return dst._bops.combine(dst.zero, x, powers)
