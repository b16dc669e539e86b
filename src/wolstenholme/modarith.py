"""Exact arithmetic in Z/pZ and Z/p^2: the foundation for every other module.

Residues are plain Python ints kept canonical in [0, m).  The Prime object
bundles a validated odd prime p >= 5 with factorial tables mod p and a few
lookup caches, filled as they are read (binomial rows, packed forms, power
columns with their table of smallest prime factors, and packed stride
tables), that the exhaustive sweeps and the
brute oracle lean on in hot verification loops.  A power row base^e is kept
only packed; a weighted row C(n, i) base^i is built on each read and cached
nowhere.  Prime.unpack reduces a combination of packed rows slot by slot
once it is unpacked; Prime.reduce_slots reduces every slot of a packed int
mod p at once, by a slot-wise Barrett step, before it is unpacked.  conv
gives one coefficient of a product of two shifted binomials, the sum that
the triple closed forms and the weighted-sum identities share.  It reads
only the factorial tables and caches nothing, at a cost of O(window) per
call, so sampled runs at large p hold no rows.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Sequence
from itertools import islice, repeat
from math import gcd, isqrt
from operator import mod, mul

from .errors import (
    HypothesisViolationError,
    NotInvertibleError,
    NotPrimeError,
    TooSmallError,
    TopOutOfRangeError,
    ZeroDenominatorError,
)


def is_prime(n: int) -> bool:
    """Deterministic trial division up to sqrt(n)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def check_prime(p: int) -> None:
    """Validate p as Prime(p) does, building nothing: NotPrimeError for
    composites and TooSmallError for p < 5 (p = 2, 3 are excluded: several
    congruences need p >= 5 and nonempty {1,...,p-2})."""
    if p < 5:
        raise TooSmallError(f"p = {p}: moduli below 5 are not supported")
    if not is_prime(p):
        raise NotPrimeError(f"p = {p} is composite")


# the array type code of each slot width that a native little-endian array
# holds; empty on a big-endian host, where every width takes the byte path
_SLOT_CODES = {array(code).itemsize: code for code in "QIHB"} if sys.byteorder == "little" else {}


# A Prime builds each positive power column by the sieve (see
# _sieve_column) until it has built p / _FILL_DIVISOR of them that way.
# Each later miss at e fills the run of missing columns that ends at e, up
# from the nearest cached column below it, by one running product.  That is
# ski rental.  All fills together build at most p columns, which costs about
# as much as p/2 sieve columns at p = 257 (19 against 40 us a column) and at
# p = 1009 (104 against 210 us); the smallest-prime-factor table costs 22 and
# 40-80 us once per Prime.  p/4 lies below that break-even, since a sampled
# run reads almost every column anyway, and above five, so a request that
# reads few columns, such as an eval of up to five terms at p >= 31, never
# fills.  Column time per pass of the sampled-verify benchmark workload
# (13 Primes at p = 257 that read 241-256 positive columns each; 2-core VM,
# Python 3.11): fill after p/2 0.11-0.15 s (seed 1), p/4 0.09-0.13 s and p/8
# 0.08-0.13 s (seeds 1 and 2), against 0.12-0.17 s at p/4 with one pow per
# entry.  p/8 was ahead by about 5 ms of a 0.6 s pass, inside the spread,
# and would fill a five-term eval at p = 31.  verify --theorems thm3.6
# --primes 10007 --budget 1000 builds 1013 columns, none filled at any of
# the three: 3.3-3.6 s and 38 MB, against 7.8-9.1 s and 38 MB with one pow
# per entry.
_FILL_DIVISOR = 4


def pack_slots(values, width: int) -> int:
    """values as one int, values[s] in bytes s*width .. s*width+width-1,
    little-endian; every value must lie in [0, 2^(8 width))."""
    code = _SLOT_CODES.get(width)
    if code is None:
        return int.from_bytes(b"".join([v.to_bytes(width, "little") for v in values]), "little")
    return int.from_bytes(array(code, values), "little")


def unpack_slots(packed: int, width: int, count: int) -> Sequence[int]:
    """The count slots of a nonnegative int, width bytes each, as a sequence
    (a memoryview on the native path): the inverse of pack_slots.
    OverflowError if packed does not fit in count slots."""
    buf = packed.to_bytes(count * width, "little")
    code = _SLOT_CODES.get(width)
    if code is None:
        return [int.from_bytes(buf[i : i + width], "little") for i in range(0, len(buf), width)]
    return memoryview(buf).cast(code)


class Prime:
    """Validated prime modulus p >= 5 with tables of i! and (i!)^-1 mod p.

    Immutable after construction (the internal caches only memoize pure
    functions), so instances are safe to share.  Six of its seven lookup
    caches (binomial rows, packed power rows, packed binomial rows, power
    columns, stride tables and Barrett masks) are dicts keyed by top, base,
    exponent or slot count, and hold only the entries read so far, so a
    Prime costs its two factorial tables until a route reads more.  The
    seventh is the smallest prime factor of every x < p, one array of p
    entries of column_code (2 KB at p = 1009, 4 MB at p = 1000003), built
    with the first positive power column.  powers and weighted_row cache
    nothing.  pack and unpack turn a row into one packed int and a
    combination of packed rows back into residues.  The power columns that
    the brute oracle reads, one per exponent |e| <= p-1, hold at most 2p-1
    columns, p entries of column_code each, at most 4 bytes an entry below
    p = 2^32: about 4 MB at p = 1009.  A positive column is built by the
    sieve, pow at each prime base and the product of two earlier entries at
    each composite one, until p / _FILL_DIVISOR (p/4) of them have been
    built that way; each later miss at e fills the missing columns up to e
    from the nearest cached one below it, by x^e = x^(e-1) x.  Column -1,
    the inverse map x -> x^-1 (0 -> 0), comes from the factorial tables,
    and column -e is column e read through it, (x^-1)^e.  So every entry is
    an exact power of its own base, with no exponent reduced mod p-1, and
    reading it is still brute force.

    The stride tables, one per base v (see stride_table), are p (2p-2) slots
    of reduce_width bytes each.  At most p of them exist, about 2.7 KB each
    at p = 19 (49 KB for the 18 nonzero bases) and 7.4 KB at p = 31
    (0.2 MB); only the exhaustive identity sweeps build them.
    """

    __slots__ = ("p", "fact", "inv_fact", "pack_width", "column_code", "reduce_width",
                 "_barrett", "_binom_rows", "_packed", "_packed_binom", "_columns",
                 "_pow_columns", "_spf", "_strides", "_reduce_masks")

    def __init__(self, p: int):
        check_prime(p)
        self.p = p
        fact = [1] * p
        for i in range(1, p):
            fact[i] = fact[i - 1] * i % p
        inv_fact = [1] * p
        inv_fact[p - 1] = mod_inverse(fact[p - 1], p)
        for i in range(p - 1, 0, -1):
            inv_fact[i - 1] = inv_fact[i] * i % p
        self.fact = tuple(fact)
        self.inv_fact = tuple(inv_fact)
        # bytes per slot of a packed power table, a power of two: a sum of
        # up to p products of two residues, at most p (p-1)^2, fits in it
        width = 1
        while p * (p - 1) ** 2 >> (8 * width):
            width *= 2
        self.pack_width = width
        # slot-wise Barrett reduction of slots below 2^bits, bits the length
        # of p (p-1)^2: shift k and multiplier c = ceil(2^k / p), in slots of
        # reduce_width bytes, wide enough to hold a slot value times c
        bits = (p * (p - 1) ** 2).bit_length()
        shift = bits + p.bit_length()
        mult = -(-(1 << shift) // p)
        width = 1
        while 8 * width < bits + mult.bit_length():
            width *= 2
        self.reduce_width = width
        self._barrett = (shift, mult)
        # the narrowest unsigned array type that holds every residue
        self.column_code = next(c for c in "BHIQ" if p <= 1 << 8 * array(c).itemsize)
        # lookup caches, each entry built on its first read
        self._binom_rows: dict[int, tuple[int, ...]] = {}
        self._packed: dict[int, int] = {}
        self._packed_binom: dict[int, int] = {}
        self._columns: dict[int, array] = {}
        self._pow_columns = 0  # positive columns built by _sieve_column so far
        self._spf: array | None = None  # smallest prime factor of each x < p
        self._strides: dict[int, int] = {}
        self._reduce_masks: dict[int, int] = {}

    def __repr__(self) -> str:
        return f"Prime({self.p})"

    def binom_row(self, n: int) -> tuple[int, ...]:
        """Row (C(n,0), ..., C(n,n)) mod p; requires 0 <= n < p."""
        if not 0 <= n < self.p:
            raise TopOutOfRangeError(f"binomial top {n} outside [0, {self.p})")
        row = self._binom_rows.get(n)
        if row is None:
            p, fn, inv = self.p, self.fact[n], self.inv_fact
            row = tuple(fn * inv[k] % p * inv[n - k] % p for k in range(n + 1))
            self._binom_rows[n] = row
        return row

    def powers(self, base: int) -> tuple[int, ...]:
        """(base^0, base^1, ..., base^(p-1)) mod p, cached nowhere."""
        p = self.p
        base %= p
        out = [1] * p
        for e in range(1, p):
            out[e] = out[e - 1] * base % p
        return tuple(out)

    def power_column(self, e: int) -> array:
        """(x^e mod p for x = 0..p-1), built once; requires |e| <= p-1.
        0^0 = 1.  For e < 0 the slot of x = 0, which has no inverse, holds 0.

        A positive column comes from the sieve (see _sieve_column): one
        pow(x, e, p) per prime x and col[s] col[x/s] per composite x, s its
        smallest prime factor, until p / _FILL_DIVISOR columns have been
        built that way; after that a miss fills the run of missing columns
        that ends at e, each the one below it times x, from the nearest
        cached column below e.  Column -1 is x^-1 =
        (x-1)! (x!)^-1 from the factorial tables, and column -e is
        power_column(e) read through it: x^-e = (x^-1)^e, as pow(x, -e, p)
        defines it.
        """
        p = self.p
        if not -p < e < p:
            raise HypothesisViolationError(f"|exponent| {e} exceeds p-1 = {p - 1}")
        col = self._columns.get(e)
        if col is None:
            if e == -1:
                col = array(self.column_code, [0])
                col.extend(map(mod, map(mul, self.fact, islice(self.inv_fact, 1, None)), repeat(p)))
            elif e < 0:
                twin = self.power_column(-e)
                col = array(self.column_code, map(twin.__getitem__, self.power_column(-1)))
            elif _FILL_DIVISOR * self._pow_columns >= p:
                self._fill_columns(e)
                return self._columns[e]
            else:
                col = self._sieve_column(e)
                self._pow_columns += 1
            self._columns[e] = col
        return col

    def _sieve_column(self, e: int) -> array:
        """Column e >= 0 in one ascending pass: pow(x, e, p) at each prime
        x, and col[s] col[x/s] at each composite x, s its smallest prime
        factor, two entries already built.  (st)^e = s^e t^e in the
        integers, so every entry is still x^e exactly."""
        p, spf = self.p, self._spf
        if spf is None:
            spf = self._spf = array(self.column_code, range(p))
            for q in range(isqrt(p - 1), 1, -1):  # the smallest q writes last
                spf[q * q :: q] = array(self.column_code, [q]) * ((p - 1 - q * q) // q + 1)
        vals = [0 ** e, 1]
        append = vals.append
        for x, s in zip(range(2, p), islice(spf, 2, None)):
            append(pow(x, e, p) if s == x else vals[s] * vals[x // s] % p)
        return array(self.column_code, vals)

    def _fill_columns(self, e: int) -> None:
        """Cache columns f..e, the run of missing exponents that ends at e,
        by one running product col(g) = col(g-1) x from the cached column
        f-1, or from x^0 = 1 when f = 0."""
        p, code, cols = self.p, self.column_code, self._columns
        f = e
        while f and f - 1 not in cols:
            f -= 1
        if f:
            col = cols[f - 1]
        else:
            col = cols[0] = array(code, [1]) * p
            f = 1
        for g in range(f, e + 1):
            col = cols[g] = array(code, [y * x % p for y, x in zip(col, range(p))])

    def pack(self, row) -> int:
        """row as one int, pack_width bytes per slot (see pack_slots)."""
        return pack_slots(row, self.pack_width)

    def unpack(self, packed: int, count: int) -> list[int]:
        """The first count slots of a combination of packed rows (see pack),
        each reduced mod p.  Every slot must hold at most p (p-1)^2, so that
        no carry crosses into the next one, and no slot past count may be
        nonzero."""
        p = self.p
        return [v % p for v in unpack_slots(packed, self.pack_width, count)]

    def packed_powers(self, base: int) -> int:
        """powers(base), packed, built once per base mod p: the only cached
        form of a power row.  Its p slots hold the residues base^e."""
        base %= self.p
        packed = self._packed.get(base)
        if packed is None:
            packed = self._packed[base] = self.pack(self.powers(base))
        return packed

    def packed_binom_row(self, n: int) -> int:
        """binom_row(n), packed; requires 0 <= n < p."""
        packed = self._packed_binom.get(n)
        if packed is None:
            packed = self._packed_binom[n] = self.pack(self.binom_row(n))
        return packed

    def weighted_row(self, n: int, base: int) -> tuple[int, ...]:
        """The coefficients of (1 + base x)^n mod p: w[i] = C(n,i) base^i for
        i = 0..n.  Requires 0 <= n < p.

        binom_row(n) times the n+1 powers of base, taken by a running
        product: O(n), whatever p, and cached nowhere.
        """
        p = self.p
        base %= p
        out = [1]
        x = 1
        for c in self.binom_row(n)[1:]:
            x = x * base % p
            out.append(c * x % p)
        return tuple(out)

    def stride_table(self, v: int) -> int:
        """T_v = sum over t = 0..p-1 of y^t (1+vx)^t with y = x^(2p-2), packed
        at reduce_width: weighted_row(t, v) from slot t (2p-2) on.  Built once
        per v mod p.

        A row of degree <= p-2 times T_v holds its product with (1+vx)^t at
        slots t (2p-2) .. t (2p-2) + 2p-3, so no two rows overlap, and each
        slot sums at most p-1 products of two residues, below 2^bits as
        reduce_slots requires.
        """
        v %= self.p
        table = self._strides.get(v)
        if table is None:
            stride = 2 * self.p - 2
            slots = []
            for t in range(self.p):
                w = self.weighted_row(t, v)
                slots += w
                slots += [0] * (stride - len(w))
            table = self._strides[v] = pack_slots(slots, self.reduce_width)
        return table

    def reduce_slots(self, packed: int, count: int) -> Sequence[int]:
        """The count slots of packed, reduce_width bytes each, every one
        reduced mod p, as one sequence (see unpack_slots).

        Every slot must hold some x < 2^bits, bits the length of p (p-1)^2.
        With k = bits + p.bit_length() and c = ceil(2^k / p), each slot's
        x c fits its slot, so ((packed c) >> k) masked to the low 8 width - k
        bits of each slot is floor(x c / 2^k) in every slot at once.  That is
        floor(x / p) exactly: with e = c p - 2^k < p, x c / 2^k = x/p + x e /
        (p 2^k), and x e < 2^k, so the excess stays below 1/p.  Subtracting p
        times those quotients leaves x mod p in every slot, no borrow
        crossing a slot.  OverflowError if packed has more than count slots.
        """
        shift, mult = self._barrett
        width = self.reduce_width
        mask = self._reduce_masks.get(count)
        if mask is None:
            mask = self._reduce_masks[count] = pack_slots(
                [(1 << (8 * width - shift)) - 1] * count, width)
        return unpack_slots(packed - self.p * ((packed * mult >> shift) & mask), width, count)


def conv(pr: Prime, a: int, b: int, m: int, n: int, t: int) -> int:
    """[x^t] (1+ax)^m (1+bx)^n, i.e. the sum over j of C(m, t-j) C(n, j)
    a^(t-j) b^j mod p, with C(., k) = 0 outside 0 <= k <= top.

    Only the window j = lo..hi of nonzero terms is read, straight from the
    factorial tables: C(m,t-j) C(n,j) = m! n! / ((t-j)! (m-t+j)! j! (n-j)!).
    The powers come from one Horner pass in a that carries b^j, and the sum
    is scaled once by m! n! a^(t-hi).  No inverse of a or b is taken, so
    zero bases need no special case, and nothing is cached: the cost is
    O(hi - lo) whatever m, n and the bases.
    """
    if t < 0:
        return 0
    lo = t - m
    if lo < 0:
        lo = 0
    hi = n if n < t else t
    if hi < lo:
        return 0
    p = pr.p
    if m >= p or n >= p:
        raise TopOutOfRangeError(f"binomial tops {(m, n)} outside [0, {p})")
    a %= p
    b %= p
    inv = pr.inv_fact
    k = m - t  # (m-t+j)! is inv[k + j]
    bj = pow(b, lo, p) if lo else 1
    acc = 0
    for j in range(lo, hi + 1):
        acc = (acc * a + inv[t - j] * inv[k + j] * inv[j] * inv[n - j] * bj) % p
        bj = bj * b % p
    if t > hi:
        acc *= pow(a, t - hi, p)
    return acc * pr.fact[m] * pr.fact[n] % p


def make_prime(p: int) -> Prime:
    """Validate p (see check_prime) and build its factorial tables."""
    return Prime(p)


def mod_inverse(a: int, modulus: int) -> int:
    """Inverse of a modulo modulus, by the built-in pow(a, -1, modulus).

    Works for prime-power moduli (p^2) where Fermat exponentiation does not.
    Raises NotInvertibleError when gcd(a, modulus) != 1.
    """
    a %= modulus
    try:
        return pow(a, -1, modulus)
    except ValueError:
        raise NotInvertibleError(
            f"{a} not invertible mod {modulus} (gcd = {gcd(a, modulus)})") from None


def binom(pr: Prime, n: int, k: int) -> int:
    """C(n, k) mod p for 0 <= n < p; returns 0 when k < 0 or k > n.

    Tops >= p are rejected rather than routed through Lucas: every formula in
    scope keeps tops <= p-1, so a large top is a caller bug.
    """
    if n < 0 or n >= pr.p:
        raise TopOutOfRangeError(f"binomial top {n} outside [0, {pr.p})")
    if k < 0 or k > n:
        return 0
    return pr.fact[n] * pr.inv_fact[k] % pr.p * pr.inv_fact[n - k] % pr.p


def fermat_reduce(pr: Prime, exp: int) -> int:
    """Reduce exp >= 1 into {1, ..., p-1} modulo p-1.

    Multiples of p-1 map to p-1 (not 0), so a^fermat_reduce(e) == a^e for
    every nonzero residue a.  Callers must not apply this to zero bases.
    """
    if exp < 1:
        raise HypothesisViolationError("fermat_reduce requires exp >= 1")
    r = exp % (pr.p - 1)
    return r if r else pr.p - 1


def pow_nonzero(pr: Prime, base: int, exp: int) -> int:
    """base^exp mod p for base not divisible by p; exp may be any integer.

    The exponent is reduced mod p-1 (valid by Fermat for nonzero bases), which
    is how negative symbolic exponents like a^(m-n) are realized.
    """
    b = base % pr.p
    if b == 0:
        raise ZeroDenominatorError("pow_nonzero requires a base nonzero mod p")
    return pow(b, exp % (pr.p - 1), pr.p)
