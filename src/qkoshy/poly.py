"""Dense univariate polynomials in q with arbitrary-precision integer coefficients.

A polynomial is stored as a tuple of coefficients in ascending order of
powers, so (1, 0, 2) is 1 + 2q^2.  Canonical form has no trailing zeros;
the zero polynomial is the empty tuple and its degree is the marker -1.
All arithmetic is exact: coefficients are plain Python ints and nothing
here ever rounds, normalizes a gcd, or cancels a rational form.

Multiplication dispatches between sparse schoolbook and Kronecker
substitution: one path for every sign, which packs each operand once
into a big integer of balanced digits (offset by half the digit base
when a coefficient is negative, as in Harvey's multipoint Kronecker
substitution) so that one CPython big-int product does the work.  A
digit takes exactly as many bytes as the product's coefficients need,
plus the spare top bit.  Coefficients go in, and come out, through
standard-library arrays of one word type, unsigned 8 bytes, one 8-byte
slice of every digit at a time: the slice's bytes are copied to and
from the packed integer's bytes by strided slices, so no Python code
runs per coefficient.  Both paths produce bit-identical results; the test suite
checks that on random inputs, at the digit-width and sign-bit
boundaries, and on each side of every digit width up to 28 bytes.

The factor 1 - q^a, which every Gaussian binomial, q-Catalan, q-ballot
and T-term quotient is built from, has its own two kernels on
coefficient lists: multiplying by it is one shifted subtract, and
dividing by it is one prefix sum over each residue class modulo a.
q_ratio runs every quotient of factors 1 - q^a by factors 1 - q^b on
them, after cancelling each factor that stands on both sides, and is
the only caller of either.  exact_div is long division, left for the
other divisors (the cyclotomic ones).
"""

from __future__ import annotations

import sys
from array import array
from collections import namedtuple
from itertools import accumulate, repeat
from operator import add, and_, lshift, neg, rshift, sub

from .errors import DivisionInexact, DomainError, UnsupportedDivisor

# Below this many nonzero terms on one side, schoolbook beats packing.
_SPARSE_CUTOFF = 16

# Kronecker digits are packed and unpacked through arrays of unsigned
# 8-byte words, one 8-byte slice of every digit at a time.
_WORD = "Q"
_WORD_MASK = (1 << 64) - 1

# Array words are in native byte order; packed integers are little-endian.
_SWAP = sys.byteorder == "big"


def _trim(coeffs):
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


class Poly:
    """An exact integer polynomial in q.

    >>> p = Poly(1, 1) * Poly(1, -1)
    >>> str(p)
    '1 - q^2'
    """

    __slots__ = ("coeffs",)

    def __init__(self, *coeffs):
        if len(coeffs) == 1 and isinstance(coeffs[0], (tuple, list)):
            coeffs = coeffs[0]
        object.__setattr__(self, "coeffs", _trim(coeffs))

    @classmethod
    def _raw(cls, coeffs):
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", _trim(coeffs))
        return p

    @classmethod
    def zero(cls):
        return cls._raw(())

    @classmethod
    def one(cls):
        return cls._raw((1,))

    @classmethod
    def q(cls):
        return cls._raw((0, 1))

    @classmethod
    def from_counts(cls, counts):
        """Sum of c * q^k over the items k -> c of a mapping; zero if empty."""
        out = [0] * (max(counts) + 1 if counts else 0)
        for k, c in counts.items():
            out[k] += c
        return cls._raw(out)

    @classmethod
    def monomial(cls, k, c=1):
        """c * q^k."""
        if k < 0:
            raise DomainError("monomial exponent must be >= 0, got %d" % k)
        return cls._raw((0,) * k + (c,))

    @property
    def degree(self):
        """Degree of the polynomial; -1 marks the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = Poly(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return Poly._raw(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        if isinstance(other, int):
            other = Poly(other)
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly._raw(out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = Poly(other)
        if not isinstance(other, Poly):
            return NotImplemented
        out = list(self.coeffs)
        b = other.coeffs
        if len(b) > len(out):
            out.extend([0] * (len(b) - len(out)))
        for i, c in enumerate(b):
            out[i] -= c
        return Poly._raw(out)

    def __rsub__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return Poly(other) - self

    def __mul__(self, other):
        if isinstance(other, int):
            return Poly._raw(tuple(c * other for c in self.coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero()
        na = len(a) - a.count(0)
        nb = len(b) - b.count(0)
        if min(na, nb) <= _SPARSE_CUTOFF:
            return Poly._raw(_mul_sparse(a, b, na, nb))
        return Poly._raw(_mul_kronecker(a, b))

    __rmul__ = __mul__

    def __call__(self, x):
        """Evaluate at an integer by Horner's rule."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- transforms ---------------------------------------------------

    def shift(self, k):
        """Multiply by q^k (k >= 0; 0 is the identity)."""
        if k < 0:
            raise DomainError("shift amount must be >= 0")
        if k == 0 or not self.coeffs:
            return self
        return Poly._raw((0,) * k + self.coeffs)

    def subs_power(self, k):
        """Substitute q -> q^k (k >= 1)."""
        if k < 1:
            raise DomainError("power substitution exponent must be >= 1")
        if k == 1 or not self.coeffs:
            return self
        out = [0] * ((len(self.coeffs) - 1) * k + 1)
        out[::k] = self.coeffs
        return Poly._raw(out)

    def negate_q(self):
        """Substitute q -> -q."""
        return Poly._raw(tuple(-c if i & 1 else c for i, c in enumerate(self.coeffs)))

    # -- rendering ----------------------------------------------------

    def __str__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            elif i == 1:
                body = "q" if mag == 1 else "%d*q" % mag
            else:
                body = "q^%d" % i if mag == 1 else "%d*q^%d" % (mag, i)
            if not terms:
                terms.append(body if c > 0 else "-" + body)
            else:
                terms.append(("+ " if c > 0 else "- ") + body)
        return " ".join(terms)

    def __repr__(self):
        return "Poly(%s)" % (", ".join(str(c) for c in self.coeffs) or "")


def _mul_one_minus(c, a):
    """Coefficients of (1 - q^a) * c, for a >= 1, as a new list: the low a
    entries of c (zero past its end), the shifted differences, then the
    negated top a entries."""
    out = list(c[:a])
    out += repeat(0, a - len(out))
    out += map(sub, c[a:], c)
    out += map(neg, c[-a:])
    return out


def _div_one_minus(c, a):
    """Coefficients of c / (1 - q^a) for a >= 1, as a new list, or None when
    1 - q^a does not divide c.

    The quotient is c * (1 + q^a + q^2a + ...), a prefix sum over each
    residue class modulo a.  Run over the whole of c, the sums hold the
    quotient below index len(c) - a, and the division is exact when the
    top a entries come out zero.
    """
    out = list(c)
    for r in range(min(a, len(out))):
        out[r::a] = accumulate(out[r::a])
    top = max(len(out) - a, 0)
    if any(out[top:]):
        return None
    del out[top:]
    return out


def q_ratio(c, tops, bottoms, what):
    """The coefficient list of c times the factors 1 - q^a, a in tops,
    over the factors 1 - q^b, b in bottoms.

    An exponent in both tops and bottoms cancels (as a multiset, with the
    first equal bottom), so it costs no pass; c itself comes back when
    every factor cancels, and c is never changed.  The multiplies come
    first, so every remaining division is exact when the ratio is a
    polynomial; one that is not raises DivisionInexact naming what and b.
    An exponent below 1 raises DomainError.
    """
    low = min(min(tops, default=1), min(bottoms, default=1))
    if low < 1:
        raise DomainError("q_ratio needs exponents >= 1, got %d" % low)
    bottoms = list(bottoms)
    for a in tops:
        if a in bottoms:
            bottoms.remove(a)
        else:
            c = _mul_one_minus(c, a)
    for b in bottoms:
        out = _div_one_minus(c, b)
        if out is None:
            raise DivisionInexact("%s: 1 - q^%d does not divide" % (what, b))
        c = out
    return c


def _mul_sparse(a, b, na, nb):
    if na > nb:
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            if c == 1:
                for j, d in enumerate(b):
                    if d:
                        out[i + j] += d
            else:
                for j, d in enumerate(b):
                    if d:
                        out[i + j] += c * d
    return out


def _mul_kronecker(a, b):
    """Product of two nonzero coefficient tuples by one big-int multiply.

    Each operand is packed once, one coefficient per digit of width
    bytes, into one integer.  The width is the fewest whole bytes that
    leave a spare top bit above every product coefficient, so signed
    operands are packed in balanced digits: each digit is offset by half
    the base, the offsets come back out as one repeated-digit integer,
    and the product is unpacked the same way.  Nonnegative operands need
    no offset.
    """
    amin, bmin = min(a), min(b)
    bound = min(len(a), len(b)) * max(max(a), -amin) * max(max(b), -bmin)
    width = bound.bit_length() // 8 + 1
    half = 1 << (8 * width - 1) if min(amin, bmin) < 0 else 0
    count = len(a) + len(b) - 1
    return _unpack(_pack(a, width, half) * _pack(b, width, half), width, count, half)


def _offsets(half, width, count):
    """The integer whose count digits of width bytes all equal half."""
    return int.from_bytes(half.to_bytes(width, "little") * count, "little")


def _pack(coeffs, width, half):
    digits = list(map(add, coeffs, repeat(half))) if half else coeffs
    buf = bytearray(width * len(coeffs))
    for t in range(0, width, 8):
        # bytes t .. t + 7 of every digit, as one word per digit
        part = map(rshift, digits, repeat(8 * t)) if t else digits
        words = array(_WORD, part if width - t <= 8 else map(and_, part, repeat(_WORD_MASK)))
        if _SWAP:
            words.byteswap()
        raw = words.tobytes()
        for p in range(min(8, width - t)):
            buf[t + p::width] = raw[p::8]
    value = int.from_bytes(buf, "little")
    return value - _offsets(half, width, len(coeffs)) if half else value


def _unpack(value, width, count, half):
    if half:
        value += _offsets(half, width, count)
    buf = value.to_bytes(width * count, "little")
    for t in range(0, width, 8):
        raw = bytearray(8 * count)
        for p in range(min(8, width - t)):
            raw[p::8] = buf[t + p::width]
        words = array(_WORD)
        words.frombytes(raw)
        if _SWAP:
            words.byteswap()
        digits = list(map(add, digits, map(lshift, words, repeat(8 * t)))) if t else words.tolist()
    return list(map(sub, digits, repeat(half))) if half else digits


def exact_div(a: Poly, b: Poly) -> Poly:
    """Quotient a / b when b divides a exactly.

    The divisor's leading coefficient must be +1 or -1 (UnsupportedDivisor
    otherwise); a nonzero remainder raises DivisionInexact carrying it.
    This is long division, whatever the divisor; in this package it
    serves the cyclotomic ones, and every quotient by factors 1 - q^b
    goes through q_ratio instead.
    """
    if not isinstance(a, Poly) or not isinstance(b, Poly):
        raise TypeError("exact_div expects Poly arguments")
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    lead = b.coeffs[-1]
    if lead not in (1, -1):
        raise UnsupportedDivisor(
            "divisor leading coefficient must be a unit, got %d" % lead
        )
    da, db = a.degree, b.degree
    rem = list(a.coeffs)
    quot = [0] * (da - db + 1)
    body = [(j, c) for j, c in enumerate(b.coeffs[:-1]) if c]
    for i in range(da - db, -1, -1):
        c = rem[i + db]
        if c:
            c *= lead  # lead is +-1 so this is the exact quotient coefficient
            quot[i] = c
            rem[i + db] = 0
            for j, bc in body:
                rem[i + j] -= c * bc
    if any(rem[:db]):
        raise DivisionInexact(
            "inexact division", remainder=Poly._raw(rem[:db])
        )
    return Poly._raw(quot)


class Shape(namedtuple("Shape",
                       "is_nonnegative is_reciprocal is_unimodal nonneg_prefix_degree")):
    __slots__ = ()


def shape(a: Poly) -> Shape:
    """Coefficient-shape report for a.

    Reciprocality and unimodality are judged over the support window from
    the lowest nonzero coefficient up to the degree, so q^2 + q^3 counts
    as reciprocal.  An interior zero between two positive coefficients
    breaks unimodality.  The zero polynomial satisfies all three.
    """
    c = a.coeffs
    if not c:
        return Shape(True, True, True, -1)
    neg = first_negative(c)
    w = c[_lowest(c):]
    return Shape(neg is None, w == w[::-1], unimodal_break_index(a) is None,
                 len(c) - 1 if neg is None else neg - 1)


def first_negative(c):
    """Index of the first negative entry of the coefficient sequence c, or
    None when there is none: one min over c when every entry is >= 0."""
    if not c or min(c) >= 0:
        return None
    return next(i for i, x in enumerate(c) if x < 0)


def _lowest(c):
    """Index of the lowest nonzero coefficient of a nonzero tuple."""
    low = 0
    while c[low] == 0:
        low += 1
    return low


def unimodal_break_index(a: Poly):
    """Index of the first coefficient that breaks unimodality, or None.

    Indices are absolute powers of q, not window offsets.
    """
    c = a.coeffs
    if not c:
        return None
    i = _lowest(c)
    top = len(c) - 1
    while i < top and c[i + 1] >= c[i]:
        i += 1
    while i < top and c[i + 1] <= c[i]:
        i += 1
    return None if i == top else i + 1


class RationalForm(namedtuple("RationalForm", "num den")):
    """A fraction of polynomials, never normalized; den must be nonzero."""

    __slots__ = ()

    def __new__(cls, num: Poly, den: Poly):
        if den.is_zero():
            raise ZeroDivisionError("rational form with zero denominator")
        return tuple.__new__(cls, (num, den))

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make too, so neither skips the check
        return cls(*iterable)

    def __str__(self):
        return "(%s) / (%s)" % (self.num, self.den)


def rational_equal(x: RationalForm, y: RationalForm) -> bool:
    """Cross-multiplied equality; no gcd, no cancellation, ever."""
    return x.num * y.den == y.num * x.den

