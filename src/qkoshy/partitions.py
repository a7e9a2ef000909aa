"""Constrained partition enumeration and the sign-reversing involution.

Partitions are tuples of weakly decreasing positive parts.  The pair
family at level r in context (n, j) consists of a strict partition mu
with r parts in [1, box] and a partition nu with exactly n + j - 2r parts
in [1, box], where box is n - 1 for j = 1 and n for j >= 2.  The
staircase cap mu_i <= box - i + 1 needs no enumeration of its own: it
follows from strictness, since mu_i <= mu_1 - i + 1.  level_family is
the one spelling of both families, which iter_pairs and the invT and
iepar rows read.  The involution moves the smallest repeated value of
the multiset mu + mu + nu between the two components, changing the level
by one and preserving 2|mu| + |nu|.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from collections import Counter
from functools import lru_cache
from itertools import product
from math import comb
from operator import ge, gt, neg

from .errors import DomainError, InvariantViolation, NoRepeatedPart, ScaleLimit
from .poly import Poly

ENUM_GUARD = 5_000_000


def enumerate_partitions(max_part: int, length: int, *, at_most: bool = False,
                         strict: bool = False, force: bool = False):
    """Partitions with parts in [1, max_part] and exactly `length` parts,
    or at most `length` with at_most, in descending lexicographic order,
    a prefix before its extensions.

    The prefixes are walked with an explicit stack over one shared list of
    parts, so no length reaches Python's recursion limit.  Popping a part
    pushes its next smaller sibling, then its largest child, so the child's
    subtree comes first and the stack holds two entries per level.  An
    upper estimate of the output size is guarded so runaway enumerations
    fail fast.
    """
    if max_part < 0 or length < 0:
        raise DomainError("need max_part, length >= 0")
    if length > sys.maxsize:
        raise OverflowError("a partition of %d parts is too long for a tuple" % length)
    # comb(top, low) >= comb(2*low, low) >= 2**low, so a low of the guard's
    # bit length already passes it and comb is computed only below that
    top = max_part if strict else max_part + length
    low = min(length, top - length)
    if not force and low > 0 and (low >= ENUM_GUARD.bit_length()
                                  or comb(top, low) > ENUM_GUARD):
        raise ScaleLimit("estimated comb(%d, %d) partitions exceeds guard %d"
                         % (top, low, ENUM_GUARD))
    if at_most or not length:
        yield ()
    # a strict exact walk takes no part too small to leave room below it
    # for the distinct parts still to come, so it visits no dead prefix
    tight = strict and not at_most
    parts = []
    # (prefix length before the part, the part)
    stack = [(0, max_part)] if length and max_part >= (length if tight else 1) else []
    while stack:
        k, v = stack.pop()
        del parts[k:]
        parts.append(v)
        k += 1
        if at_most or k == length:
            yield tuple(parts)
        if v > (length - k + 1 if tight else 1):
            stack.append((k - 1, v - 1))
        if k < length and v > strict:
            stack.append((k, v - strict))


def repetition_statistic(parts) -> int:
    """Number of distinct part values occurring at least twice."""
    return sum(1 for c in Counter(parts).values() if c >= 2)


def render_partition(parts) -> str:
    return "[" + ",".join(str(p) for p in parts) + "]"


def pair_box(n: int, j: int) -> int:
    return n - 1 if j == 1 else n


class PartitionPair:
    """Level-r object of the involution family in context (n, j).

    Immutable, and compared and hashed by value.  A __slots__ class, not a
    frozen dataclass, since the involution builds one per step.
    """

    __slots__ = ("mu", "nu", "n", "j")

    def __init__(self, mu: tuple, nu: tuple, n: int, j: int):
        if n < 1 or j < 1:
            raise InvariantViolation("need n >= 1 and j >= 1")
        box = pair_box(n, j)
        r = len(mu)
        # A strictly decreasing mu is positive when its last part is, and
        # its parts meet their caps box - i when its first part does, since
        # mu[i] <= mu[0] - i.  A weakly decreasing nu lies in [1, box] when
        # its end parts do.
        if not all(map(gt, mu, mu[1:])) or (mu and mu[-1] < 1):
            raise InvariantViolation("mu must be strictly decreasing and positive")
        if mu and mu[0] > box:
            raise InvariantViolation("mu part %d at position 1 exceeds cap %d" % (mu[0], box))
        want = n + j - 2 * r
        if len(nu) != want:
            raise InvariantViolation("nu needs exactly %d parts, got %d" % (want, len(nu)))
        if not all(map(ge, nu, nu[1:])) or (nu and (nu[-1] < 1 or nu[0] > box)):
            raise InvariantViolation("nu parts must weakly decrease within [1, %d]" % box)
        _set_mu(self, mu)
        _set_nu(self, nu)
        _set_n(self, n)
        _set_j(self, j)

    def __setattr__(self, name, value):
        raise AttributeError("PartitionPair is immutable")

    def __delattr__(self, name):
        raise AttributeError("PartitionPair is immutable")

    def _key(self):
        return self.mu, self.nu, self.n, self.j

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "PartitionPair(mu=%r, nu=%r, n=%r, j=%r)" % self._key()

    def __reduce__(self):
        return PartitionPair, self._key()

    @property
    def r(self) -> int:
        return len(self.mu)

    @property
    def weight(self) -> int:
        return 2 * sum(self.mu) + sum(self.nu)

    def render(self) -> str:
        return "(%s, %s)" % (render_partition(self.mu), render_partition(self.nu))


# the slot descriptors write past PartitionPair's own __setattr__
_set_mu, _set_nu, _set_n, _set_j = (getattr(PartitionPair, k).__set__
                                    for k in PartitionPair.__slots__)


def involution_step(pair: PartitionPair) -> PartitionPair:
    """Move the smallest repeated value of mu + mu + nu across the pair.

    Every part of mu counts twice, so that value x is the smaller of mu's
    last part and the smallest value repeated in nu, which one backward
    scan of the weakly decreasing nu finds.  When x is mu's last part, the
    part is dropped and (x, x) joins nu in its sorted place; otherwise two
    copies of x leave nu and x becomes mu's new last part.  Always an
    involution with the level changing by one.
    """
    mu, nu = pair.mu, pair.nu
    i = len(nu) - 1
    while i > 0 and nu[i] != nu[i - 1]:
        i -= 1
    if mu and (i <= 0 or mu[-1] <= nu[i]):
        x = mu[-1]
        at = bisect_right(nu, -x, key=neg)
        return PartitionPair(mu[:-1], nu[:at] + (x, x) + nu[at:], pair.n, pair.j)
    if i <= 0:
        raise NoRepeatedPart("no value repeats in the pair %s" % pair.render())
    return PartitionPair(mu + (nu[i],), nu[:i - 1] + nu[i + 1:], pair.n, pair.j)


def level_range(n: int, j: int) -> range:
    box = pair_box(n, j)
    return range(0, min(box, (n + j) // 2) + 1)


def level_family(n: int, j: int, r: int):
    """The level-r mu and nu families of context (n, j), as two lazy
    enumerate_partitions iterators.  A strict mu with parts at most box
    meets the staircase cap box - i at each position i by strictness."""
    box = pair_box(n, j)
    return (enumerate_partitions(box, r, strict=True),
            enumerate_partitions(box, n + j - 2 * r))


def iter_pairs(n: int, j: int, r: int):
    """The level-r pairs, nu varying fastest; product lists the nu family
    once and shares it among every mu."""
    for mu, nu in product(*level_family(n, j, r)):
        yield PartitionPair(mu, nu, n, j)


# -- generating polynomials of the three partition families ----------


@lru_cache(maxsize=4096)
def _box_gen(cap: int, length: int) -> Poly:
    """Weight polynomial of partitions with at most `length` parts, each
    at most `cap`, by the cell recurrence splitting on whether a part
    equal to cap exists."""
    if cap < 0 or length < 0:
        raise DomainError("need cap, length >= 0")
    if cap == 0 or length == 0:
        return Poly.one()
    return _box_gen(cap - 1, length) + _box_gen(cap, length - 1).shift(cap)


@lru_cache(maxsize=4096)
def _strict_gen(cap: int, length: int) -> Poly:
    """Weight polynomial of strict partitions with exactly `length`
    positive parts, each at most `cap`."""
    if length < 0:
        raise DomainError("need length >= 0")
    if length == 0:
        return Poly.one()
    if cap < length:
        return Poly.zero()
    return _strict_gen(cap - 1, length) + _strict_gen(cap - 1, length - 1).shift(cap)


def _guard_box(cap: int, length: int):
    if cap * length > 60_000:
        raise ScaleLimit("partition family of box %dx%d too large" % (cap, length))


def mu_side(n: int, j: int, r: int) -> Poly:
    """Sum of q^(2|mu|) over the strict staircase-capped family."""
    if r < 0:
        raise DomainError("need r >= 0")
    box = pair_box(n, j)
    _guard_box(box, r)
    return _strict_gen(box, r).subs_power(2) if r else Poly.one()


def nu_side(n: int, j: int, r: int) -> Poly:
    """Sum of q^|nu| over partitions with exactly n+j-2r parts in [1, box]."""
    box = pair_box(n, j)
    length = n + j - 2 * r
    if length < 0:
        raise DomainError("no nu family at level %d" % r)
    if length == 0:
        return Poly.one()
    if box < 1:
        return Poly.zero()
    _guard_box(box, length)
    return _box_gen(box - 1, length).shift(length)


def lambda_side(n: int, j: int) -> Poly:
    """Sum of q^|lambda| over partitions with exactly n+j parts in [1, box]."""
    return nu_side(n, j, 0)


def _ranks_below(lam, top) -> bool:
    """Whether every successive rank of lam is below top, stopping at the
    first that is not.  A bisect on the descending parts counts the parts
    above i, which is the length of column i + 1 of lam's diagram."""
    for i, part in enumerate(lam):
        if part <= i:                    # past the Durfee square
            return True
        if part - bisect_left(lam, -i, key=neg) >= top:
            return False
    return True


def rank_family_gen(n: int, j: int) -> Poly:
    """Sum of q^|lambda| over partitions with largest part at most
    n+j-2, at most n parts, and every successive rank below j-1."""
    if n < 0 or j < 1:
        raise DomainError("need n >= 0 and j >= 1")
    return Poly.from_counts(Counter(
        sum(lam) for lam in enumerate_partitions(n + j - 2, n, at_most=True)
        if _ranks_below(lam, j - 1)))
