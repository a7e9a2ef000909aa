"""Reference constructions that only the tests use."""

import re
from dataclasses import dataclass
from functools import lru_cache

from qkoshy.dyckpaths import iter_dyck, peak_dist
from qkoshy.poly import Poly


@lru_cache(maxsize=None)
def ballot_weighted_gen(n, r):
    """Peak generating polynomial over (r+1)-tuples of Dyck paths with n
    U-steps in total, by splitting off the first path of the tuple."""
    if r == 0:
        return peak_dist(n)
    out = Poly.zero()
    for k in range(n + 1):
        out = out + peak_dist(k) * ballot_weighted_gen(n - k, r - 1)
    return out


def poly_pow(p, e):
    """p^e for e >= 0, by repeated multiplication."""
    out = Poly.one()
    for _ in range(e):
        out = out * p
    return out


# -- evaluation modulo a prime, with no Poly -----------------------------

P61 = (1 << 61) - 1


def eval_mod(coeffs, x, p=P61):
    """A coefficient list at q = x modulo p, by Horner's rule."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def _ratio_mod(tops, bottoms, x, p):
    """The product of (1 - x^a) over tops divided by that over bottoms,
    modulo p, or None when a bottom factor vanishes at x."""
    num = den = 1
    for a in tops:
        num = num * (1 - pow(x, a, p)) % p
    for b in bottoms:
        den = den * (1 - pow(x, b, p)) % p
    if den == 0:
        return None
    return num * pow(den, -1, p) % p


def t_term_mod(r, n, j, x, p=P61):
    """T_r^(j)(n) = q^(r^2-r) [n choose r]_{q^2} [2n+j-1-2r choose n-1]_q
    (1 - q^j) / (1 - q^n) at q = x modulo p, from its product form:
    [m choose k]_q is the product of (1 - q^(m-k+i)) / (1 - q^i) over
    i = 1..k.  None when a denominator vanishes at x."""
    if r > n or n < 2 * r - j:
        return 0
    tops = [2 * (n - r + i) for i in range(1, r + 1)]
    tops += [n + j - 2 * r + i for i in range(1, n)] + [j]
    bottoms = [2 * i for i in range(1, r + 1)] + list(range(1, n)) + [n]
    value = _ratio_mod(tops, bottoms, x, p)
    return None if value is None else value * pow(x, r * r - r, p) % p


# -- straightforward versions of the path and partition kernels ----------


@dataclass(frozen=True)
class Tower:
    """A tower as a frozen dataclass: start, height, color, and end."""

    start: int
    height: int
    colored: bool

    @property
    def end(self):
        return self.start + 2 * self.height - 1


def decompose_towers(inner):
    """Towers of an inner Dyck word, each colored by reading the tower
    built before it: colored after a U-step, else the opposite of an
    adjacent previous tower, else uncolored."""
    towers = []
    for run in re.finditer("(U+)(D+)", inner):
        h = min(len(run[1]), len(run[2]))
        s = run.end(1) - h
        if s == 0 or inner[s - 1] == "U":
            c = True
        elif towers and towers[-1].end == s - 1:
            c = not towers[-1].colored
        else:
            c = False
        towers.append(Tower(s, h, c))
    return tuple(towers)


def lattice_words(ups, downs, floor):
    """Words with the given numbers of U- and D-steps whose height never
    drops below floor, in lexicographic order (U < D), by one recursive
    generator frame per step."""
    word = []

    def rec(ups, downs, h):
        if ups == 0 and downs == 0:
            yield "".join(word)
            return
        if ups:
            word.append("U")
            yield from rec(ups - 1, downs, h + 1)
            word.pop()
        if downs and h > floor:
            word.append("D")
            yield from rec(ups, downs - 1, h - 1)
            word.pop()

    return rec(ups, downs, 0)


def ballot_tuples(n, r):
    """(r+1)-tuples of Dyck words with n U-steps in total, by walking the
    tails again for every first word."""
    if r == 0:
        for p in iter_dyck(n):
            yield (p,)
        return
    for k in range(n + 1):
        for head in iter_dyck(k):
            for tail in ballot_tuples(n - k, r - 1):
                yield (head,) + tail


def partitions(max_part, length, at_most=False, strict=False):
    """Partitions with parts in [1, max_part] and exactly `length` parts
    (at most `length` with at_most), in descending lexicographic order, a
    prefix before its extensions, by one recursive generator frame per
    part."""
    parts = []

    def rec(prev):
        if len(parts) == length or at_most:
            yield tuple(parts)
        if len(parts) == length:
            return
        for v in range(min(prev - strict, max_part), 0, -1):
            parts.append(v)
            yield from rec(v)
            parts.pop()

    return rec(max_part + 1)


def major_index(word):
    """Sum of 1-based positions i with step i = D and step i+1 = U, by
    looking at every position."""
    return sum(i + 1 for i in range(len(word) - 1) if word[i] == "D" and word[i + 1] == "U")


def successive_ranks(parts):
    """lambda_i minus conjugate_i along the Durfee square diagonal, from
    the whole conjugate partition."""
    conj = tuple(sum(1 for p in parts if p > i) for i in range(parts[0])) if parts else ()
    d = 0
    while d < len(parts) and parts[d] > d:
        d += 1
    return tuple(parts[i] - conj[i] for i in range(d))
