"""Classical q-analogues built on exact polynomials.

Everything here returns a Poly (or a RationalForm where the object is
genuinely a quotient).  Every quotient here (q-binomial, q-Catalan,
q-ballot, T-term) has one shape: factors 1 - q^a over factors 1 - q^b,
and each one is a single poly.q_ratio call on coefficient lists; a
division by [k]_q = (1 - q^k) / (1 - q) is written that way too.
q_ratio is the only way to apply a factor 1 - q^a, here and in the
registry's checkers alike.
A Gaussian binomial comes one step from a built neighbour: its mirror
[m choose m-k] costs nothing, and [m-1 choose k-1] or [m-1 choose k]
cost one factor above and one below.  Only a binomial with neither of
these built runs the product formula, one such factor pair per step,
which keeps every intermediate polynomial and costs O(k * deg).  A
caller that has built a binomial by other means hands it over
(keep_binomial), as a sweep column does.  Only
the cyclotomic divisors go through long division (exact_div), in one
test, cyclotomic_divides, which folds modulo q^d - 1 first.  The test
suite cross-checks the binomials coefficient for coefficient against an
independent Pascal-recurrence construction, in several build orders.

The alternating T-terms are stepped in r rather than built afresh: the
ratio of consecutive terms is a product of three factors 1 - q^a over
three factors 1 - q^b, so a step is one q_ratio call and no dense
product (t_step).  t_term_poly and the difference form t_term_diff hold
the last term of each (n, j) and step from it when the next r is asked
for; any other request builds its term directly.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from operator import sub

from .errors import DivisionInexact, DomainError
from .poly import Poly, RationalForm, exact_div, q_ratio


def q_int(n: int) -> Poly:
    """[n]_q = 1 + q + ... + q^(n-1); [0]_q = 0."""
    if n < 0:
        raise DomainError("q_int needs n >= 0")
    return Poly._raw((1,) * n)


def q_pochhammer(sign: str, a: int, r: int) -> Poly:
    """(sign q^a; q)_r, the product of (1 -+ q^(a+i)) for 0 <= i < r."""
    if sign not in ("+", "-"):
        raise DomainError("sign must be '+' or '-'")
    if a < 0 or r < 0:
        raise DomainError("q_pochhammer needs a, r >= 0")
    unit = 1 if sign == "-" else -1
    out = Poly.one()
    for i in range(r):
        out = out * (Poly.one() + Poly.monomial(a + i, unit))
    return out


# Every binomial built, keyed (m, min(k, m - k)): the very Poly that
# q_binomial's cache returns, so a mirror request shares it.  First-in
# eviction at the cache's size.
_BUILT_CAP = 8192
_built = {}


def _pascal_steps(m, k):
    """For 1 <= k <= m - k: the keys of [m-1 choose k-1] and
    [m-1 choose k], in the order they are tried, each with the exponents
    of the factors 1 - q^a above and 1 - q^b below that carry it to
    [m choose k]_q."""
    return (((m - 1, k - 1), (m,), (k,)),
            ((m - 1, min(k, m - 1 - k)), (m,), (m - k,)))


@lru_cache(maxsize=8192)
def q_binomial(m: int, k: int) -> Poly:
    """Gaussian binomial [m choose k]_q, degree k(m-k); zero out of range.

    With k taken as min(k, m - k): a built [m choose k] (the mirror of
    the request when k was larger) is returned as it is; otherwise it is
    one q_ratio step from the first built of [m-1 choose k-1] and
    [m-1 choose k]; otherwise the product formula.
    """
    if m < 0:
        raise DomainError("q_binomial needs m >= 0")
    if k < 0 or k > m:
        return Poly.zero()
    k = min(k, m - k)
    if k == 0:
        # no step to take, so it stays out of the table
        return Poly.one()
    out = _built.get((m, k))
    if out is None:
        what = "[%d choose %d]_q" % (m, k)
        for key, tops, bottoms in _pascal_steps(m, k):
            near = _built.get(key)
            if near is not None:
                c = q_ratio(near.coeffs, tops, bottoms, what)
                break
        else:
            c = (1,)
            for t in range(1, k + 1):
                # partial product stays the polynomial [m-k+t choose t]_q
                c = q_ratio(c, (m - k + t,), (t,), what)
        out = keep_binomial(m, k, c)
    return out


def keep_binomial(m, k, coeffs):
    """The built [m choose k]_q, for 1 <= k < m: the one in the table, or
    else coeffs, its coefficient list, kept there for q_binomial to find
    (the oldest entry goes past the cap).  A sweep column hands over its
    [2n-2 choose n-1] this way, the binomial of its first T-term."""
    key = (m, min(k, m - k))
    out = _built.get(key)
    if out is None:
        out = _built[key] = Poly._raw(coeffs)
        if len(_built) > _BUILT_CAP:
            del _built[next(iter(_built))]
    return out


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


@lru_cache(maxsize=256)
def q_catalan(n: int) -> Poly:
    """C_n(q) = [2n choose n]_q / [n+1]_q, a polynomial of degree n(n-1),
    computed as (1 - q) [2n choose n]_q / (1 - q^(n+1))."""
    if n < 0:
        raise DomainError("q_catalan needs n >= 0")
    return Poly._raw(q_ratio(q_binomial(2 * n, n).coeffs, (1,), (n + 1,), "C_%d(q)" % n))


def narayana_number(n: int, k: int) -> int:
    if n < 1:
        raise DomainError("narayana_number needs n >= 1")
    return math.comb(n, k - 1) * math.comb(n, k) // n


@lru_cache(maxsize=None)
def narayana_poly(n: int) -> Poly:
    """Peak-count distribution over Dyck paths: sum_k N(n,k) q^(k-1)."""
    if n < 1:
        raise DomainError("narayana_poly needs n >= 1")
    return Poly._raw(tuple(narayana_number(n, k) for k in range(1, n + 1)))


def ballot_number(n: int, r: int) -> int:
    """Paths built from r+1 chained Dyck factors with n total up-steps."""
    if n < 0 or r < 0:
        raise DomainError("ballot_number needs n, r >= 0")
    return (r + 1) * math.comb(2 * n + r + 1, n) // (2 * n + r + 1)


def q_ballot(j: int, n: int, method: str = "quotient") -> Poly:
    """q-ballot polynomial B_j(n, q); B_1 is the q-Catalan number.

    quotient:   [j]_q / [2n+j]_q * [2n+j choose n]_q, computed with 1 - q
                cancelled as (1 - q^j) [2n+j choose n]_q / (1 - q^(2n+j))
    difference: [2n+j-2 choose n]_q - q^j [2n+j-2 choose n-2]_q
    """
    if j < 1 or n < 1:
        raise DomainError("q_ballot needs j >= 1 and n >= 1")
    if method == "quotient":
        return Poly._raw(q_ratio(q_binomial(2 * n + j, n).coeffs, (j,), (2 * n + j,),
                                 "B_%d(%d, q)" % (j, n)))
    if method == "difference":
        return q_binomial(2 * n + j - 2, n) - q_binomial(2 * n + j - 2, n - 2).shift(j)
    raise DomainError("unknown q_ballot method %r" % method)


@lru_cache(maxsize=None)
def cyclotomic(k: int) -> Poly:
    """k-th cyclotomic polynomial via (q^k - 1) / prod of proper divisors."""
    if k < 1:
        raise DomainError("cyclotomic needs k >= 1")
    num = Poly.monomial(k) - Poly.one()
    den = Poly.one()
    for d in range(1, k):
        if k % d == 0:
            den = den * cyclotomic(d)
    return exact_div(num, den)


def q_lucas_check(m: int, k: int, d: int) -> bool:
    """[m choose k]_q == C(a, r) * [b choose s]_q modulo the d-th cyclotomic,
    where m = a*d + b and k = r*d + s with 0 <= b, s < d."""
    if d < 1:
        raise DomainError("q_lucas_check needs d >= 1")
    if m < 0 or k < 0 or k > m:
        raise DomainError("q_lucas_check needs 0 <= k <= m")
    a, b = divmod(m, d)
    r, s = divmod(k, d)
    return cyclotomic_divides((q_binomial(m, k) - q_binomial(b, s) * math.comb(a, r)).coeffs, d)


def cyclotomic_divides(c, d: int) -> bool:
    """Whether the d-th cyclotomic polynomial divides the one with
    coefficient list c: c folded modulo q^d - 1, a multiple of it, then
    one long division of degree < d."""
    try:
        exact_div(Poly([sum(c[i::d]) for i in range(d)]), cyclotomic(d))
    except DivisionInexact:
        return False
    return True


# -- alternating T-term family ---------------------------------------


class TTermForms(namedtuple("TTermForms",
                            "r n tr21 general_j andrews_rational gen_t2 tr22_parts")):
    """All published forms of the r-th alternating term at j = 1, kept
    unreduced.

    tr21 is the exact polynomial value, in difference form.  general_j,
    andrews_rational and gen_t2 are RationalForms; gen_t2 needs n >= 2
    and is None at n = 1.  tr22_parts is a tuple of Polys, the split
    into summands: three when n >= 2r+1, else two (one at n = 1).
    """

    __slots__ = ()

    def rational_forms(self):
        """The quotient forms, each as a (name, RationalForm) pair."""
        out = [("general_j", self.general_j), ("andrews_rational", self.andrews_rational)]
        if self.gen_t2 is not None:
            out.append(("gen_t2", self.gen_t2))
        return out


@lru_cache(maxsize=4096)
def q_binomial_sq(m: int, k: int) -> Poly:
    """[m choose k] in the variable q^2."""
    return q_binomial(m, k).subs_power(2)


# The stepper holds the last term it made for each (n, j, form): callers
# ask for r = 1, 2, ... in turn inside a cell (andrews, qballot-koshy, a
# sweep column) or across sorted cells (theorem1-*, t-forms, and tj-poly,
# whose inner j makes up to 12 keys alternate), so a few keys are enough.
_HELD_CAP = 16
_held = {}


def _step_exponents(r, n, j):
    """The exponents of the factors 1 - q^a above and below the line in
    P_{r+1} / P_r, where P_r = [n choose r]_{q^2} [2n+j-1-2r choose n-1]_q."""
    return ((2 * (n - r), n + j - 2 * r, n + j - 2 * r - 1),
            (2 * r + 2, 2 * n + j - 1 - 2 * r, 2 * n + j - 2 - 2 * r))


def t_step(c, r, n, j):
    """The coefficient list of X_{r+1} from the list c of X_r, for
    X_r = f * P_r(n, j) with P_r = [n choose r]_{q^2} [2n+j-1-2r choose n-1]_q
    and any factor f free of r.

    One q_ratio call: the three numerator factors 1 - q^a over the three
    denominator factors 1 - q^b, so every division is exact.  At j = 1
    and j = 2 the top 2(n - r) is also a bottom and cancels.  A
    numerator factor 1 - q^0 means X_{r+1} vanishes (r = n, or
    n < 2(r+1) - j), and zero stays zero.
    """
    if not c:
        return []
    nums, dens = _step_exponents(r, n, j)
    if min(nums) <= 0:
        return []
    return q_ratio(c, nums, dens, "T-term step r=%d n=%d j=%d" % (r, n, j))


def _direct_term(r, n, j, quotient):
    """P_r(n, j), times (1 - q^j) / (1 - q^n) when quotient, without the
    neighbour r - 1.  At r = 1, [n choose 1]_{q^2} = (1 - q^(2n)) / (1 - q^2)
    makes it one q_binomial and one q_ratio over the factors (2n[, j]) and
    (2[, n]); a larger r takes a product of two q-binomials."""
    if r > n or n < 2 * r - j:
        return []
    binom = q_binomial(2 * n + j - 1 - 2 * r, n - 1)
    if r == 1:
        c, tops, bottoms = binom.coeffs, [2 * n], [2]
    else:
        c, tops, bottoms = (q_binomial_sq(n, r) * binom).coeffs, [], []
    if quotient:
        tops.append(j)
        bottoms.append(n)
    return list(q_ratio(c, tops, bottoms, "T-term r=%d n=%d j=%d" % (r, n, j)))


def _held_term(r, n, j, quotient):
    """The coefficient list of q^-(r^2-r) T_r^(j)(n) when quotient, else of
    P_r(n, j): one t_step from the held term when that is r - 1, and
    otherwise built directly.  It is held in its place."""
    key = (n, j, quotient)
    held = _held.pop(key, None)
    if held is not None and held[0] == r - 1:
        c = t_step(held[1], r - 1, n, j)
    else:
        c = _direct_term(r, n, j, quotient)
    _held[key] = (r, c)
    if len(_held) > _HELD_CAP:
        del _held[next(iter(_held))]
    return c


def t_term_poly(r: int, n: int, j: int) -> Poly:
    """The r-th alternating term as an exact polynomial,
    q^(r^2-r) [n choose r]_{q^2} [2n+j-1-2r choose n-1]_q (1 - q^j) / (1 - q^n).

    Stepped from the held term r - 1 of the same (n, j) when there is one
    (t_step: three factors 1 - q^a over three factors 1 - q^b);
    otherwise built directly, which at r = 1 is one q_binomial and one
    q_ratio call.  Zero when r > n or n < 2r-j, where a binomial vanishes.
    """
    if r < 1 or j < 1 or n < 1:
        raise DomainError("t_term needs r >= 1, j >= 1, n >= 1")
    return Poly._raw(_held_term(r, n, j, True)).shift(r * r - r)


def t_term_diff(r: int, n: int) -> Poly:
    """The j = 1 term in difference form, for n >= max(1, 2r-1):
    q^(r^2-r) (A_r - (q + q^(n+1)) S_r) with A_r = [n choose r]_{q^2}
    [2n-2r choose n-1]_q and S_r = [n-1 choose r]_{q^2} [2n-2r-1 choose n-2]_q.
    A_r is P_r(n, 1) and S_r is P_r(n - 1, 2), and each is stepped in r
    like t_term_poly.  S_r is left out at n = 1, where its vanishing first
    factor meets out-of-range binomial indices."""
    t = _held_term(r, n, 1, False)
    if n >= 2:
        s = _held_term(r, n - 1, 2, False)
        t = t + [0] * max(0, len(s) + n + 1 - len(t))
        for k in (1, n + 1):
            t[k:k + len(s)] = map(sub, t[k:k + len(s)], s)
    return Poly._raw(t).shift(r * r - r)


def t_term(r: int, n: int) -> TTermForms:
    """Construct every published form of the r-th term of the alternating
    q-Catalan expansion (j = 1), for r >= 1 and n >= 2r-1."""
    if r < 1 or n < 2 * r - 1:
        raise DomainError("t_term needs r >= 1 and n >= 2r-1")
    lead = r * r - r
    general = RationalForm(
        (q_binomial_sq(n, r) * q_binomial(2 * n - 2 * r, n - 1)).shift(lead), q_int(n))
    andrews = RationalForm(
        (q_pochhammer("-", n - r + 1, r) * q_binomial(n - r + 1, r) * q_catalan(n - r))
        .shift(lead),
        q_pochhammer("-", 1, r),
    )
    gen_t2 = None
    parts = [(q_binomial_sq(n - 1, r - 1) * q_binomial(2 * n - 2 * r + 1, n)).shift(lead)]
    if n >= 2:
        low = q_binomial_sq(n - 1, r) * q_binomial(2 * n - 2 * r - 1, n - 2)
        gen_t2 = RationalForm((low + low.shift(n)).shift(lead), q_int(n - 1))
        parts.append(-low.shift(lead + 1))
    if n >= 2 * r + 1:
        parts.append(
            (q_binomial_sq(n - 1, r) * q_binomial(2 * n - 2 * r - 1, n)).shift(r * r + r))
    return TTermForms(r=r, n=n, tr21=t_term_diff(r, n), general_j=general,
                      andrews_rational=andrews, gen_t2=gen_t2, tr22_parts=tuple(parts))
