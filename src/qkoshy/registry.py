"""Registry of executable identity checks.

Each row binds an identity id to a per-cell checker and declares its
parameters, each as (lo, hi, cap): a default range whose low end lo is
also the parameter's floor, the least value in the identity's domain,
and a cap, plus at most one predicate over the whole cell.  Checkers
return None on success or a small dict with rendered left/right values
and a difference.  verify() hands ordered_map one task per column, the
sorted cells that share the row's first parameter, so what a checker
keeps per value of it (T-terms stepped in r, a tower table per n) stays
in one process, and a box with one value of it runs in one process.  The
first counterexample ends the run, after the at most 2 * jobs columns in
flight, and the outcome is wrapped in an IdentityReport.  All
comparisons are exact; a domain error raised by a checker is reported as
a failure, never swallowed.  A ScaleLimit (a hard enumeration guard,
which --force does not lift) and any exception that is not a QKoshyError
end the run instead: neither refutes the identity, so each is re-raised
naming the row and the cell.
"""

from __future__ import annotations

import time
from collections import Counter, namedtuple
from contextlib import closing
from functools import lru_cache
from itertools import combinations, groupby, product
from math import comb, gcd
from operator import itemgetter
from types import SimpleNamespace

from . import dyckpaths as dp
from . import partitions as pt
from .conjecture import ordered_map
from .errors import DivisionInexact, DomainError, QKoshyError, ScaleLimit, UnknownIdentity
from .poly import (Poly, RationalForm, first_negative, q_ratio, rational_equal, shape,
                   unimodal_break_index)
from .qfuncs import (
    ballot_number,
    catalan,
    cyclotomic_divides,
    narayana_poly,
    q_ballot,
    q_binomial,
    q_binomial_sq,
    q_catalan,
    q_int,
    q_lucas_check,
    t_term,
    t_term_diff,
    t_term_poly,
)


class IdentityReport(namedtuple("IdentityReport",
                                "identity params status counterexample cells_checked elapsed_ms")):
    """The outcome of one verify run; counterexample is None unless
    status is "fail"."""

    __slots__ = ()

    def to_dict(self) -> dict:
        """The report as a dict whose params and counterexample are copies,
        so the caller may change them without changing the report."""
        return {**self._asdict(), "params": _copied(self.params),
                "counterexample": _copied(self.counterexample)}


def _copied(x):
    """A copy of x, its dicts and lists copied at every depth."""
    if isinstance(x, dict):
        return {k: _copied(v) for k, v in x.items()}
    return [_copied(v) for v in x] if isinstance(x, list) else x


class Check(namedtuple("Check", "id checker params keep", defaults=(None,))):
    """One registry row.

    params maps each parameter, in the order the checker takes a cell's
    values, to (lo, hi, cap): its default range, whose low end is also its
    floor, and its cap; keep, if given, is a predicate over a whole cell.
    """

    __slots__ = ()

    # perfbench/tracer.py wraps each row's checker through
    # dataclasses.replace(chk, checker=...), which takes a class that has
    # this attribute, reads name, init and _field_type of each record in
    # it, and calls the class with every field by keyword.  Check stays
    # accepted there without the dataclasses module being imported.
    __dataclass_fields__ = {name: SimpleNamespace(name=name, init=True, _field_type=None)
                            for name in ("id", "checker", "params", "keep")}

    def cells(self, bounds: dict) -> list:
        """The cells of a box in sorted order, each bound clipped at its
        parameter's lo."""
        axes = [range(max(bounds[k][0], lo), bounds[k][1] + 1)
                for k, (lo, _, _) in self.params.items()]
        return [c for c in product(*axes) if self.keep is None or self.keep(*c)]


def _eq(left, right):
    if left == right:
        return None
    same_kind = any(isinstance(left, t) and isinstance(right, t) for t in (Poly, int))
    return _fail(left, right, left - right if same_kind else "mismatch")


def _fail(left, right, diff):
    return {"left": str(left), "right": str(right), "diff": str(diff)}


def _in_one_minus_q(coeffs) -> Poly:
    """c_0 + c_1 (1-q) + c_2 (1-q)^2 + ... over the ints or Polys c_i given,
    by Horner's rule: each step is one multiply by 1 - q."""
    total = Poly.zero()
    for c in reversed(coeffs):
        total = Poly._raw(q_ratio(total.coeffs, (1,), (), "(1 - q) * p")) + c
    return total


def _alternating(terms) -> Poly:
    """t_1 - t_2 + t_3 - ... over the terms in the order given."""
    total = Poly.zero()
    for k, t in enumerate(terms):
        total = total - t if k % 2 else total + t
    return total


def _koshy_term(n, m):
    """C(n-m+1, m) C_{n-m}, the m-th term of Koshy's formula; 0 for m > n."""
    return comb(n - m + 1, m) * catalan(n - m) if m <= n else 0


# -- checkers ---------------------------------------------------------


def _chk_koshy(n):
    return _eq(sum((-1) ** r * _koshy_term(n, r) for r in range(n + 1)), 0)


def _chk_upeak_label(n, m):
    want = _koshy_term(n, m)
    for sel in ("up-peaks", "colored-towers"):
        got = dp.labeled_gen(n, sel, m, "unit")
        if got != Poly(want):
            return _fail("%s: %s" % (sel, got), want, "selector %s deviates" % sel)
    return None


def _chk_upeak_gf(n):
    # sum over j of C(n-j+1, j) C_{n-j} (q-1)^j, with (q-1)^j = (-1)^j (1-q)^j
    rhs = _in_one_minus_q([(-1) ** j * _koshy_term(n, j) for j in range(n + 1)])
    return _eq(dp.distribution(n), rhs)


def _chk_lassalle(n):
    """N_n = (1-q)^(n-1) + q sum_{k<n} N_{n-k} sum_{m<k} (-1)^m C(k-1, m)
    C(n-m, k) (1-q)^(k-1-m), N_n the Narayana polynomial."""
    acc = Poly.zero()
    for k in range(1, n):
        inner = _in_one_minus_q([(-1) ** m * comb(k - 1, m) * comb(n - m, k)
                                 for m in reversed(range(k))])
        acc = acc + narayana_poly(n - k) * inner
    rhs = _in_one_minus_q([0] * (n - 1) + [1]) + acc.shift(1)
    return _eq(narayana_poly(n), rhs)


def _ie_term(n, m, r, f):
    """The m-th inclusion-exclusion term of the tower and Lassalle rows:
    sum over k = m..n of C(n-k+1+r, m) C(k-1, m-1) (1-q)^(k-m) f(n-k) q^m."""
    # C(n-k+1+r, m) is 0 past k = n+1+r-m, and so is every term there
    return _in_one_minus_q([f(n - k) * (comb(n - k + 1 + r, m) * comb(k - 1, m - 1))
                            for k in range(m, min(n, n + 1 + r - m) + 1)]).shift(m)


def _ie_alternating(n, r, f):
    """sum over m = 1..n of (-1)^(m+1) _ie_term(n, m, r, f)."""
    return _alternating(_ie_term(n, m, r, f) for m in range(1, n + 1))


def _chk_lassalle_transform(n):
    return _eq(dp.peak_dist(n), _ie_alternating(n, 0, dp.peak_dist))


def _chk_tower_ie(n):
    rhs = _alternating(dp.labeled_gen(n, "colored-towers", m, "peak-weight-q")
                       for m in range(1, n + 1))
    return _eq(dp.peak_dist(n), rhs)


def _chk_tower_closed(n, m):
    lhs = dp.labeled_gen(n, "colored-towers", m, "peak-weight-q")
    return _eq(lhs, _ie_term(n, m, 0, dp.peak_dist))


def _lemma1_target(n, m):
    out = set()
    for p in dp.iter_elevated(n):
        usteps = [i for i, c in enumerate(p) if c == "U"]
        for lab in combinations(usteps, m):
            out.add((p, lab))
    return out


def _tower_labelled(n, m, r, min_height):
    """(path, s-labels, w-labels) over the elevated paths with n inner
    U-steps: m colored towers carry s-labels, and r of those whose height
    is at least min_height carry w-labels too.  Labels are tower starts."""
    for p, towers in dp.colored_towers(n):
        tall = {t.start for t in towers if t.height >= min_height}
        for chosen in combinations([t.start for t in towers], m):
            for w in combinations([s for s in chosen if s in tall], r):
                yield p, chosen, w


def _chk_lemma1(n, m):
    target = _lemma1_target(n - m, m)
    seen = {}
    for p, chosen, _ in _tower_labelled(n, m, 0, 1):
        src = dp.LabeledPath(p, "towers", chosen)
        img = dp.lemma1_forward(src)
        key = (img.path, img.s_labels)
        if key in seen:
            return _fail(src, seen[key], "two sources map to %s" % (key,))
        if key not in target:
            return _fail(src, key, "image outside the labeled U-step family")
        if dp.lemma1_inverse(img) != src:
            return _fail(src, dp.lemma1_inverse(img), "round trip broke")
        seen[key] = src
    want = _koshy_term(n, m)
    if len(seen) != len(target) or len(target) != want:
        return _fail(len(seen), want, "cardinality mismatch (target %d)" % len(target))
    return None


def _chk_lemma2(n, m, r):
    # w-labels sit on towers of height >= 2 in the sources, >= 1 in the target
    target = set(_tower_labelled(n - r, m, r, 1))
    seen = set()
    for p, chosen, w in _tower_labelled(n, m, r, 2):
        src = dp.LabeledPath(p, "towers", chosen, w)
        img = dp.lemma2_forward(src)
        key = (img.path, img.s_labels, img.w_labels)
        if key in seen:
            return _fail(src, key, "two sources map to the same image")
        if key not in target:
            return _fail(src, key, "image outside the labeled tower family")
        if dp.lemma2_inverse(img) != src:
            return _fail(src, dp.lemma2_inverse(img), "round trip broke")
        seen.add(key)
    if len(seen) != len(target):
        return _fail(len(seen), len(target), "cardinality mismatch")
    # both families come from one tower table, so a fault shared by both
    # keeps the bijection; Lemma 1's count fixes the target's size
    want = comb(m, r) * _koshy_term(n - r, m)
    if len(target) != want:
        return _fail(len(target), want, "target family size")
    return None


@lru_cache(maxsize=None)
def _brute_tuple_peaks(t, r):
    return Poly.from_counts(Counter(
        sum(p.count("UD") for p in tup) for tup in dp.iter_ballot_tuples(t, r)))


def _chk_ballot_lassalle(n, r):
    rhs = _ie_alternating(n, r, lambda t: _brute_tuple_peaks(t, r))
    return _eq(_brute_tuple_peaks(n, r), rhs)


def _chk_andrews(n):
    # terms vanish below n = 2r-1
    total = _alternating(t_term_diff(r, n) for r in range(1, (n + 1) // 2 + 1))
    return _eq(total, q_catalan(n))


def _chk_t_forms(n, r):
    forms = t_term(r, n)
    res = _eq(t_term_poly(r, n, 1), forms.tr21)
    if res:
        return res
    base = RationalForm(forms.tr21, Poly.one())
    for name, rat in forms.rational_forms():
        if not rational_equal(base, rat):
            return _fail("tr21 %s" % forms.tr21, "%s %s / %s" % (name, rat.num, rat.den),
                         "form %s deviates" % name)
    res = _eq(sum(forms.tr22_parts, Poly.zero()), forms.tr21)
    if res or r > 1:
        return res
    return _eq(q_binomial(2 * n - 1, n), q_catalan(n) + q_binomial(2 * n - 1, n - 2).shift(1))


def _fail_negative(p: Poly, right):
    """A failure naming the first negative coefficient of p, or None."""
    i = first_negative(p.coeffs)
    if i is None:
        return None
    return _fail(p, right, "coefficient %d at q^%d" % (p.coeffs[i], i))


def _chk_theorem1(n, r):
    """T(r, n) for even n, and (1 + q) T(r, n) for odd n, has nonnegative
    coefficients."""
    t = t_term_poly(r, n, 1)
    if t.is_zero():
        return _fail(t, "nonzero", "term vanished on an admissible cell")
    return _fail_negative(Poly(1, 1) * t if n % 2 else t, "nonnegative coefficients")


def _chk_theorem1_negq(r):
    n = 2 * r - 1
    lhs = t_term_poly(r, n, 1).negate_q()
    rhs = (q_int(n) * q_catalan(r - 1).subs_power(2)).shift(r * r - r)
    return _eq(lhs, rhs)


def _divisors(k):
    return [x for x in range(2, k + 1) if k % x == 0]


def _chk_cyclo_div(n, r):
    d = gcd(n, r)
    binom = q_binomial(2 * n - 2 * r, n - 1)
    if binom.is_zero():
        return _fail(binom, "nonzero", "binomial vanished on an admissible cell")
    for x in _divisors(2 * d):
        if not cyclotomic_divides(binom.coeffs, x):
            return _fail(binom, "divisible by Phi_%d" % x, "inexact division")
    try:
        # [2d]_q divides B exactly when 1 - q^(2d) divides (1 - q) B
        q_ratio(binom.coeffs, (1,), (2 * d,), "cyclo-div")
    except DivisionInexact:
        return _fail(binom, "divisible by [%d]_q" % (2 * d), "inexact division")
    return None


def _chk_invT(n):
    lhs = q_binomial(2 * n - 1, n - 2)
    rhs = _alternating(
        (q_binomial_sq(n - 1, r) * q_binomial(2 * n - 2 * r - 1, n - 2)).shift(r * r - r)
        for r in range(1, (n + 1) // 2 + 1))
    res = _eq(lhs, rhs)
    if res:
        return res
    if n <= 10:
        def term(r):
            mus, nus = pt.level_family(n, 1, r)
            return (Poly.from_counts(Counter(2 * sum(mu) for mu in mus))
                    * Poly.from_counts(Counter(map(sum, nus))))

        # level_range starts at r = 0, so even r add and odd r subtract
        total = _alternating(term(r) for r in pt.level_range(n, 1))
        if not total.is_zero():
            return _fail(total, 0, "alternating partition sum did not vanish")
    return None


def _chk_partheo(n, r):
    res = _eq(pt.mu_side(n, 1, r),
              q_binomial_sq(n - 1, r).shift(r * r + r))
    if res:
        return res
    ell = n + 1 - 2 * r
    res = _eq(pt.nu_side(n, 1, r),
              q_binomial(n - 2 + ell, ell).shift(ell) if ell else Poly.one())
    if res:
        return res
    if r == 0:
        return _eq(pt.lambda_side(n, 1), q_binomial(2 * n - 1, n + 1).shift(n + 1))
    return None


@lru_cache(maxsize=32)
def _iepar_table(n):
    """Weight polynomial per repetition statistic of the level-0 nu family of (n, 1)."""
    table = {}
    for lam in pt.level_family(n, 1, 0)[1]:
        acc = table.setdefault(pt.repetition_statistic(lam), {})
        w = sum(lam)
        acc[w] = acc.get(w, 0) + 1
    return {rep: Poly.from_counts(acc) for rep, acc in table.items()}


def _chk_iepar(n, r):
    lhs = Poly.zero()
    for rep, poly in _iepar_table(n).items():
        c = comb(rep, r)
        if c:
            lhs = lhs + poly * c
    rhs = pt.mu_side(n, 1, r) * pt.nu_side(n, 1, r)
    return _eq(lhs, rhs)


def _chk_qballot_forms(n, j):
    a = q_ballot(j, n, method="quotient")
    b = q_ballot(j, n, method="difference")
    res = _eq(a, b)
    if res:
        return res
    if j == 1:
        res = _eq(a, q_catalan(n))
        if res:
            return res
    return _eq(a(1), ballot_number(n, j - 1))


def _chk_qballot_koshy(n, j):
    total = _alternating(t_term_poly(r, n, j) for r in range(1, n + 1))
    return _eq(total, q_ballot(j, n))


def _chk_tj_poly(n, r, j):
    """(1 - q^n) T_r^(j)(n) against its product form.  Cells come in
    sorted order, so t_term_poly steps each r >= 2 from r - 1 of the same
    (n, j), while the right side multiplies the two q-binomials: a
    stepping fault shows here even when every stepped row agrees with
    itself."""
    lhs = Poly._raw(q_ratio(t_term_poly(r, n, j).coeffs, (n,), (), "tj-poly"))
    core = q_binomial_sq(n, r) * q_binomial(2 * n + j - 1 - 2 * r, n - 1)
    rhs = Poly._raw(q_ratio(core.coeffs, (j,), (), "tj-poly")).shift(r * r - r)
    return _eq(lhs, rhs)


def _chk_tj_negq(r, j):
    n = 2 * r - j
    p = t_term_poly(r, n, j).negate_q()
    if p.is_zero():
        return _fail(p, "positive polynomial", "vanished")
    return _fail_negative(p, "positive polynomial")


def _chk_qlucas(m, k, d):
    if q_lucas_check(m, k, d):
        return None
    return _fail("[%d choose %d]_q mod Phi_%d" % (m, k, d),
                 "base-%d digit product" % d, "congruence failed")


def _chk_maj_catalan(n):
    lhs = Poly.from_counts(Counter(dp.major_index(p) for p in dp.iter_dyck(n)))
    return _eq(lhs, q_catalan(n))


def _chk_maj_ballot(n, j):
    lhs = Poly.from_counts(Counter(dp.major_index(p) for p in dp.iter_ballot_paths(n, j)))
    return _eq(lhs, q_ballot(j, n))


def _chk_succ_ranks(n, j):
    return _eq(pt.rank_family_gen(n, j), q_ballot(j, n))


def _chk_brunetti(n, r):
    p = q_int(gcd(n, r)) * q_binomial(n, r)
    sh = shape(p)
    if not sh.is_unimodal:
        return _fail(p, "unimodal", "break at q^%d" % unimodal_break_index(p))
    if not sh.is_reciprocal:
        return _fail(p, "reciprocal", "coefficient list is not palindromic")
    return None


# -- rows: each parameter is (default lo, default hi, cap) --------------

CHECKS: dict[str, Check] = {chk.id: chk for chk in (
    Check("koshy", _chk_koshy, {"n": (1, 200, 2000)}),
    Check("upeak-label", _chk_upeak_label,
          {"n": (0, 10, 12), "m": (0, 11, 14)},
          lambda n, m: m <= n + 1),
    Check("upeak-gf", _chk_upeak_gf, {"n": (0, 12, 13)}),
    Check("lassalle", _chk_lassalle, {"n": (1, 60, 200)}),
    Check("lassalle-transform", _chk_lassalle_transform, {"n": (1, 20, 120)}),
    Check("tower-ie", _chk_tower_ie, {"n": (1, 9, 12)}),
    Check("tower-closed", _chk_tower_closed,
          {"n": (1, 9, 12), "m": (1, 9, 12)},
          lambda n, m: m <= n),
    Check("lemma1", _chk_lemma1,
          {"n": (1, 8, 10), "m": (1, 8, 10)},
          lambda n, m: m <= n),
    Check("lemma2", _chk_lemma2,
          {"n": (1, 8, 10), "m": (1, 8, 10), "r": (1, 8, 10)},
          lambda n, m, r: r <= m <= n),
    Check("ballot-lassalle", _chk_ballot_lassalle,
          {"n": (1, 8, 10), "r": (0, 3, 6)}),
    Check("andrews", _chk_andrews, {"n": (1, 60, 120)}),
    Check("t-forms", _chk_t_forms,
          {"n": (1, 30, 80), "r": (1, 30, 80)},
          lambda n, r: r <= (n + 1) // 2),
    Check("theorem1-even", _chk_theorem1,
          {"n": (1, 60, 120), "r": (1, 60, 120)},
          lambda n, r: n % 2 == 0 and r <= n // 2),
    Check("theorem1-odd", _chk_theorem1,
          {"n": (1, 60, 120), "r": (1, 60, 120)},
          lambda n, r: n % 2 == 1 and r <= (n + 1) // 2),
    Check("theorem1-negq", _chk_theorem1_negq, {"r": (1, 30, 60)}),
    Check("cyclo-div", _chk_cyclo_div,
          {"n": (2, 40, 100), "r": (1, 40, 100)},
          lambda n, r: n % 2 == 0 and r <= n // 2),
    Check("invT", _chk_invT, {"n": (2, 40, 80)}),
    Check("partheo", _chk_partheo,
          {"n": (1, 12, 30), "r": (0, 12, 15)},
          lambda n, r: r in pt.level_range(n, 1)),
    Check("iepar", _chk_iepar,
          {"n": (2, 10, 12), "r": (0, 10, 12)},
          lambda n, r: r in pt.level_range(n, 1)),
    Check("qballot-forms", _chk_qballot_forms,
          {"n": (1, 40, 120), "j": (1, 6, 12)}),
    Check("qballot-koshy", _chk_qballot_koshy,
          {"n": (1, 40, 120), "j": (1, 6, 12)}),
    Check("tj-poly", _chk_tj_poly,
          {"n": (1, 40, 120), "r": (1, 40, 60), "j": (1, 6, 12)},
          lambda n, r, j: r <= min(n, (n + j) // 2)),
    Check("tj-negq", _chk_tj_negq,
          {"r": (1, 40, 60), "j": (1, 40, 60)},
          lambda r, j: j <= r),
    Check("qlucas", _chk_qlucas,
          {"m": (0, 40, 120), "k": (0, 40, 120), "d": (2, 12, 40)},
          lambda m, k, d: k <= m),
    Check("maj-catalan", _chk_maj_catalan, {"n": (0, 10, 13)}),
    Check("maj-ballot", _chk_maj_ballot,
          {"n": (1, 8, 10), "j": (1, 4, 8)}),
    Check("succ-ranks", _chk_succ_ranks,
          {"n": (1, 8, 10), "j": (1, 4, 6)}),
    Check("brunetti-instance", _chk_brunetti,
          {"n": (2, 60, 200), "r": (1, 60, 200)},
          lambda n, r: r < n),
)}


def list_identities():
    return list(CHECKS)


def _at(chk, cell):
    return ", ".join("%s=%s" % kv for kv in zip(chk.params, cell))


def _check_column(identity_id, cells):
    """Check one column's cells in order and return (cells checked,
    (cell, failure) or None); the first failing cell ends the column."""
    chk = CHECKS[identity_id]
    for k, cell in enumerate(cells, 1):
        try:
            res = chk.checker(*cell)
        except ScaleLimit as exc:
            raise ScaleLimit("%s at %s: %s" % (identity_id, _at(chk, cell), exc)) from exc
        except QKoshyError as exc:
            res = _fail("exception", "clean evaluation", repr(exc))
        except Exception as exc:
            raise QKoshyError("checker of %s crashed at %s: %r"
                              % (identity_id, _at(chk, cell), exc)) from exc
        if res is not None:
            return k, (cell, res)
    return len(cells), None


def verify(identity_id: str, bounds: dict | None = None, jobs: int = 1,
           force: bool = False) -> IdentityReport:
    """Run one registry row over a parameter box and report the outcome.

    bounds maps parameter names to inclusive (lo, hi) pairs and merges
    over the row's defaults; the report keeps these bounds, while cells
    below a parameter's default lo, its floor, are left out.  Cells are
    checked in sorted order and the first counterexample ends the run.
    force bypasses the per-row caps, though enumeration-backed rows still
    hit the hard path-count guards, which raise ScaleLimit.
    """
    if identity_id not in CHECKS:
        raise UnknownIdentity("no identity %r; known: %s"
                              % (identity_id, ", ".join(CHECKS)))
    if jobs < 1:
        raise DomainError("jobs must be >= 1")
    chk = CHECKS[identity_id]
    eff = {k: (lo, hi) for k, (lo, hi, _) in chk.params.items()}
    for k, v in (bounds or {}).items():
        if k not in eff:
            raise DomainError("identity %s has no parameter %r" % (identity_id, k))
        eff[k] = (int(v[0]), int(v[1]))
    if not force:
        for k, (_, _, cap) in chk.params.items():
            if eff[k][1] > cap:
                raise ScaleLimit("%s: %s up to %d exceeds guard %d"
                                 % (identity_id, k, eff[k][1], cap))
    cells = chk.cells(eff)
    t0 = time.perf_counter()
    found = None
    checked = 0
    columns = [(identity_id, list(col)) for _, col in groupby(cells, itemgetter(0))]
    with closing(ordered_map(_check_column, columns, jobs)) as results:
        for count, found in results:
            checked += count
            if found:
                break
    elapsed = int((time.perf_counter() - t0) * 1000)
    if not cells:
        status, ce = "skipped", None
    elif found:
        cell, res = found
        status = "fail"
        ce = {"cell": dict(zip(chk.params, cell)), **res}
    else:
        status, ce = "pass", None
    return IdentityReport(
        identity=identity_id,
        params={k: [lo, hi] for k, (lo, hi) in sorted(eff.items())},
        status=status,
        counterexample=ce,
        cells_checked=checked,
        elapsed_ms=elapsed,
    )
