import json
from functools import lru_cache
from itertools import islice

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkoshy import qfuncs, registry
from qkoshy.cli import run
from qkoshy.errors import DivisionInexact, DomainError
from qkoshy.poly import Poly, RationalForm, exact_div, rational_equal, shape
from qkoshy.qfuncs import (
    ballot_number,
    catalan,
    cyclotomic,
    cyclotomic_divides,
    narayana_number,
    narayana_poly,
    one_minus_q_to,
    q_ballot,
    q_binomial,
    q_binomial_sq,
    q_catalan,
    q_int,
    q_lucas_check,
    q_pochhammer,
    t_step,
    t_term,
    t_term_diff,
    t_term_poly,
)

from conftest import clear_memos
from oracles import eval_mod, t_term_mod


def box_gen(width, height):
    """Oracle: GF by size of partitions with at most `height` parts, each
    part <= width.  Either the first row is short of the box (shrink the
    width) or it fills it (peel a full row)."""
    memo = {}

    def rec(w, h):
        if w == 0 or h == 0:
            return [1]
        if (w, h) in memo:
            return memo[(w, h)]
        a = rec(w - 1, h)
        b = rec(w, h - 1)
        out = [0] * (w * h + 1)
        for i, c in enumerate(a):
            out[i] += c
        for i, c in enumerate(b):
            out[i + w] += c
        while out and out[-1] == 0:
            out.pop()
        memo[(w, h)] = out
        return out

    return rec(width, height)


def test_box_oracle_sanity():
    # partitions in a 2x2 box: {}, 1, 2, 11, 21, 22
    assert box_gen(2, 2) == [1, 1, 2, 1, 1]


def test_q_binomial_against_box_oracle():
    for m in range(0, 11):
        for k in range(0, m + 1):
            assert list(q_binomial(m, k).coeffs) == box_gen(m - k, k), (m, k)


def test_q_binomial_edges():
    assert q_binomial(5, 0) == Poly.one()
    assert q_binomial(5, 5) == Poly.one()
    assert q_binomial(5, -1) == Poly.zero()
    assert q_binomial(5, 6) == Poly.zero()
    with pytest.raises(DomainError):
        q_binomial(-1, 0)
    assert str(q_binomial(4, 2)) == "1 + q + 2*q^2 + q^3 + q^4"
    assert q_binomial(4, 2)(1) == 6


def pascal_rows(k_max):
    """The rows [m choose 0..min(m, k_max)]_q for m = 0, 1, 2, ... by the
    Pascal recurrence [m choose j] = [m-1 choose j-1] + q^j [m-1 choose j],
    the independent oracle for the multiply/divide-by-(1 - q^a)
    constructions of qfuncs."""
    row = [Poly.one()]
    while True:
        yield row
        prev = row
        row = [Poly.one()]
        for j in range(1, min(len(prev), k_max) + 1):
            right = prev[j] if j < len(prev) else Poly.zero()
            row.append(prev[j - 1] + right.shift(j))


def pascal_q_binomial(m, k):
    """[m choose k]_q from pascal_rows."""
    if not 0 <= k <= m:
        return Poly.zero()
    return next(islice(pascal_rows(k), m, None))[k]


@lru_cache(maxsize=None)
def q_factorial(n):
    """[n]_q! = [1]_q [2]_q ... [n]_q."""
    out = Poly.one()
    for i in range(1, n + 1):
        out = out * q_int(i)
    return out


def test_pascal_recurrence_agrees():
    for m in range(0, 12):
        for k in range(-1, m + 2):
            assert pascal_q_binomial(m, k) == q_binomial(m, k)
    for m, k in ((30, 12), (41, 20), (60, 7)):
        assert pascal_q_binomial(m, k) == q_binomial(m, k)


@lru_cache(maxsize=None)
def pascal_triangle(m_max):
    """The rows [m choose 0..m]_q for m <= m_max, from pascal_rows."""
    return tuple(islice(pascal_rows(m_max), m_max + 1))


def binomial_mismatches(order):
    """The cells (m, k) of order, requested in that order from an empty
    q_binomial cache and table, whose binomial differs from the Pascal
    oracle or fails to build."""
    clear_memos()
    rows = pascal_triangle(max(m for m, _ in order))
    bad = []
    for m, k in order:
        try:
            ok = q_binomial(m, k) == rows[m][k]
        except DivisionInexact:
            ok = False
        if not ok:
            bad.append((m, k))
    return bad


ORACLE_M = 30
ROW_MAJOR = [(m, k) for m in range(ORACLE_M + 1) for k in range(m + 1)]
COLUMN_MAJOR = [(m, k) for k in range(ORACLE_M + 1) for m in range(k, ORACLE_M + 1)]
MIRROR_FIRST = ([(m, k) for m, k in ROW_MAJOR if 2 * k > m]
                + [(m, k) for m, k in ROW_MAJOR if 2 * k <= m])
SHUFFLED = random.Random(2013).sample(ROW_MAJOR, len(ROW_MAJOR))
BUILD_ORDERS = {"row-major": ROW_MAJOR, "column-major": COLUMN_MAJOR,
                "mirror-first": MIRROR_FIRST, "shuffled": SHUFFLED}


@pytest.fixture
def ratio_calls(monkeypatch, cold_memos):
    """The (tops, bottoms) of every q_ratio call that qfuncs makes."""
    calls = []
    real = qfuncs.q_ratio

    def record(c, tops, bottoms, what):
        calls.append((tuple(tops), tuple(bottoms)))
        return real(c, tops, bottoms, what)

    monkeypatch.setattr(qfuncs, "q_ratio", record)
    return calls


@pytest.mark.parametrize("order", BUILD_ORDERS.values(), ids=BUILD_ORDERS.keys())
def test_q_binomial_whatever_the_build_order(cold_memos, order):
    # each order reaches a cell through other neighbours and mirrors
    assert binomial_mismatches(order) == []


def test_planted_column_step_refutes_the_oracle(monkeypatch, cold_memos):
    # [m-1 choose k] to [m choose k] over 1 - q^k instead of 1 - q^(m-k)
    def planted(m, k):
        diagonal, (key, tops, _) = real(m, k)
        return diagonal, (key, tops, (k,))

    real = qfuncs._pascal_steps
    monkeypatch.setattr(qfuncs, "_pascal_steps", planted)
    for name, order in BUILD_ORDERS.items():
        assert binomial_mismatches(order), name


@pytest.mark.parametrize("built,want", [
    ((11, 3), ((12,), (4,))),      # diagonal [m-1 choose k-1]
    ((11, 4), ((12,), (8,))),      # column [m-1 choose k]
    ((11, 8), ((12,), (4,))),      # the diagonal neighbour's mirror
    ((11, 7), ((12,), (8,))),      # the column neighbour's mirror
])
def test_a_built_neighbour_costs_one_step(ratio_calls, built, want):
    q_binomial(*built)
    ratio_calls.clear()
    assert q_binomial(12, 4) == pascal_q_binomial(12, 4)
    assert ratio_calls == [want]


def test_a_mirror_costs_nothing_and_shares_the_binomial(ratio_calls):
    p = q_binomial(12, 4)
    ratio_calls.clear()
    assert q_binomial(12, 8) is p
    assert ratio_calls == []
    # the table holds the very polynomial, and tuple, the cache returns
    assert qfuncs._built[(12, 4)] is p
    assert qfuncs._built[(12, 4)].coeffs is q_binomial(12, 4).coeffs


def test_no_built_neighbour_runs_the_product_formula(ratio_calls):
    assert q_binomial(20, 13) == pascal_q_binomial(20, 13)
    assert len(ratio_calls) == 7
    # [m choose k-1] in the same row is no neighbour a step is taken from
    q_binomial(12, 3)
    ratio_calls.clear()
    assert q_binomial(12, 4) == pascal_q_binomial(12, 4)
    assert len(ratio_calls) == 4
    ratio_calls.clear()
    assert q_binomial(20, 0) == q_binomial(20, 20) == Poly.one()
    assert ratio_calls == []


def test_a_kept_binomial_is_found_and_replaces_none(ratio_calls):
    qfuncs.keep_binomial(12, 6, list(pascal_q_binomial(12, 6).coeffs))
    assert q_binomial(12, 6) == pascal_q_binomial(12, 6)
    assert ratio_calls == []
    # a built binomial stays the very polynomial the cache returns
    p = q_binomial(12, 4)
    qfuncs.keep_binomial(12, 8, [1])
    assert qfuncs._built[(12, 4)] is p


def test_rows_cost_one_step_per_binomial(ratio_calls):
    cells = [(m, k) for m in range(41) for k in range(m + 1)]
    for m, k in cells:
        q_binomial(m, k)
    keys = {(m, min(k, m - k)) for m, k in cells}
    assert len(ratio_calls) <= len(keys)
    # building each cell afresh by the product formula costs this many
    assert len(keys) < sum(min(k, m - k) for m, k in cells)


def test_built_table_stays_within_its_cap(monkeypatch, cold_memos):
    monkeypatch.setattr(qfuncs, "_BUILT_CAP", 5)
    rows = pascal_triangle(ORACLE_M)
    for m, k in SHUFFLED:
        assert q_binomial(m, k) == rows[m][k], (m, k)
        assert len(qfuncs._built) <= 5


def test_one_minus_q_to_domain():
    assert qfuncs.one_minus_q_to(1) == Poly(1, -1)
    assert qfuncs.one_minus_q_to(3) == Poly(1, 0, 0, -1)
    for k in (0, -3):
        with pytest.raises(DomainError):
            qfuncs.one_minus_q_to(k)


def test_q_int_and_factorial():
    assert q_int(0) == Poly.zero()
    assert q_int(1) == Poly.one()
    assert q_int(4) == Poly(1, 1, 1, 1)
    assert q_factorial(0) == Poly.one()
    f = Poly.one()
    for i in range(1, 7):
        f = f * q_int(i)
        assert q_factorial(i) == f
    # binomial = factorial quotient
    for m in range(0, 9):
        for k in range(0, m + 1):
            lhs = q_binomial(m, k) * q_factorial(k) * q_factorial(m - k)
            assert lhs == q_factorial(m)


def test_q_pochhammer():
    # first factor of (+q^0; q)_r is 1 - q^0 = 0
    assert q_pochhammer("+", 0, 3) == Poly.zero()
    prod = Poly.one()
    for i in range(4):
        prod = prod * (Poly.one() - Poly.monomial(i + 1))
    assert q_pochhammer("+", 1, 4) == prod
    prod = Poly.one()
    for i in range(3):
        prod = prod * (Poly.one() + Poly.monomial(i + 2))
    assert q_pochhammer("-", 2, 3) == prod
    with pytest.raises(DomainError):
        q_pochhammer("*", 1, 2)
    with pytest.raises(DomainError):
        q_pochhammer("+", -1, 2)


def test_catalan_and_narayana():
    assert [catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]
    assert str(narayana_poly(3)) == "1 + 3*q + q^2"
    for n in range(1, 9):
        assert narayana_poly(n)(1) == catalan(n)
        assert sum(narayana_number(n, k) for k in range(1, n + 1)) == catalan(n)
    # reciprocal in q over the support window
    for n in range(1, 9):
        assert shape(narayana_poly(n)).is_reciprocal


def test_q_catalan_spots():
    assert q_catalan(0) == Poly.one()
    assert q_catalan(1) == Poly.one()
    assert str(q_catalan(3)) == "1 + q^2 + q^3 + q^4 + q^6"
    for n in range(0, 10):
        assert q_catalan(n)(1) == catalan(n)
        # defining quotient: (1-q^{n+1}) C_n = (1-q) [2n, n]
        lhs = (Poly.one() - Poly.monomial(n + 1)) * q_catalan(n)
        rhs = Poly(1, -1) * q_binomial(2 * n, n)
        assert lhs == rhs


def test_q_catalan_against_pascal_difference():
    # C_n(q) = [2n choose n]_q - q [2n choose n+1]_q, a form with no division
    for m, row in zip(range(81), pascal_rows(41)):
        if m % 2 == 0:
            n = m // 2
            above = row[n + 1] if n + 1 < len(row) else Poly.zero()
            assert q_catalan(n) == row[n] - above.shift(1), n


def test_cyclotomic_table():
    table = {
        1: Poly(-1, 1),
        2: Poly(1, 1),
        3: Poly(1, 1, 1),
        4: Poly(1, 0, 1),
        5: Poly(1, 1, 1, 1, 1),
        6: Poly(1, -1, 1),
        9: Poly(1, 0, 0, 1, 0, 0, 1),
        12: Poly(1, 0, -1, 0, 1),
    }
    for k, want in table.items():
        assert cyclotomic(k) == want, k
    # product over divisors reassembles q^k - 1
    for k in range(1, 16):
        prod = Poly.one()
        for d in range(1, k + 1):
            if k % d == 0:
                prod = prod * cyclotomic(d)
        assert prod == Poly.monomial(k) - Poly.one()
    with pytest.raises(DomainError):
        cyclotomic(0)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 30), st.lists(st.integers(-9, 9), max_size=40),
       st.sampled_from(("multiple", "multiple plus one", "shorter than d")))
def test_cyclotomic_divides_agrees_with_long_division(d, g, form):
    if form == "shorter than d":
        c = tuple(g[: d - 1])
    else:
        c = (cyclotomic(d) * Poly(g) + int(form == "multiple plus one")).coeffs
    try:
        exact_div(Poly(c), cyclotomic(d))
        want = True
    except DivisionInexact:
        want = False
    assert cyclotomic_divides(c, d) is want
    if form == "multiple":
        assert want


def test_q_binomial_sq():
    for m in range(0, 9):
        for k in range(0, m + 1):
            assert q_binomial_sq(m, k) == q_binomial(m, k).subs_power(2)


def test_ballot_numbers():
    # Catalan triangle row checks: B(n, 0) = C(n)
    for n in range(0, 9):
        assert ballot_number(n, 0) == catalan(n)
    assert ballot_number(1, 1) == 2
    assert ballot_number(2, 1) == 5
    assert ballot_number(2, 2) == 9
    assert ballot_number(3, 1) == 14


def test_q_ballot():
    assert q_ballot(2, 1) == q_ballot(2, 1, method="difference") == Poly(1, 1)
    for n in range(1, 8):
        assert q_ballot(1, n) == q_catalan(n)
        for j in range(1, 5):
            forms_equal = q_ballot(j, n, method="quotient") == q_ballot(
                j, n, method="difference"
            )
            assert forms_equal, (j, n)
            assert q_ballot(j, n)(1) == ballot_number(n, j - 1)
    # the quotient form divides by 1 - q^(2n+j); the difference form
    # divides by nothing
    for n in range(1, 41):
        for j in range(1, 13):
            assert q_ballot(j, n) == q_ballot(j, n, method="difference"), (j, n)
    with pytest.raises(DomainError):
        q_ballot(0, 3)
    with pytest.raises(DomainError):
        q_ballot(2, 0)
    with pytest.raises(DomainError):
        q_ballot(2, 2, method="nope")


def test_t_term_poly_spots():
    assert str(t_term_poly(1, 3, 1)) == "1 + 2*q^2 + 2*q^4 + q^6"
    assert t_term_poly(2, 3, 1) == Poly(0, 0, 1, -1, 1)
    # vanishes below the support threshold n >= 2r - j
    assert t_term_poly(3, 2, 1) == Poly.zero()
    assert t_term_poly(4, 2, 1) == Poly.zero()
    with pytest.raises(DomainError):
        t_term_poly(0, 3, 1)


def _product_t(r, n, j):
    """T_r^(j)(n) from the product of its two q-binomials."""
    if r > n or n < 2 * r - j:
        return Poly.zero()
    core = q_binomial_sq(n, r) * q_binomial(2 * n + j - 1 - 2 * r, n - 1)
    return exact_div(core * one_minus_q_to(j), one_minus_q_to(n)).shift(r * r - r)


def _product_andrews(r, n):
    """Andrews's A_r and S_r from their products (S_r is zero at n = 1)."""
    a = q_binomial_sq(n, r) * q_binomial(2 * n - 2 * r, n - 1)
    if n < 2:
        return a, Poly.zero()
    return a, q_binomial_sq(n - 1, r) * q_binomial(2 * n - 2 * r - 1, n - 2)


def test_t_step_against_product_form():
    # every r from 1 past the last nonzero term, so each walk crosses the
    # region n < 2r - j and takes its first vanishing step
    for n in range(1, 41):
        for j in range(1, 7):
            c = qfuncs._direct_term(1, n, j, True)
            for r in range(1, n + 2):
                want = _product_t(r, n, j)
                assert Poly(c).shift(r * r - r) == want, (r, n, j)
                assert (c == []) == (r > min(n, (n + j) // 2)), (r, n, j)
                c = t_step(c, r, n, j)


def test_stepped_andrews_terms_against_products():
    for n in range(1, 41):
        a = qfuncs._direct_term(1, n, 1, False)
        s = qfuncs._direct_term(1, n - 1, 2, False) if n >= 2 else []
        for r in range(1, (n + 1) // 2 + 1):
            want_a, want_s = _product_andrews(r, n)
            assert Poly(a) == want_a and Poly(s) == want_s, (r, n)
            a, s = t_step(a, r, n, 1), t_step(s, r, n - 1, 2)
        assert a == [] and s == []


@pytest.mark.parametrize("j,passes", [(1, 2), (2, 2), (3, 3)])
@pytest.mark.parametrize("r", [1, 2])
def test_t_step_cancels_its_shared_factor(ratio_passes, r, j, passes):
    # the top 2(n - r) is the bottom 2n + j - 1 - 2r at j = 1 and the
    # bottom 2n + j - 2 - 2r at j = 2, so those steps take two passes
    # each way; j = 3 shares no factor at these r and takes three
    n = 12
    c = qfuncs._direct_term(r, n, j, True)
    ratio_passes.update(mul=0, div=0)
    c = t_step(c, r, n, j)
    assert ratio_passes == {"mul": passes, "div": passes}
    assert Poly(c).shift(r * r + r) == _product_t(r + 1, n, j)


@pytest.mark.parametrize("n,j,passes", [(12, 2, 1), (12, 12, 1), (12, 3, 2)])
def test_direct_first_term_cancels_a_shared_factor(ratio_passes, n, j, passes):
    # (1 - q^2n)(1 - q^j) / ((1 - q^2)(1 - q^n)): 1 - q^j cancels at j = 2
    # and at j = n
    q_binomial(2 * n + j - 3, n - 1)
    ratio_passes.update(mul=0, div=0)
    c = qfuncs._direct_term(1, n, j, True)
    assert ratio_passes == {"mul": passes, "div": passes}
    assert Poly(c) == _product_t(1, n, j)


def test_t_term_diff_matches_products_and_t_term_poly():
    clear_memos()
    for n in range(1, 31):
        for r in range(1, (n + 1) // 2 + 1):
            a, s = _product_andrews(r, n)
            want = (a - s * Poly(0, 1, *[0] * (n - 1), 1)).shift(r * r - r)
            assert t_term_diff(r, n) == want == t_term_poly(r, n, 1), (r, n)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 9), st.integers(1, 10), st.integers(1, 4)),
                min_size=1, max_size=40))
def test_t_term_poly_is_the_same_whatever_the_held_state(calls):
    # calls repeat, step up, step back and interleave (n, j) keys; each
    # answer must equal the product form whatever the stepper holds
    for r, n, j in calls:
        assert t_term_poly(r, n, j) == _product_t(r, n, j), (r, n, j)


def test_t_term_poly_orders_that_reuse_the_held_term():
    clear_memos()
    order = [(1, 12, 3), (1, 12, 3), (2, 12, 3), (4, 12, 3), (3, 12, 3), (2, 12, 3),
             (3, 12, 3), (2, 11, 1), (4, 12, 3), (3, 11, 1), (5, 12, 3), (9, 12, 3)]
    for r, n, j in order:
        assert t_term_poly(r, n, j) == _product_t(r, n, j), (r, n, j)
    # the held state stays bounded however many keys pass through it
    for n in range(1, 60):
        t_term_poly(1, n, 1)
    assert len(qfuncs._held) <= qfuncs._HELD_CAP


def test_stepped_terms_against_poly_free_oracle():
    # an evaluation at random points modulo a 61-bit prime, built from
    # pow() alone, so a fault in the list kernels that the stepper and the
    # product form share cannot pass (Schwartz 1980)
    rng = random.Random(20131)
    points = [rng.randrange(2, (1 << 61) - 2) for _ in range(3)]
    clear_memos()
    for n in range(1, 31):
        for j in range(1, 5):
            for r in range(1, min(n, (n + j) // 2) + 2):
                c = t_term_poly(r, n, j).coeffs
                for x in points:
                    want = t_term_mod(r, n, j, x)
                    if want is not None:
                        assert eval_mod(c, x) == want, (r, n, j, x)
    for n in range(1, 31):
        for r in range(1, (n + 1) // 2 + 1):
            c = t_term_diff(r, n).coeffs
            for x in points:
                want = t_term_mod(r, n, 1, x)
                if want is not None:
                    assert eval_mod(c, x) == want, (r, n, x)


def test_poly_free_oracle_skips_vanishing_denominators():
    p = 101
    # x = 10 has order 4 modulo 101, so 1 - x^4 vanishes: T_1(4) has the
    # denominator 1 - q^4
    assert pow(10, 4, p) == 1
    assert t_term_mod(1, 4, 1, 10, p) is None
    assert t_term_mod(1, 3, 1, 10, p) == eval_mod(t_term_poly(1, 3, 1).coeffs, 10, p)
    assert t_term_mod(3, 2, 1, 10, p) == 0


@pytest.mark.parametrize("plant,exact", [
    # one divisor off by one: a step division is no longer exact
    (lambda nums, dens: (nums, (dens[0] - 1,) + dens[1:]), False),
    # an extra factor 1 - q: every division stays exact, each stepped term
    # is wrong, and only a comparison with a product form can tell
    (lambda nums, dens: (nums + (1,), dens), True),
])
def test_planted_step_ratio_refutes_tj_poly_and_t_forms(monkeypatch, capsys, cold_memos,
                                                        plant, exact):
    real = qfuncs._step_exponents
    monkeypatch.setattr(qfuncs, "_step_exponents", lambda r, n, j: plant(*real(r, n, j)))
    for ident, bounds in (("tj-poly", ["--n", "1..8", "--j", "1..3"]),
                          ("t-forms", ["--n", "1..8"])):
        assert run(["verify", "--id", ident] + bounds + ["--format", "json", "--jobs", "1"]) == 1
        d = json.loads(capsys.readouterr().out)
        ce = d["counterexample"]
        # only a stepped term (r >= 2) can carry the fault
        assert d["status"] == "fail" and ce["cell"]["r"] == 2, d
        assert (ce["left"] != "exception") == exact, ce


def test_t_term_forms_are_one_polynomial():
    for n in range(1, 8):
        for r in range(1, (n + 1) // 2 + 1):
            forms = t_term(r, n)
            assert forms.tr21 == t_term_poly(r, n, 1)
            ref = RationalForm(forms.tr21, Poly.one())
            for name, form in forms.rational_forms():
                assert rational_equal(form, ref), (n, r, name)
            assert sum(forms.tr22_parts, Poly.zero()) == forms.tr21, (n, r)


@pytest.mark.parametrize("r, n", [(0, 3), (-1, 3), (2, 2), (3, 4), (1, 0)])
def test_t_term_outside_its_domain_is_an_error(r, n):
    # the forms are built for r >= 1 and n >= 2r - 1 only
    with pytest.raises(DomainError):
        t_term(r, n)


def test_planted_pochhammer_refutes_andrews_rational(monkeypatch, capsys):
    # q_pochhammer enters only the andrews_rational form; a planted top
    # coefficient changes the quotient from n = 2 on (at n = 1 the same
    # planted factor 1 - q stands above and below the line)
    real = q_pochhammer

    def planted(sign, a, r):
        p = real(sign, a, r)
        return p + Poly.monomial(p.degree + 1)

    monkeypatch.setattr(qfuncs, "q_pochhammer", planted)
    assert run(["verify", "--id", "t-forms", "--n", "1..6", "--format", "json",
                "--jobs", "1"]) == 1
    d = json.loads(capsys.readouterr().out)
    ce = d["counterexample"]
    assert d["status"] == "fail", d
    assert ce["cell"] == {"n": 2, "r": 1}, ce
    assert ce["diff"] == "form andrews_rational deviates", ce


def test_q_lucas_spots():
    for m in range(0, 16):
        for k in range(0, m + 1):
            for d in (2, 3, 5):
                assert q_lucas_check(m, k, d), (m, k, d)


def test_planted_binomial_refutes_qlucas_and_cyclo_div(monkeypatch, capsys):
    real = q_binomial

    def planted(m, k):
        p = real(m, k)
        return p + Poly.monomial(p.degree + 1) if (m, k) == (6, 3) else p

    monkeypatch.setattr(qfuncs, "q_binomial", planted)
    monkeypatch.setattr(registry, "q_binomial", planted)
    assert q_lucas_check(6, 3, 2) is False
    assert q_lucas_check(6, 3, 3) is False
    assert q_lucas_check(6, 2, 2) is True
    # [6 choose 3]_q is cell (m, k) = (6, 3) of qlucas and (n, r) = (4, 1) of cyclo-div
    for argv, cell in [(["--id", "qlucas", "--m", "6", "--k", "3", "--d", "2..4"],
                        {"m": 6, "k": 3, "d": 2}),
                       (["--id", "cyclo-div", "--n", "4", "--r", "1..2"],
                        {"n": 4, "r": 1})]:
        assert run(["verify"] + argv + ["--format", "json", "--jobs", "1"]) == 1
        d = json.loads(capsys.readouterr().out)
        assert d["status"] == "fail" and d["counterexample"]["cell"] == cell
