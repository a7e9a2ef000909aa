import json
import os
import random
from operator import ge
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qkoshy.conjecture as cj
from qkoshy import qfuncs
from qkoshy.errors import DomainError, InvariantViolation
from qkoshy.poly import Poly, shape, unimodal_break_index
from qkoshy.qfuncs import q_binomial, q_int

from conftest import clear_memos
from oracles import eval_mod, t_term_mod


def test_conjecture_poly_frozen():
    assert cj.conjecture_poly("odd-n", 4, 3) == Poly(1, 1, 2, 2, 2, 2, 1, 1)
    assert cj.conjecture_poly("odd-n", 1, 1) == Poly(1, 1)
    want = (Poly.one() + Poly.monomial(2)) * q_int(2) * q_binomial(4, 1)
    assert cj.conjecture_poly("even-n", 4, 2, 2) == want


def test_conjecture_poly_guards():
    with pytest.raises(DomainError):
        cj.conjecture_poly("odd-n", 4, 2)
    with pytest.raises(DomainError):
        cj.conjecture_poly("odd-n", 4, 3, 2)
    with pytest.raises(DomainError):
        cj.conjecture_poly("odd-n", 2, 3)  # m < n
    with pytest.raises(DomainError):
        cj.conjecture_poly("even-n", 4, 3, 2)
    with pytest.raises(DomainError):
        cj.conjecture_poly("even-n", 4, 2)  # j missing
    with pytest.raises(DomainError):
        cj.conjecture_poly("even-n", 4, 2, 3)  # odd j
    with pytest.raises(DomainError):
        cj.conjecture_poly("even-n", 4, 2, 0)
    with pytest.raises(DomainError):
        cj.conjecture_poly("mystery", 4, 3)


def odd_cells(m_max, n_max):
    grid = sum(max(0, m_max - n + 1) for n in range(1, n_max + 1, 2))
    extra = sum((n - 1) // 2 for n in range(1, min(m_max, n_max, 60) + 1, 2))
    return grid + extra


def even_cells(m_max, n_max, j_max):
    per = len(range(2, j_max + 1, 2))
    return sum(max(0, m_max - n + 1) * per for n in range(2, n_max + 1, 2))


def test_small_sweeps_pass():
    rep = cj.sweep("odd-n", 9, 9)
    assert rep.status == "pass"
    assert rep.counterexamples == []
    assert rep.verified_cells == odd_cells(9, 9) == 35
    # consequence cells follow m_max: only column n = 1 has a grid cell
    # here, and it has no consequence cells
    assert cj.sweep("odd-n", 1, 60).verified_cells == odd_cells(1, 60) == 1
    assert cj.sweep("odd-n", 7, 15).verified_cells == odd_cells(7, 15) == 16 + 6
    rep = cj.sweep("even-n", 10, 10, 4)
    assert rep.status == "pass"
    assert rep.verified_cells == even_cells(10, 10, 4)


def scan_verdict(p, j):
    """The verdict the sweep's criterion stands for: a scan of P * [j]_q."""
    return unimodal_break_index(Poly(p) * q_int(j)) is None


@st.composite
def palindromes(draw):
    """Coefficients of a reciprocal P >= 0 with nonzero ends, of degree
    0 to 16; interior zeros make many of them fail."""
    half = [draw(st.integers(1, 4))] + draw(st.lists(st.integers(0, 4), max_size=8))
    return half + half[-1 - draw(st.integers(0, 1))::-1]


@given(palindromes(), st.integers(1, 7))
@settings(max_examples=600)
def test_criterion_matches_product_scan(p, j):
    # degree D < j is common here, so P_{i-j} must read 0 for i < j
    # rather than wrap round to the top of the list
    assert cj._rises_to_centre(p, j, len(p) - 1) == scan_verdict(p, j)


def test_criterion_pinned_cells():
    # m = n = 2: P = (1 + q^2)(1 + q) = 1 + q + q^2 + q^3, degree 3 < j
    # for j >= 4, where a wrapped index i - j would read the top of P
    p = (Poly.one() + Poly.monomial(2)) * q_binomial(2, 1)
    assert p.coeffs == (1, 1, 1, 1)
    for j in range(1, 11):
        assert cj._rises_to_centre(list(p.coeffs), j, p.degree) is True
    assert cj._sweep_column("even-n", 2, 2, 10, None) == (5, [], [])
    # 1 + 2q^2 + q^4 dips at q^1; times [2]_q the dip is filled, times
    # [3]_q it comes back as 1 + q + 3q^2 + 2q^3 + ...
    gap = [1, 0, 2, 0, 1]
    assert [cj._rises_to_centre(gap, j, 4) for j in (1, 2, 3)] == [False, True, False]
    assert [scan_verdict(gap, j) for j in (1, 2, 3)] == [False, True, False]
    # 2 + q + q^2 + 2q^3 dips in the middle, and still does times [2]_q
    dip = [2, 1, 1, 2]
    assert [cj._rises_to_centre(dip, j, 3) for j in (1, 2, 3)] == [False, False, True]
    assert [scan_verdict(dip, j) for j in (1, 2, 3)] == [False, False, True]


def every_even_j_scans_unimodal(p):
    """Brute force: P * [j]_q scans unimodal for every even j <= deg P + 2;
    past deg P + 1 the product is always unimodal."""
    return all(scan_verdict(p, j) for j in range(2, len(p) + 2, 2))


@given(palindromes())
@settings(max_examples=600)
def test_two_scans_judge_every_even_j(p):
    d = len(p) - 1
    want = every_even_j_scans_unimodal(p)
    assert cj._rises_for_every_even_j(p, d) == want
    # P_0 .. P_ceil(d/2) is all that the two scans read
    assert cj._rises_for_every_even_j(p[: len(p) // 2 + 1], d) == want


def test_odd_degree_needs_the_step_one_scan():
    # P = 1 + q^2 + q^3 + q^5: P * [2]_q is unimodal and P * [4]_q is not,
    # so only the scan of P itself, at step 1, refuses it
    p = [1, 0, 1, 1, 0, 1]
    assert scan_verdict(p, 2) and not scan_verdict(p, 4)
    assert cj._rises_to_centre(p, 2, 5) and not cj._rises_to_centre(p, 1, 5)
    assert not cj._rises_for_every_even_j(p, 5)
    assert not cj._rises_for_every_even_j(p[:4], 5)


def ext_rises(p, j, d):
    """_rises_to_centre as it was written with a zero-padded copy of p:
    P_1 .. P_h against P_{1-j} .. P_{h-j}, the reference for its
    copy-free scan."""
    h = (d + j - 1) // 2
    ext = [0] * j + p[: h + 1]
    ext += [0] * (j + h + 1 - len(ext))
    return all(map(ge, ext[j + 1 :], ext[1 : h + 1]))


@given(palindromes(), st.integers(1, 24), st.integers(0, 8))
@settings(max_examples=600)
def test_copy_free_scan_matches_the_padded_copy(p, j, cut):
    # j > D + 1 is common here; a prefix of p stands for the half lists
    # the sweep passes, and may be shorter than the h + 1 entries read
    d = len(p) - 1
    assert cj._rises_to_centre(p, j, d) == ext_rises(p, j, d)
    short = p[: max(len(p) - cut, 1)]
    assert cj._rises_to_centre(short, j, d) == ext_rises(short, j, d)


@given(st.lists(st.integers(-3, 3), max_size=12), st.integers(1, 20), st.integers(0, 30))
def test_copy_free_scan_makes_the_same_comparisons(p, j, d):
    # any list and any degree, palindromic or not: both read the same
    # entries, zero past the end of p and before its start
    assert cj._rises_to_centre(p, j, d) == ext_rises(p, j, d)


@pytest.mark.parametrize("m", [8, 9])
def test_reciprocity_guard_sees_one_planted_asymmetry(monkeypatch, m):
    # [m choose 3]_q has 16 coefficients at m = 8 and 19, with a centre
    # that is its own mirror, at m = 9; one coefficient raised anywhere
    # else, the centre's neighbours included, breaks the palindrome
    width = 3 * (m - 3) + 1
    real = cj.q_ratio
    for i in range(width):
        if 2 * i == width - 1:
            continue

        def planted(c, tops, bottoms, what):
            out = real(c, tops, bottoms, what)
            if tops == (m,):
                out[i] += 1
            return out

        monkeypatch.setattr(cj, "q_ratio", planted)
        with pytest.raises(InvariantViolation, match="cell m=%d n=4 j=2 is not reciprocal" % m):
            cj._sweep_column("even-n", 4, m, 4, None)


def test_a_column_step_is_one_multiply_and_one_division(ratio_passes):
    q_binomial(4, 3)
    ratio_passes.update(mul=0, div=0)
    assert cj._sweep_column("even-n", 4, 24, 4, None) == (21 * 2, [], [])
    assert ratio_passes == {"mul": 20, "div": 20}


def _row_poly(m, n):
    """P = (1 + q^n) [m choose n-1]_q, shared by the cells of row (m, n)."""
    return (Poly.one() + Poly.monomial(n)) * q_binomial(m, n - 1)


@pytest.mark.parametrize("case", cj.CASES)
def test_half_cell_verdict_matches_the_cell_scan(case):
    for n in range(1 if case == "odd-n" else 2, 21, 2):
        for m in range(n, 21):
            binom = list(q_binomial(m, n - 1).coeffs)
            p = _row_poly(m, n).coeffs
            d = len(p) - 1
            half = cj._half_cell(binom, n)
            assert tuple(half) == p[: (d + 1) // 2 + 1], (m, n)
            if case == "odd-n":
                verdict = cj._rises_to_centre(half, 1, d)
                assert verdict == (unimodal_break_index(cj.conjecture_poly(case, m, n)) is None)
                continue
            verdict = cj._rises_for_every_even_j(half, d)
            for j in range(2, 13, 2):
                cell = cj.conjecture_poly(case, m, n, j)
                assert verdict == (unimodal_break_index(cell) is None), (m, n, j)


def product_scan_column(case, n, m_max, j_max, skip):
    """Cells checked and counterexample records of the grid cells of one
    column, by building every cell polynomial and scanning it."""
    jays = (None,) if case == "odd-n" else tuple(range(2, j_max + 1, 2))
    checked, bad = 0, []
    for m in range(n, m_max + 1):
        for j in jays:
            if cj._covered(skip, m, n, j):
                continue
            p = cj.conjecture_poly(case, m, n, j)
            checked += 1
            assert p.coeffs == p.coeffs[::-1]
            hit = unimodal_break_index(p)
            if hit is not None:
                params = {"m": m, "n": n} if j is None else {"m": m, "n": n, "j": j}
                bad.append(cj._cell_record(params, p, hit))
    if case == "odd-n" and n <= min(m_max, cj.CONSEQUENCE_N_CAP) and not (
        skip is not None and n <= min(skip["m_max"], skip["n_max"])
    ):
        checked += (n - 1) // 2
    return checked, bad


SKIP_BOXES = (
    None,
    {"m_max": 30, "n_max": 20, "j_max": 4},   # covers only j <= 4 of even-n
    {"m_max": 30, "n_max": 20, "j_max": 10},  # covers whole even-n rows
)


@pytest.mark.parametrize("skip", SKIP_BOXES, ids=("no-skip", "skip-j4", "skip-all-j"))
@pytest.mark.parametrize("case", cj.CASES)
def test_column_verdicts_match_product_scan(case, skip):
    for n in range(1 if case == "odd-n" else 2, 41, 2):
        for m_max in sorted({n, n + 1, 60}):
            checked, bad, _ = cj._sweep_column(case, n, m_max, 10, skip)
            assert (checked, bad) == product_scan_column(case, n, m_max, 10, skip), (n, m_max)


@pytest.mark.parametrize("skip", (None, {"m_max": 7, "n_max": 5, "j_max": 4}),
                         ids=("no-skip", "skip"))
@pytest.mark.parametrize("grid", ((12, 9, 6), (10, 8, 1), (5, 9, 4)),
                         ids=("square", "no-even-j", "m-below-n"))
@pytest.mark.parametrize("case", cj.CASES)
def test_box_cells_counts_the_grid_cells_the_columns_check(monkeypatch, case, grid, skip):
    # grid cells only: no column takes consequence cells
    monkeypatch.setattr(cj, "CONSEQUENCE_N_CAP", 0)
    m_max, n_max, j_max = grid
    box = {"m_max": m_max, "n_max": n_max, "j_max": j_max}
    checked = sum(cj._sweep_column(case, n, m_max, j_max, skip)[0]
                  for n in cj._columns(case, n_max))
    covered = 0 if skip is None else cj._box_cells(case, {k: min(box[k], skip[k]) for k in box})
    assert checked == cj._box_cells(case, box) - covered


def test_a_wrong_lower_half_of_p_is_an_error(monkeypatch):
    # a failing row completes P from the half its verdict read, so a
    # wrong half cannot pass on a correct rebuild of P
    real = cj._half_cell

    def lowered(binom, n):
        half = real(binom, n)
        half[1] -= 1
        return half

    monkeypatch.setattr(cj, "_half_cell", lowered)
    with pytest.raises(InvariantViolation, match="m=3 n=3 j=None: criterion and scan disagree"):
        cj._sweep_column("odd-n", 3, 8, 10, None)


def test_even_sweep_can_be_empty(tmp_path):
    fp = str(tmp_path / "frontier.json")
    for grid in ((1, 1, 2), (10, 10, 1), (10, 1, 4), (1, 10, 10)):
        rep = cj.sweep("even-n", *grid, frontier_path=fp)
        assert rep.verified_cells == 0
        assert rep.to_dict()["status"] == "skipped"
        assert not os.path.exists(fp)


def test_frontier_rechecks_consequence_cells_beyond_old_m_max(tmp_path):
    fp = str(tmp_path / "frontier.json")
    first = cj.sweep("odd-n", 1, 15, frontier_path=fp)
    assert first.verified_cells == 1
    # the first run checked no consequence cell, so none is skipped now
    second = cj.sweep("odd-n", 15, 15, frontier_path=fp)
    assert second.verified_cells == odd_cells(15, 15) - odd_cells(1, 15)


def test_sweep_guards():
    with pytest.raises(DomainError):
        cj.sweep("nope", 5, 5)
    with pytest.raises(DomainError):
        cj.sweep("odd-n", 0, 5)
    with pytest.raises(DomainError):
        cj.sweep("odd-n", 5, 5, jobs=0)


def test_report_dict_shape():
    d = cj.sweep("odd-n", 5, 5).to_dict()
    assert set(d) == {
        "case",
        "grid",
        "status",
        "verified_cells",
        "counterexamples",
        "frontier",
        "elapsed_ms",
    }
    assert d["grid"] == {"m_max": 5, "n_max": 5, "j_max": 10}
    assert d["frontier"]["verified"] == d["grid"]
    json.dumps(d)


def test_frontier_extension(tmp_path):
    fp = str(tmp_path / "frontier.json")
    first = cj.sweep("odd-n", 9, 9, frontier_path=fp)
    data = json.loads(Path(fp).read_text())
    assert data == {
        "case": "odd-n",
        "verified": {"m_max": 9, "n_max": 9, "j_max": 10},
        "counterexamples": [],
    }
    again = cj.sweep("odd-n", 9, 9, frontier_path=fp)
    assert again.verified_cells == 0
    assert again.status == "pass"  # covered by the frontier, not empty
    bigger = cj.sweep("odd-n", 13, 13, frontier_path=fp)
    assert bigger.verified_cells == odd_cells(13, 13) - odd_cells(9, 9)
    assert json.loads(Path(fp).read_text())["verified"]["m_max"] == 13
    # shrinking rerun keeps the larger recorded box
    small = cj.sweep("odd-n", 3, 3, frontier_path=fp)
    assert small.frontier["verified"] == {"m_max": 13, "n_max": 13, "j_max": 10}
    assert json.loads(Path(fp).read_text())["verified"]["n_max"] == 13


@pytest.mark.parametrize("case,old,grid,kept", [
    ("odd-n", (6, 7, 10), (9, 3, 10), (9, 3, 10)),     # 12 cells against 16
    ("odd-n", (9, 3, 10), (6, 7, 10), (9, 3, 10)),     # 16 cells against 12
    ("odd-n", (8, 1, 10), (5, 3, 2), (8, 1, 10)),      # 8 cells each
    ("even-n", (10, 4, 4), (8, 6, 6), (8, 6, 6)),      # 32 cells against 45
    ("even-n", (10, 4, 4), (12, 4, 2), (10, 4, 4)),    # 32 cells against 20
    ("even-n", (10, 4, 2), (9, 2, 4), (10, 4, 2)),     # 16 cells each
], ids=["odd-grid-wins", "odd-old-wins", "odd-tie", "even-grid-wins", "even-old-wins",
        "even-tie"])
def test_frontier_keeps_the_box_with_more_cells(tmp_path, case, old, grid, kept):
    # neither box contains the other: the one with more cells is kept,
    # and a tie keeps the old box
    keys = ("m_max", "n_max", "j_max")
    old_box, grid_box, kept_box = (dict(zip(keys, b)) for b in (old, grid, kept))
    assert not all(grid_box[k] >= old_box[k] for k in keys)
    assert not all(old_box[k] >= grid_box[k] for k in keys)
    fp = str(tmp_path / "frontier.json")
    cj.sweep(case, *old, frontier_path=fp)
    rep = cj.sweep(case, *grid, frontier_path=fp)
    want = {"case": case, "verified": kept_box, "counterexamples": []}
    assert rep.to_dict()["frontier"] == want
    assert json.loads(Path(fp).read_text()) == want


def test_frontier_case_clash(tmp_path):
    fp = str(tmp_path / "frontier.json")
    cj.sweep("odd-n", 3, 3, frontier_path=fp)
    with pytest.raises(DomainError):
        cj.sweep("even-n", 3, 3, frontier_path=fp)


MALFORMED_FRONTIERS = [
    '{"case": "odd-n", "verified": {"m_max": "lots"}}',
    '{"case": "odd-n", "verified": ',
    '{"case": "odd-n", "verified": [1, 2]}',
    '{"case": "odd-n", "verified": {"m_max": 3, "n_max": 3, "j_max": 1}, "counterexamples": 5}',
    '{"case": "odd-n", "verified": {"m_max": 3, "n_max": 3, "j_max": 1}, "counterexamples": [5]}',
    '{"case": "odd-n", "verified": {"m_max": true, "n_max": -5, "j_max": 1}}',
    '{"case": "odd-n", "verified": {"m_max": 3, "n_max": 0, "j_max": 1}}',
]


def test_frontier_malformed(tmp_path):
    fp = str(tmp_path / "frontier.json")
    for text in MALFORMED_FRONTIERS:
        with open(fp, "w") as fh:
            fh.write(text)
        with pytest.raises(DomainError):
            cj.sweep("odd-n", 3, 3, frontier_path=fp)
        assert Path(fp).read_text() == text    # a rejected file is left as it was
    with open(fp, "wb") as fh:
        fh.write(b"\xff\xfe not utf-8")
    with pytest.raises(DomainError):
        cj.sweep("odd-n", 3, 3, frontier_path=fp)
    with pytest.raises(DomainError):      # a directory is no frontier file
        cj.sweep("odd-n", 3, 3, frontier_path=str(tmp_path))


def test_frontier_is_synced_before_it_replaces_the_old_file(monkeypatch, tmp_path):
    fp = str(tmp_path / "frontier.json")
    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        calls.append(("fsync", os.fstat(fd).st_ino))
        real_fsync(fd)

    def replace(src, dst):
        calls.append(("replace", dst))
        real_replace(src, dst)

    monkeypatch.setattr(cj.os, "fsync", fsync)
    monkeypatch.setattr(cj.os, "replace", replace)
    cj.sweep("odd-n", 3, 3, frontier_path=fp)
    assert calls == [("fsync", os.stat(fp).st_ino), ("replace", fp)]
    assert json.loads(Path(fp).read_text())["verified"]["m_max"] == 3


def _payloads(case, *grid):
    out = []
    for jobs in (1, 3):
        d = cj.sweep(case, *grid, jobs=jobs).to_dict()
        d.pop("elapsed_ms")
        out.append(d)
    return out


def _failing_at(*cells, jays=None):
    """A sweep verdict that fails the given palindromes P (for odd-n the
    cell itself), at each j in jays or at every j, whether it is handed
    the whole of P or its lower half, and judges everything else as usual.
    A palindrome is fixed by its degree and its lower half, so no other
    P matches."""
    real = cj._rises_to_centre
    bad = {p.coeffs for p in cells}

    def verdict(p, j, d):
        hit = any(len(c) == d + 1 and c[: len(p)] == tuple(p) for c in bad)
        return not (hit and (jays is None or j in jays)) and real(p, j, d)

    return verdict


def test_jobs_determinism(monkeypatch):
    a, b = _payloads("even-n", 14, 14, 4)
    assert a == b
    # the odd-n columns carry their consequence cells through the pool
    a, b = _payloads("odd-n", 14, 14)
    assert a == b
    assert a["verified_cells"] == odd_cells(14, 14)

    # planted failures: one grid cell and two consequence cells, which
    # the payload lists grid cells first, in column order
    real_break, real_negative = cj.unimodal_break_index, cj.first_negative
    planted = {cj.t_term_poly(1, 3, 1).coeffs, cj.t_term_poly(2, 9, 1).coeffs}
    target = cj.conjecture_poly("odd-n", 9, 5)
    monkeypatch.setattr(cj, "_rises_to_centre", _failing_at(target))

    def broken_break(p):
        return 4 if p == target else real_break(p)

    def broken_negative(c):
        # the consequence cells' sign check names coefficient 1 negative
        return 1 if tuple(c) in planted else real_negative(c)

    monkeypatch.setattr(cj, "unimodal_break_index", broken_break)
    monkeypatch.setattr(cj, "first_negative", broken_negative)
    a, b = _payloads("odd-n", 14, 14)
    assert a == b
    assert a["status"] == "fail"
    assert [c["params"] for c in a["counterexamples"]] == [
        {"m": 9, "n": 5},
        {"n": 3, "r": 1},
        {"n": 9, "r": 2},
    ]
    assert a["counterexamples"][1]["break_index"] == 1


@pytest.mark.parametrize("jobs", (1, 2))
def test_failing_even_row_falls_back_to_the_per_j_scans(monkeypatch, jobs):
    # row (7, 4), of even degree, fails at j = 2 and 4; row (8, 4), of odd
    # degree, fails only the step-1 scan, which no per-j scan repeats.  Both
    # rows fall back, and the records are those of one scan per j
    hits = {2: 5, 4: 6}
    cells = {j: cj.conjecture_poly("even-n", 7, 4, j) for j in hits}
    planted = {cells[j]: hits[j] for j in hits}
    real_break = cj.unimodal_break_index
    monkeypatch.setattr(cj, "unimodal_break_index", lambda p: planted.get(p) or real_break(p))
    two, one = _failing_at(_row_poly(7, 4), jays=(2, 4)), _failing_at(_row_poly(8, 4), jays=(1,))
    monkeypatch.setattr(cj, "_rises_to_centre", lambda p, j, d: two(p, j, d) and one(p, j, d))
    rep = cj.sweep("even-n", 10, 10, 10, jobs=jobs)
    assert rep.counterexamples == [
        {"params": {"m": 7, "n": 4, "j": j}, "poly": str(cells[j]), "break_index": hits[j]}
        for j in hits
    ]
    assert rep.verified_cells == even_cells(10, 10, 10)


def test_consequence_terms_equal_cold_builds_and_the_oracle(monkeypatch, cold_memos):
    terms = {}
    real = cj.t_term_poly

    def record(r, n, j):
        terms[(r, n)] = real(r, n, j)
        return terms[(r, n)]

    monkeypatch.setattr(cj, "t_term_poly", record)
    for n in range(1, 16, 2):
        assert cj._sweep_column("odd-n", n, 2 * n, 10, None)[2] == []
    assert list(terms) == [(r, n) for n in range(1, 16, 2) for r in range(1, (n + 1) // 2)]
    rng = random.Random(2013)
    points = [rng.randrange(2, (1 << 61) - 2) for _ in range(3)]
    for (r, n), t in terms.items():
        clear_memos()
        assert qfuncs.t_term_poly(r, n, 1) == t, (r, n)
        for x in points:
            assert eval_mod(t.coeffs, x) == t_term_mod(r, n, 1, x), (r, n, x)


@pytest.fixture
def built_by(monkeypatch):
    """The what-string of every q_ratio call that qfuncs makes."""
    whats = []
    real = qfuncs.q_ratio

    def record(c, tops, bottoms, what):
        whats.append(what)
        return real(c, tops, bottoms, what)

    monkeypatch.setattr(qfuncs, "q_ratio", record)
    return whats


@pytest.mark.parametrize("n", (3, 7, 15))
def test_column_hands_its_binomial_to_the_first_term(cold_memos, built_by, n):
    cj._sweep_column("odd-n", n, 2 * n - 2, 10, None)
    assert "[%d choose %d]_q" % (2 * n - 2, n - 1) not in built_by
    # so T_1(n) is one q_ratio from it
    assert built_by.count("T-term r=1 n=%d j=1" % n) == 1


@pytest.mark.parametrize("n", (7, 15))
def test_column_short_of_2n_minus_2_leaves_the_product_formula(cold_memos, built_by, n):
    name = "[%d choose %d]_q" % (2 * n - 2, n - 1)
    cj._sweep_column("odd-n", n, 2 * n - 3, 10, None)
    assert built_by.count(name) == n - 1
    # a frontier box that starts the column past 2n - 2 covers its
    # consequence cells too, so nothing is handed over or built
    clear_memos()
    built_by.clear()
    skip = {"m_max": 2 * n - 1, "n_max": n, "j_max": 10}
    assert cj._sweep_column("odd-n", n, 2 * n + 2, 10, skip) == (3, [], [])
    assert (2 * n - 2, n - 1) not in qfuncs._built and name not in built_by
    qfuncs.t_term_poly(1, n, 1)
    assert built_by.count(name) == n - 1


def test_early_close_lets_every_worker_exit(monkeypatch):
    # a worker terminated while it writes a result can leave the result
    # queue locked and the pool's shutdown stuck; an early close must
    # close and join the pool, so each worker exits on its own with 0
    pools = []
    real = cj.Pool

    def recording(*args, **kwargs):
        pool = real(*args, **kwargs)
        pools.append(pool)
        return pool

    monkeypatch.setattr(cj, "Pool", recording)
    results = cj.ordered_map(pow, [(2, k) for k in range(40)], jobs=2)
    assert next(results) == 1
    workers = list(pools[0]._pool)
    results.close()
    assert [w.exitcode for w in workers] == [0, 0]
    # no more workers than tasks
    assert list(cj.ordered_map(pow, [(2, 3), (3, 2)], jobs=8)) == [8, 9]
    assert len(pools) == 2
    assert len(pools[1]._pool) == 2


def test_verdict_the_scan_does_not_confirm_is_an_error(monkeypatch):
    # a failing verdict whose polynomial has no break means broken
    # arithmetic, never a counterexample
    monkeypatch.setattr(cj, "_rises_to_centre", _failing_at(cj.conjecture_poly("odd-n", 5, 3)))
    with pytest.raises(InvariantViolation, match="m=5 n=3 j=None: criterion and scan disagree"):
        cj.sweep("odd-n", 6, 6)


def test_column_stepped_wrong_is_an_error(monkeypatch):
    # a failing cell's polynomial comes from conjecture_poly, not from the
    # stepped column, so a wrong step that stays palindromic is caught by
    # the scan instead of being reported as a counterexample
    real = cj.q_ratio

    def stepped_wrong(c, tops, bottoms, what):
        out = real(c, tops, bottoms, what)
        return [1, 0, 0, 0, 1] if out == [1, 1, 2, 1, 1] else out  # [4 choose 2]_q

    monkeypatch.setattr(cj, "q_ratio", stepped_wrong)
    with pytest.raises(InvariantViolation, match="m=4 n=3 j=None: criterion and scan disagree"):
        cj.sweep("odd-n", 4, 3)


def test_column_step_that_does_not_divide_is_an_error(monkeypatch):
    # a column step whose division is inexact means broken arithmetic: the
    # sweep ends with InvariantViolation, naming the column, b and m
    real = cj.q_ratio

    def off_by_one(c, tops, bottoms, what):
        return real(c, tops, (4,) if (tops, bottoms) == ((5,), (3,)) else bottoms, what)

    monkeypatch.setattr(cj, "q_ratio", off_by_one)
    with pytest.raises(InvariantViolation, match=r"^column n=3: 1 - q\^3 does not divide at m=5$"):
        cj.sweep("odd-n", 6, 3)


def test_counterexample_reporting_path(monkeypatch):
    # no real counterexample is known, so exercise the reporting machinery
    # by planting a fake break at two specific cells
    real = cj.unimodal_break_index

    def planted(p):
        if p == cj.conjecture_poly("odd-n", 5, 3):
            return 4
        if p == cj.conjecture_poly("odd-n", 7, 5):
            return 9
        return real(p)

    monkeypatch.setattr(cj, "unimodal_break_index", planted)
    monkeypatch.setattr(cj, "_rises_to_centre", _failing_at(
        cj.conjecture_poly("odd-n", 5, 3), cj.conjecture_poly("odd-n", 7, 5)))
    rep = cj.sweep("odd-n", 8, 8)
    assert rep.status == "fail"
    # the sweep keeps going after the first hit and reports every cell
    assert [c["params"] for c in rep.counterexamples] == [
        {"m": 5, "n": 3},
        {"m": 7, "n": 5},
    ]
    rec = rep.counterexamples[0]
    assert rec["break_index"] == 4
    assert rec["poly"] == str(cj.conjecture_poly("odd-n", 5, 3))
    # all cells were still verified
    assert rep.verified_cells == odd_cells(8, 8)


def test_counterexamples_persist_and_merge(monkeypatch, tmp_path):
    real, real_verdict = cj.unimodal_break_index, cj._rises_to_centre

    def planted(p):
        if p == cj.conjecture_poly("odd-n", 5, 3):
            return 4
        return real(p)

    monkeypatch.setattr(cj, "unimodal_break_index", planted)
    monkeypatch.setattr(cj, "_rises_to_centre", _failing_at(cj.conjecture_poly("odd-n", 5, 3)))
    fp = str(tmp_path / "frontier.json")
    cj.sweep("odd-n", 6, 6, frontier_path=fp)
    data = json.loads(Path(fp).read_text())
    assert len(data["counterexamples"]) == 1
    # a later extension keeps the recorded counterexample without re-adding
    monkeypatch.setattr(cj, "unimodal_break_index", real)
    monkeypatch.setattr(cj, "_rises_to_centre", real_verdict)
    rep = cj.sweep("odd-n", 8, 8, frontier_path=fp)
    data = json.loads(Path(fp).read_text())
    assert len(data["counterexamples"]) == 1
    assert rep.frontier["counterexamples"][0]["params"] == {"m": 5, "n": 3}


def test_consequence_cells_are_nonnegative():
    # direct spot check of the quotient family the odd sweep re-verifies
    from qkoshy.qfuncs import t_term_poly

    for n in range(1, 26, 2):
        for r in range(1, (n - 1) // 2 + 1):
            assert shape(t_term_poly(r, n, 1)).is_nonnegative, (n, r)
