"""Acceptance gate: thirteen exact criteria, one test per criterion, and
the whole `all` payload pinned against tests/golden/all.json.

Everything is tolerance-zero.  Registry rows are exercised at their default
ranges through the `all` command exactly as a user would run them; the
direct loops below re-derive the combinatorial counts from scratch where a
criterion demands an independent check.
"""

import json
import os
import time
from math import comb
from pathlib import Path

import pytest

import qkoshy.conjecture as cj
from qkoshy.cli import run
from qkoshy.dyckpaths import analyze, iter_elevated, labeled_gen
from qkoshy.partitions import involution_step, iter_pairs, level_range
from qkoshy.poly import Poly
from qkoshy.qfuncs import catalan, narayana_poly, q_catalan

from oracles import ballot_weighted_gen


@pytest.fixture(scope="module")
def all_runs(tmp_path_factory):
    """One full `all` run per jobs setting; every criterion reads these."""
    base = tmp_path_factory.mktemp("acceptance")
    out1, out2 = base / "all-jobs1.json", base / "all-jobs2.json"
    t0 = time.perf_counter()
    code1 = run(["all", "--format", "json", "--jobs", "1", "--output", str(out1)])
    wall = time.perf_counter() - t0
    code2 = run(["all", "--format", "json", "--jobs", "2", "--output", str(out2)])
    p1 = json.loads(out1.read_text())
    p2 = json.loads(out2.read_text())
    return {
        "code1": code1,
        "code2": code2,
        "wall": wall,
        "p1": p1,
        "p2": p2,
        "rows": {d["identity"]: d for d in p1["identities"]},
        "sweeps": {d["case"]: d for d in p1["sweeps"]},
    }


def row(all_runs, ident):
    d = all_runs["rows"][ident]
    assert d["status"] == "pass", d
    return d


def test_criterion_01_integer_identity_to_200(all_runs):
    d = row(all_runs, "koshy")
    assert d["params"] == {"n": [1, 200]}
    assert d["cells_checked"] == 200
    assert d["elapsed_ms"] < 1000


def test_criterion_02_labeled_counts_and_expansion(all_runs):
    d1 = row(all_runs, "upeak-label")
    assert d1["params"] == {"m": [0, 11], "n": [0, 10]}
    d2 = row(all_runs, "upeak-gf")
    assert d2["params"] == {"n": [0, 12]}
    assert d1["elapsed_ms"] + d2["elapsed_ms"] < 60_000
    # spot value: six ways to mark one up-peak over the n = 3 paths
    assert labeled_gen(3, "up-peaks", 1)(1) == 6


def test_criterion_03_tower_machinery_to_9():
    t0 = time.perf_counter()
    for n in range(1, 10):
        for p in iter_elevated(n):
            st = analyze(p)
            if len(p) > 2:
                assert len(st.towers) >= 1, p
            inner = p[1:-1]
            by_end = {t.end: t for t in st.towers}
            for t in st.towers:
                pred_is_u = t.start == 0 or inner[t.start - 1] == "U"
                prev = by_end.get(t.start - 1)
                if t.colored:
                    assert pred_is_u or (prev is not None and not prev.colored), (p, t)
                else:
                    assert not pred_is_u, (p, t)
                    assert prev is None or prev.colored, (p, t)
        for m in range(1, n + 1):
            got = labeled_gen(n, "colored-towers", m)(1)
            assert got == comb(n - m + 1, m) * catalan(n - m), (n, m)
    assert time.perf_counter() - t0 < 120


def test_criterion_04_bijections_verified_to_8(all_runs):
    d = row(all_runs, "lemma1")
    assert d["params"] == {"m": [1, 8], "n": [1, 8]}
    d = row(all_runs, "lemma2")
    assert d["params"] == {"m": [1, 8], "n": [1, 8], "r": [1, 8]}


def test_criterion_05_weighted_identity_and_ledger(all_runs):
    assert row(all_runs, "lassalle")["params"] == {"n": [1, 60]}
    assert row(all_runs, "tower-ie")["params"] == {"n": [1, 9]}
    assert row(all_runs, "tower-closed")["params"] == {"m": [1, 9], "n": [1, 9]}
    # the cleared transform covers the same recurrence past the brute range
    assert row(all_runs, "lassalle-transform")["params"] == {"n": [1, 20]}


def test_criterion_06_tuple_generalization(all_runs):
    d = row(all_runs, "ballot-lassalle")
    assert d["params"] == {"n": [1, 8], "r": [0, 3]}
    for n in range(1, 9):
        assert ballot_weighted_gen(n, 0) == narayana_poly(n).shift(1), n


def test_criterion_07_alternating_expansion(all_runs):
    d = row(all_runs, "andrews")
    assert d["params"] == {"n": [1, 60]}
    assert q_catalan(3) == Poly(1, 0, 1, 1, 1, 0, 1)
    assert row(all_runs, "t-forms")["params"] == {"n": [1, 30], "r": [1, 30]}


def test_criterion_08_term_polynomiality_suite(all_runs):
    assert row(all_runs, "theorem1-even")["params"] == {"n": [1, 60], "r": [1, 60]}
    assert row(all_runs, "theorem1-odd")["params"] == {"n": [1, 60], "r": [1, 60]}
    assert row(all_runs, "theorem1-negq")["params"] == {"r": [1, 30]}
    assert row(all_runs, "cyclo-div")["params"] == {"n": [2, 40], "r": [1, 40]}


def test_criterion_09_binomial_congruence(all_runs):
    d = row(all_runs, "qlucas")
    assert d["params"] == {"d": [2, 12], "k": [0, 40], "m": [0, 40]}
    assert d["cells_checked"] == 41 * 42 // 2 * 11


def test_criterion_10_sieving_and_involution(all_runs):
    assert row(all_runs, "invT")["params"] == {"n": [2, 40]}
    assert row(all_runs, "partheo")["params"] == {"n": [1, 12], "r": [0, 12]}
    assert row(all_runs, "iepar")["params"] == {"n": [2, 10], "r": [0, 10]}
    for n in range(1, 10):
        for j in range(1, 5):
            for r in level_range(n, j):
                for pair in iter_pairs(n, j, r):
                    out = involution_step(pair)
                    assert out.weight == pair.weight, (pair, out)
                    assert out != pair, pair
                    assert involution_step(out) == pair, (pair, out)


def test_criterion_11_ballot_suite(all_runs):
    assert row(all_runs, "qballot-forms")["params"] == {"j": [1, 6], "n": [1, 40]}
    assert row(all_runs, "qballot-koshy")["params"] == {"j": [1, 6], "n": [1, 40]}
    assert row(all_runs, "tj-poly")["params"] == {"j": [1, 6], "n": [1, 40], "r": [1, 40]}
    assert row(all_runs, "tj-negq")["params"] == {"j": [1, 40], "r": [1, 40]}
    assert row(all_runs, "maj-ballot")["params"] == {"j": [1, 4], "n": [1, 8]}
    assert row(all_runs, "succ-ranks")["params"] == {"j": [1, 4], "n": [1, 8]}


def odd_cells(m_max, n_max):
    grid = sum(max(0, m_max - n + 1) for n in range(1, n_max + 1, 2))
    extra = sum((n - 1) // 2 for n in range(1, min(n_max, 60) + 1, 2))
    return grid + extra


def even_cells(m_max, n_max, j_max):
    per = len(range(2, j_max + 1, 2))
    return sum(max(0, m_max - n + 1) * per for n in range(2, n_max + 1, 2))


def test_criterion_12_conjecture_sweep(all_runs, monkeypatch, tmp_path):
    odd = all_runs["sweeps"]["odd-n"]
    even = all_runs["sweeps"]["even-n"]
    assert odd["grid"] == {"m_max": 150, "n_max": 150, "j_max": 10}
    assert even["grid"] == {"m_max": 150, "n_max": 150, "j_max": 10}
    assert odd["status"] == "pass" and odd["counterexamples"] == []
    assert even["status"] == "pass" and even["counterexamples"] == []
    # grid cells plus the nonnegativity consequence cells for odd n <= 60
    assert odd["verified_cells"] == odd_cells(150, 150) == 6135
    assert even["verified_cells"] == even_cells(150, 150, 10) == 28125

    # a found counterexample must be reported cleanly with exit 1: the
    # verdict fails the cell, and the scan of its polynomial gives the record
    real, real_verdict = cj.unimodal_break_index, cj._rises_to_centre
    target = cj.conjecture_poly("odd-n", 5, 3)

    def planted(p):
        if p == target:
            return 4
        return real(p)

    def planted_verdict(p, j, d):
        # the verdict is handed the lower half of P, or all of it
        hit = d == target.degree and target.coeffs[: len(p)] == tuple(p)
        return not hit and real_verdict(p, j, d)

    monkeypatch.setattr(cj, "unimodal_break_index", planted)
    monkeypatch.setattr(cj, "_rises_to_centre", planted_verdict)
    out = tmp_path / "planted.json"
    code = run(["sweep", "--m-max", "6", "--n-max", "6", "--format", "json",
                "--output", str(out)])
    assert code == 1
    d = json.loads(out.read_text())
    assert d["status"] == "fail"
    assert d["counterexamples"][0]["params"] == {"m": 5, "n": 3}
    assert d["counterexamples"][0]["break_index"] == 4


def _strip_elapsed(obj):
    if isinstance(obj, dict):
        return {k: _strip_elapsed(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [_strip_elapsed(x) for x in obj]
    return obj


def test_criterion_13_full_run_budget_and_stability(all_runs):
    assert all_runs["code1"] == 0
    assert all_runs["code2"] == 0
    # ten minutes of compute on eight cores, scaled to the cores we have
    budget = 600.0 * 8 / max(1, os.cpu_count() or 1)
    assert all_runs["wall"] < budget, all_runs["wall"]
    a = json.dumps(_strip_elapsed(all_runs["p1"]), sort_keys=True)
    b = json.dumps(_strip_elapsed(all_runs["p2"]), sort_keys=True)
    assert a == b


def test_all_payload_matches_golden(all_runs):
    # same results means the same payload, key order included, apart from
    # elapsed_ms; the golden file is that payload with every elapsed_ms key
    # removed, rendered as the CLI renders JSON
    golden = Path(__file__).resolve().parent / "golden" / "all.json"
    got = json.dumps(_strip_elapsed(all_runs["p1"]), indent=1) + "\n"
    assert got == golden.read_text()
