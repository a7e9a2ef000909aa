import dataclasses
import json
import os

import pytest

import qkoshy.conjecture as cj
from qkoshy.errors import DomainError
from qkoshy.poly import Poly, shape
from qkoshy.qfuncs import q_binomial, q_int


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
    data = json.load(open(fp))
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
    assert json.load(open(fp))["verified"]["m_max"] == 13
    # shrinking rerun keeps the larger recorded box
    small = cj.sweep("odd-n", 3, 3, frontier_path=fp)
    assert small.frontier["verified"] == {"m_max": 13, "n_max": 13, "j_max": 10}
    assert json.load(open(fp))["verified"]["n_max"] == 13


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
        assert open(fp).read() == text    # a rejected file is left as it was
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
    assert json.load(open(fp))["verified"]["m_max"] == 3


def _payloads(case, *grid):
    out = []
    for jobs in (1, 3):
        d = cj.sweep(case, *grid, jobs=jobs).to_dict()
        d.pop("elapsed_ms")
        out.append(d)
    return out


def test_jobs_determinism(monkeypatch):
    a, b = _payloads("even-n", 14, 14, 4)
    assert a == b
    # the odd-n columns carry their consequence cells through the pool
    a, b = _payloads("odd-n", 14, 14)
    assert a == b
    assert a["verified_cells"] == odd_cells(14, 14)

    # planted failures: one grid cell and two consequence cells, which
    # the payload lists grid cells first, in column order
    real_break, real_shape = cj.unimodal_break_index, cj.shape
    planted = {cj.t_term_poly(1, 3, 1), cj.t_term_poly(2, 9, 1)}

    def broken_break(p):
        return 4 if p == cj.conjecture_poly("odd-n", 9, 5) else real_break(p)

    def broken_shape(p):
        sh = real_shape(p)
        if p in planted:
            return dataclasses.replace(sh, is_nonnegative=False, nonneg_prefix_degree=0)
        return sh

    monkeypatch.setattr(cj, "unimodal_break_index", broken_break)
    monkeypatch.setattr(cj, "shape", broken_shape)
    a, b = _payloads("odd-n", 14, 14)
    assert a == b
    assert a["status"] == "fail"
    assert [c["params"] for c in a["counterexamples"]] == [
        {"m": 9, "n": 5},
        {"n": 3, "r": 1},
        {"n": 9, "r": 2},
    ]
    assert a["counterexamples"][1]["break_index"] == 1


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
    real = cj.unimodal_break_index

    def planted(p):
        if p == cj.conjecture_poly("odd-n", 5, 3):
            return 4
        return real(p)

    monkeypatch.setattr(cj, "unimodal_break_index", planted)
    fp = str(tmp_path / "frontier.json")
    cj.sweep("odd-n", 6, 6, frontier_path=fp)
    data = json.load(open(fp))
    assert len(data["counterexamples"]) == 1
    # a later extension keeps the recorded counterexample without re-adding
    monkeypatch.setattr(cj, "unimodal_break_index", real)
    rep = cj.sweep("odd-n", 8, 8, frontier_path=fp)
    data = json.load(open(fp))
    assert len(data["counterexamples"]) == 1
    assert rep.frontier["counterexamples"][0]["params"] == {"m": 5, "n": 3}


def test_consequence_cells_are_nonnegative():
    # direct spot check of the quotient family the odd sweep re-verifies
    from qkoshy.qfuncs import t_term_poly

    for n in range(1, 26, 2):
        for r in range(1, (n - 1) // 2 + 1):
            assert shape(t_term_poly(r, n, 1)).is_nonnegative, (n, r)
