import json
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qkoshy import dyckpaths as dp
from qkoshy import partitions as pt
from qkoshy import qfuncs, registry
from qkoshy.cli import run
from qkoshy.errors import DomainError, QKoshyError, ScaleLimit, UnknownIdentity
from qkoshy.poly import Poly

from conftest import clear_memos
from oracles import poly_pow

ALL_IDS = [
    "koshy",
    "upeak-label",
    "upeak-gf",
    "lassalle",
    "lassalle-transform",
    "tower-ie",
    "tower-closed",
    "lemma1",
    "lemma2",
    "ballot-lassalle",
    "andrews",
    "t-forms",
    "theorem1-even",
    "theorem1-odd",
    "theorem1-negq",
    "cyclo-div",
    "invT",
    "partheo",
    "iepar",
    "qballot-forms",
    "qballot-koshy",
    "tj-poly",
    "tj-negq",
    "qlucas",
    "maj-catalan",
    "maj-ballot",
    "succ-ranks",
    "brunetti-instance",
]


def test_registry_roster():
    assert registry.list_identities() == ALL_IDS


small_polys = st.lists(st.integers(-9, 9), max_size=8).map(Poly)


@given(st.lists(st.one_of(st.integers(-10**6, 10**6), small_polys), max_size=12))
def test_sum_in_one_minus_q_against_powers(coeffs):
    # Horner's rule against the sum of c_i (1 - q)^i built with powers
    want = Poly.zero()
    for i, c in enumerate(coeffs):
        want = want + poly_pow(Poly(1, -1), i) * c
    assert registry._in_one_minus_q(coeffs) == want


def test_report_shape_and_pass():
    rep = registry.verify("koshy", bounds={"n": (1, 30)})
    d = rep.to_dict()
    assert set(d) == {
        "identity",
        "params",
        "status",
        "counterexample",
        "cells_checked",
        "elapsed_ms",
    }
    assert d["identity"] == "koshy"
    assert d["status"] == "pass"
    assert d["counterexample"] is None
    assert d["cells_checked"] == 30
    assert d["params"] == {"n": [1, 30]}
    json.dumps(d)  # must be serializable as-is


def test_check_keep_defaults_to_none():
    assert registry.Check("koshy", None, {}).keep is None
    assert registry.CHECKS["koshy"].keep is None


SMALL_BOUNDS = {
    "koshy": {"n": (1, 40)},
    "upeak-label": {"n": (0, 6), "m": (0, 7)},
    "upeak-gf": {"n": (0, 7)},
    "lassalle": {"n": (1, 12)},
    "lassalle-transform": {"n": (1, 8)},
    "tower-ie": {"n": (1, 6)},
    "tower-closed": {"n": (1, 6), "m": (1, 6)},
    "lemma1": {"n": (1, 5), "m": (1, 5)},
    "lemma2": {"n": (1, 5), "m": (1, 5), "r": (1, 5)},
    "ballot-lassalle": {"n": (1, 5), "r": (0, 2)},
    "andrews": {"n": (1, 15)},
    "t-forms": {"n": (1, 10), "r": (1, 10)},
    "theorem1-even": {"n": (1, 16), "r": (1, 16)},
    "theorem1-odd": {"n": (1, 15), "r": (1, 15)},
    "theorem1-negq": {"r": (1, 8)},
    "cyclo-div": {"n": (2, 12), "r": (1, 12)},
    "invT": {"n": (2, 10)},
    "partheo": {"n": (1, 7), "r": (0, 7)},
    "iepar": {"n": (2, 7), "r": (0, 7)},
    "qballot-forms": {"n": (1, 10), "j": (1, 3)},
    "qballot-koshy": {"n": (1, 10), "j": (1, 3)},
    "tj-poly": {"n": (1, 10), "r": (1, 10), "j": (1, 3)},
    "tj-negq": {"r": (1, 10), "j": (1, 10)},
    "qlucas": {"m": (0, 12), "k": (0, 12), "d": (2, 5)},
    "maj-catalan": {"n": (0, 7)},
    "maj-ballot": {"n": (1, 5), "j": (1, 3)},
    "succ-ranks": {"n": (1, 5), "j": (1, 3)},
    "brunetti-instance": {"n": (2, 15), "r": (1, 15)},
}


@pytest.mark.parametrize("ident", ALL_IDS)
def test_rows_pass_on_reduced_grids(ident):
    rep = registry.verify(ident, bounds=SMALL_BOUNDS[ident])
    assert rep.status == "pass", rep.to_dict()
    assert rep.cells_checked > 0


@pytest.mark.parametrize("ident", list(registry.CHECKS))
def test_bounds_below_floor_are_clipped(ident):
    # a box one below a floor, a default lo, checks exactly the cells of
    # the box at it
    params = registry.CHECKS[ident].params
    box = {k: (lo, lo + 3) for k, (lo, _, _) in params.items()}
    at = registry.verify(ident, bounds=box)
    assert at.status == "pass" and at.cells_checked > 0, at.to_dict()
    for k, (lo, hi) in box.items():
        below = registry.verify(ident, bounds=dict(box, **{k: (lo - 1, hi)}))
        assert below.status == "pass", below.to_dict()
        assert below.cells_checked == at.cells_checked, k
        assert below.params[k] == [lo - 1, hi]


def test_unknown_identity():
    with pytest.raises(UnknownIdentity):
        registry.verify("no-such-id")


def test_bad_parameter_name():
    with pytest.raises(DomainError):
        registry.verify("koshy", bounds={"j": (1, 2)})


def test_jobs_must_be_positive():
    with pytest.raises(DomainError):
        registry.verify("koshy", bounds={"n": (1, 3)}, jobs=0)


def test_scale_cap_and_force():
    bounds = {"m": (0, 5), "k": (0, 5), "d": (2, 45)}
    with pytest.raises(ScaleLimit):
        registry.verify("qlucas", bounds=bounds)
    rep = registry.verify("qlucas", bounds=bounds, force=True)
    assert rep.status == "pass" and rep.cells_checked == 924


def test_skipped_on_empty_cell_set():
    rep = registry.verify("brunetti-instance", bounds={"n": (2, 2), "r": (5, 5)})
    assert rep.status == "skipped"
    assert rep.cells_checked == 0
    assert rep.counterexample is None


def test_forced_failure_is_reported(monkeypatch):
    orig = registry.CHECKS["koshy"]

    def bad(n):
        if n == 7:
            return {"left": "1", "right": "0", "diff": "1"}
        return None

    monkeypatch.setitem(registry.CHECKS, "koshy", orig._replace(checker=bad))
    rep = registry.verify("koshy", bounds={"n": (1, 20)})
    assert rep.status == "fail"
    assert rep.counterexample == {
        "cell": {"n": 7},
        "left": "1",
        "right": "0",
        "diff": "1",
    }
    # the run stops at the first counterexample in sorted cell order
    assert rep.cells_checked == 7
    # the payload is a copy: changing it leaves the report as it was
    d = rep.to_dict()
    d["params"]["n"][1] = 99
    d["counterexample"]["cell"]["n"] = 99
    d["counterexample"]["left"] = "2"
    assert rep.params == {"n": [1, 20]}
    assert rep.counterexample == {"cell": {"n": 7}, "left": "1", "right": "0", "diff": "1"}
    assert rep.to_dict() != d


@pytest.mark.parametrize("jobs", [1, 2])
def test_checker_crash_is_an_error_not_a_failure(monkeypatch, capsys, jobs):
    orig = registry.CHECKS["koshy"]

    def crash(n):
        if n == 3:
            raise ValueError("synthetic crash")
        return None

    monkeypatch.setitem(registry.CHECKS, "koshy", orig._replace(checker=crash))
    with pytest.raises(QKoshyError, match="koshy.*n=3.*synthetic crash") as info:
        registry.verify("koshy", bounds={"n": (1, 4)}, jobs=jobs)
    if jobs == 1:
        assert isinstance(info.value.__cause__, ValueError)
    capsys.readouterr()
    assert run(["verify", "--id", "koshy", "--n", "1..4", "--jobs", str(jobs)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "koshy" in err and "n=3" in err


@pytest.mark.parametrize("identity,bounds,cell,left,right,diff", [
    ("theorem1-even", {"n": (2, 4), "r": (1, 1)}, {"n": 4, "r": 1},
     "1 + 2*q - 3*q^2 + q^3", "nonnegative coefficients", "coefficient -3 at q^2"),
    ("theorem1-odd", {"n": (1, 3), "r": (1, 1)}, {"n": 3, "r": 1},
     "1 + 3*q - q^2 - 2*q^3 + q^4", "nonnegative coefficients", "coefficient -1 at q^2"),
    ("tj-negq", {"r": (1, 1), "j": (1, 1)}, {"r": 1, "j": 1},
     "1 - 2*q - 3*q^2 - q^3", "positive polynomial", "coefficient -2 at q^1"),
    # a planted zero meets the vanishing guards
    ("theorem1-even", {"n": (2, 4), "r": (1, 1)}, {"n": 4, "r": 1},
     "0", "nonzero", "term vanished on an admissible cell"),
    ("theorem1-odd", {"n": (1, 3), "r": (1, 1)}, {"n": 3, "r": 1},
     "0", "nonzero", "term vanished on an admissible cell"),
    ("tj-negq", {"r": (1, 1), "j": (1, 1)}, {"r": 1, "j": 1},
     "0", "positive polynomial", "vanished"),
    ("cyclo-div", {"n": (2, 4), "r": (1, 2)}, {"n": 4, "r": 1},
     "0", "nonzero", "binomial vanished on an admissible cell"),
])
def test_negative_coefficient_is_reported(monkeypatch, capsys, identity, bounds, cell, left,
                                          right, diff):
    value = Poly.zero() if left == "0" else Poly(1, 2, -3, 1)
    if identity == "cyclo-div":
        # the cell's binomial [2n - 2r choose n - 1]_q
        name, at = "q_binomial", (2 * cell["n"] - 2 * cell["r"], cell["n"] - 1)
    else:
        name, at = "t_term_poly", (1, cell.get("n", 1))
    real = getattr(registry, name)

    def planted(*args):
        return value if args[:2] == at else real(*args)

    monkeypatch.setattr(registry, name, planted)
    args = [x for k, (lo, hi) in bounds.items() for x in ("--" + k, "%d..%d" % (lo, hi))]
    assert run(["verify", "--id", identity] + args + ["--format", "json", "--jobs", "1"]) == 1
    d = json.loads(capsys.readouterr().out)
    assert d["status"] == "fail"
    assert d["counterexample"] == {"cell": cell, "left": left, "right": right, "diff": diff}


def _plus(extra):
    """A planted input: the real function's value plus extra."""
    return lambda real: lambda *args, **kw: real(*args, **kw) + extra


def _const(value):
    """A planted input: value, whatever the arguments."""
    return lambda real: lambda *args, **kw: value


_Q9 = Poly.monomial(9)


@pytest.mark.parametrize("identity,bounds,plants,right,diff", [
    pytest.param("lemma1", {"n": (1, 1), "m": (1, 1)}, [(registry, "_koshy_term", _plus(1))],
                 "2", "cardinality mismatch (target 1)", id="lemma1-cardinality"),
    pytest.param("t-forms", {"n": (1, 1), "r": (1, 1)}, [(registry, "t_term_poly", _plus(_Q9))],
                 "1", "q^9", id="t-forms-tr21"),
    pytest.param("cyclo-div", {"n": (2, 2), "r": (1, 1)},
                 [(registry, "cyclotomic_divides", _const(True)), (registry, "q_binomial", _plus(1))],
                 "divisible by [2]_q", "inexact division", id="cyclo-div-q-int"),
    pytest.param("invT", {"n": (2, 2)}, [(registry, "q_binomial_sq", _plus(_Q9))],
                 "1 + q^9", "-q^9", id="invT-sides"),
    pytest.param("invT", {"n": (2, 2)}, [(pt, "level_range", _const(range(1)))],
                 "0", "alternating partition sum did not vanish", id="invT-partition-sum"),
    pytest.param("partheo", {"n": (2, 2), "r": (1, 1)}, [(pt, "mu_side", _plus(_Q9))],
                 "q^2", "q^9", id="partheo-mu"),
    pytest.param("partheo", {"n": (2, 2), "r": (1, 1)}, [(pt, "nu_side", _plus(_Q9))],
                 "q", "q^9", id="partheo-nu"),
    pytest.param("qballot-forms", {"n": (1, 1), "j": (1, 1)},
                 [(registry, "q_ballot", lambda real: lambda j, n, method="quotient":
                   real(j, n, method=method) + (_Q9 if method == "difference" else 0))],
                 "1 + q^9", "-q^9", id="qballot-forms-two-forms"),
    pytest.param("qballot-forms", {"n": (1, 1), "j": (1, 1)}, [(registry, "q_catalan", _plus(_Q9))],
                 "1 + q^9", "-q^9", id="qballot-forms-catalan"),
    pytest.param("brunetti-instance", {"n": (2, 2), "r": (1, 1)},
                 [(registry, "q_binomial", _const(Poly(1, 0, 1)))],
                 "unimodal", "break at q^2", id="brunetti-unimodal"),
    pytest.param("brunetti-instance", {"n": (2, 2), "r": (1, 1)},
                 [(registry, "q_binomial", _const(Poly(2, 1)))],
                 "reciprocal", "coefficient list is not palindromic", id="brunetti-palindrome"),
])
def test_each_failure_verdict_is_reached(monkeypatch, identity, bounds, plants, right, diff):
    # one planted input per failure branch of a checker, on a one-cell box;
    # each branch is the only one that sees its fault
    for module, name, plant in plants:
        monkeypatch.setattr(module, name, plant(getattr(module, name)))
    rep = registry.verify(identity, bounds)
    assert rep.status == "fail", rep.to_dict()
    assert (rep.counterexample["right"], rep.counterexample["diff"]) == (right, diff)


def test_ie_terms_multiply_by_no_zero(monkeypatch, cold_memos):
    # C(n-k+1+r, m) is 0 for k past n+1+r-m, so _ie_term builds no term there
    zeros = Counter()
    real = Poly.__mul__

    def counted(self, other):
        zeros[isinstance(other, int) and other == 0] += 1
        return real(self, other)

    monkeypatch.setattr(Poly, "__mul__", counted)
    monkeypatch.setattr(Poly, "__rmul__", counted)
    for ident, n in (("lassalle-transform", 26), ("tower-closed", 7), ("ballot-lassalle", 7)):
        assert registry.verify(ident, {"n": (1, n)}).status == "pass"
    assert zeros[False] > 0 and zeros[True] == 0


def _merged_images(forward):
    """forward, except that every source of a cell maps to its first
    source's image."""
    first = {}

    def planted(lp):
        return first.setdefault((len(lp.path), len(lp.s_labels), len(lp.w_labels)),
                                forward(lp))

    return planted


@pytest.mark.parametrize("identity,name,plant,cell,diff", [
    ("lemma1", "lemma1_forward", _merged_images, {"n": 2, "m": 1},
     "two sources map to ('UUDD', (1,))"),
    ("lemma1", "lemma1_forward",
     lambda f: lambda lp: dp.LabeledPath(f(lp).path, "usteps", ()), {"n": 1, "m": 1},
     "image outside the labeled U-step family"),
    ("lemma1", "lemma1_inverse", lambda f: lambda lp: dp.LabeledPath("UD", "towers", ()),
     {"n": 1, "m": 1}, "round trip broke"),
    ("lemma2", "lemma2_forward", _merged_images, {"n": 3, "m": 1, "r": 1},
     "two sources map to the same image"),
    ("lemma2", "lemma2_forward",
     lambda f: lambda lp: dp.LabeledPath(f(lp).path, "towers", f(lp).s_labels),
     {"n": 2, "m": 1, "r": 1}, "image outside the labeled tower family"),
    ("lemma2", "lemma2_inverse", lambda f: lambda lp: dp.LabeledPath("UD", "towers", ()),
     {"n": 2, "m": 1, "r": 1}, "round trip broke"),
], ids=["lemma1-merged", "lemma1-outside", "lemma1-round-trip",
        "lemma2-merged", "lemma2-outside", "lemma2-round-trip"])
def test_broken_bijection_is_a_counterexample(monkeypatch, capsys, identity, name, plant,
                                              cell, diff):
    monkeypatch.setattr(dp, name, plant(getattr(dp, name)))
    assert run(["verify", "--id", identity, "--n", "1..4", "--format", "json",
                "--jobs", "1"]) == 1
    d = json.loads(capsys.readouterr().out)
    assert d["status"] == "fail"
    assert d["counterexample"]["cell"] == cell
    assert d["counterexample"]["diff"] == diff


def _miscolored_table(colored):
    """dp.colored_towers, except that in the first path with a tower of
    the given color that tower takes the other color."""
    real = dp.colored_towers

    def planted(n):
        rows = list(real(n))
        for i, (p, _) in enumerate(rows):
            towers = dp.decompose_towers(p[1:-1])
            wrong = next((t for t in towers if t.colored == colored), None)
            if wrong is not None:
                towers = [t._replace(colored=not colored) if t is wrong else t
                          for t in towers]
                rows[i] = (p, tuple(t for t in towers if t.colored))
                break
        return tuple(rows)

    return planted


@pytest.mark.parametrize("colored,cell,diff", [
    # the first path at each n loses its one tower, in the sources and in
    # the target alike, so only the target's size gives it away
    (True, {"n": 2, "m": 1, "r": 1}, "target family size"),
    (False, {"n": 3, "m": 1, "r": 1}, "cardinality mismatch"),
], ids=["drops-colored", "adds-uncolored"])
def test_miscolored_tower_table_fails_lemma2(monkeypatch, capsys, colored, cell, diff):
    monkeypatch.setattr(dp, "colored_towers", _miscolored_table(colored))
    assert run(["verify", "--id", "lemma2", "--n", "1..5", "--format", "json",
                "--jobs", "1"]) == 1
    d = json.loads(capsys.readouterr().out)
    assert d["status"] == "fail"
    assert d["counterexample"]["cell"] == cell
    assert d["counterexample"]["diff"] == diff


def _recolored_scan(inner_word, color):
    """dp._tower_runs, except that every tower of the one inner word takes
    the given color."""
    real = dp._tower_runs

    def planted(inner):
        for s, h, c in real(inner):
            yield s, h, color if inner == inner_word else c

    return planted


# One path's colored count goes off by one.  U UUDDUD D gains a colored
# tower (1 -> 2 of its 2): the unit and peak-weighted label sums see it.
# U UUUDDD D loses its only one (1 -> 0): that breaks the invariant.
# tower-ie sees only the second, since each path adds
# sum_m (-1)^(m+1) C(c, m) = 1 to it for every c from 1 to n.
@pytest.mark.parametrize("identity,inner,color,cell,left", [
    ("upeak-label", "UUDDUD", True, {"n": 3, "m": 1}, "colored-towers: 7"),
    ("tower-closed", "UUDDUD", True, {"n": 3, "m": 1}, "q + 4*q^2 + 2*q^3"),
    ("upeak-label", "UUUDDD", False, {"n": 3, "m": 0}, "exception"),
    ("tower-ie", "UUUDDD", False, {"n": 3}, "exception"),
], ids=["upeak-label-gains", "tower-closed-gains", "upeak-label-loses", "tower-ie-loses"])
def test_miscounted_colored_tower_fails(monkeypatch, capsys, cold_memos, identity, inner,
                                        color, cell, left):
    monkeypatch.setattr(dp, "_tower_runs", _recolored_scan(inner, color))
    assert run(["verify", "--id", identity, "--n", "1..4", "--format", "json",
                "--jobs", "1"]) == 1
    d = json.loads(capsys.readouterr().out)
    assert d["status"] == "fail"
    assert d["counterexample"]["cell"] == cell
    assert d["counterexample"]["left"] == left
    if left == "exception":
        assert d["counterexample"]["diff"].startswith("InvariantViolation(")


def test_checker_exception_becomes_failure(monkeypatch):
    orig = registry.CHECKS["koshy"]

    def boom(n):
        if n == 3:
            raise DomainError("synthetic")
        return None

    monkeypatch.setitem(registry.CHECKS, "koshy", orig._replace(checker=boom))
    rep = registry.verify("koshy", bounds={"n": (1, 5)})
    assert rep.status == "fail"
    assert rep.counterexample["cell"] == {"n": 3}
    assert rep.counterexample["left"] == "exception"
    assert "synthetic" in rep.counterexample["diff"]


def test_jobs_determinism(monkeypatch):
    def payloads(ident, bounds):
        out = []
        for jobs in (1, 3):
            d = registry.verify(ident, bounds=bounds, jobs=jobs).to_dict()
            d.pop("elapsed_ms")
            out.append(d)
        return out

    a, b = payloads("lemma1", {"n": (1, 5), "m": (1, 5)})
    assert a == b

    # a planted failure: koshy's 60 one-cell columns go to the pool one
    # task each, and the report names the first failing cell in sorted
    # order either way
    orig = registry.CHECKS["koshy"]

    def bad(n):
        if n in (7, 40):
            return {"left": "1", "right": "0", "diff": "1"}
        return None

    monkeypatch.setitem(registry.CHECKS, "koshy", orig._replace(checker=bad))
    a, b = payloads("koshy", {"n": (1, 60)})
    assert a == b
    assert a["counterexample"]["cell"] == {"n": 7}
    assert a["cells_checked"] == 7


def _box_cells(ident, bounds):
    chk = registry.CHECKS[ident]
    return chk.cells({**{k: (lo, hi) for k, (lo, hi, _) in chk.params.items()}, **bounds})


def _recorded_tasks(monkeypatch, ident, bounds, jobs=2):
    """The one ordered_map call of verify(ident, bounds, jobs), run in
    process, and the report."""
    calls = []
    real = registry.ordered_map

    def recorder(fn, tasks, jobs=1):
        calls.append((fn, tasks, jobs))
        return real(fn, tasks, 1)

    monkeypatch.setattr(registry, "ordered_map", recorder)
    rep = registry.verify(ident, bounds=bounds, jobs=jobs)
    [(fn, tasks, got_jobs)] = calls
    assert fn is registry._check_column and got_jobs == jobs
    return tasks, rep


@pytest.mark.parametrize("ident,bounds", [
    ("koshy", {"n": (1, 9)}),
    ("t-forms", {"n": (1, 9)}),
    ("tj-poly", {"n": (1, 9), "j": (1, 3)}),
])
def test_one_task_per_first_parameter(monkeypatch, ident, bounds):
    tasks, rep = _recorded_tasks(monkeypatch, ident, bounds)
    cells = _box_cells(ident, bounds)
    assert cells == sorted(cells)
    assert [t[0] for t in tasks] == [ident] * len(tasks)
    assert [col[0][0] for _, col in tasks] == sorted({c[0] for c in cells})
    assert all(len({c[0] for c in col}) == 1 for _, col in tasks)
    assert [c for _, col in tasks for c in col] == cells
    assert rep.status == "pass" and rep.cells_checked == len(cells)


FAIL = {"left": "1", "right": "0", "diff": "1"}


def test_failure_mid_column_is_the_same_at_any_jobs(monkeypatch):
    # (7, 3) is the third of column n = 7's four cells, after 12 cells of
    # earlier columns; the pool may run later columns, whose failure at
    # (9, 1) must not be the one reported
    orig = registry.CHECKS["t-forms"]
    monkeypatch.setitem(registry.CHECKS, "t-forms", orig._replace(
        checker=lambda n, r: FAIL if (n, r) in ((7, 3), (9, 1)) else None))
    reports = []
    for jobs in (1, 2):
        d = registry.verify("t-forms", bounds={"n": (1, 12)}, jobs=jobs).to_dict()
        d.pop("elapsed_ms")
        reports.append(d)
    assert reports[0] == reports[1]
    assert reports[0]["counterexample"] == {"cell": {"n": 7, "r": 3}, **FAIL}
    assert reports[0]["cells_checked"] == 15


def test_column_stops_at_its_first_failure(monkeypatch):
    seen = []

    def bad(n, r):
        seen.append((n, r))
        if r == 3:
            raise DomainError("planted")
        return FAIL if r == 2 else None

    orig = registry.CHECKS["t-forms"]
    monkeypatch.setitem(registry.CHECKS, "t-forms", orig._replace(checker=bad))
    column = [(7, r) for r in range(1, 5)]
    assert registry._check_column("t-forms", column) == (2, ((7, 2), FAIL))
    assert seen == [(7, 1), (7, 2)]
    # a qkoshy error is a failure of its cell and ends the column too
    count, (cell, res) = registry._check_column("t-forms", column[2:])
    assert (count, cell, res["left"]) == (1, (7, 3), "exception")
    assert seen[2:] == [(7, 3)]
    assert registry._check_column("t-forms", column[3:]) == (1, None)


def test_a_tj_poly_column_steps_every_term_after_its_first(monkeypatch):
    # column n = 12 holds 45 cells (12, r, j), j = 1..6 running fastest;
    # run on its own with nothing held, it builds one term per j and steps
    # every other from its r - 1, so a column split anywhere builds more
    tasks, _ = _recorded_tasks(monkeypatch, "tj-poly", {"n": (11, 13)})
    [(ident, cells)] = [t for t in tasks if t[1][0][0] == 12]
    assert cells == [c for c in _box_cells("tj-poly", {"n": (11, 13)}) if c[0] == 12]
    assert len(cells) == 45
    counts = Counter()
    for name in ("_direct_term", "t_step"):
        def counted(*args, _real=getattr(qfuncs, name), _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(qfuncs, name, counted)
    clear_memos()
    assert registry._check_column(ident, cells) == (45, None)
    assert counts == {"_direct_term": 6, "t_step": 39}
