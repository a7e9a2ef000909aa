"""The same reports from any memo state.

Each registry row, on a small box, and each sweep, on a small grid, is
run once from cleared memos.  Then all of them run back to back without
clearing, in a seeded shuffled order and again in reverse, so each starts
from whatever the runs before it left in the lru_caches, the built
q-binomials and the held T-terms.  Row order must not change a report
apart from its elapsed_ms: a metamorphic relation (Chen, Cheung and Yiu,
HKUST-CS98-01, 1998).
"""

import random

from qkoshy import conjecture as cj
from qkoshy import qfuncs, registry

from conftest import MEMOIZED, clear_memos

SWEEP_GRID = (24, 14, 6)


def _small_box(chk):
    """The first parameter up to its default lo + 7, the others up to
    lo + 6, each within its default hi."""
    return {k: (lo, min(hi, lo + (7 if i == 0 else 6)))
            for i, (k, (_, lo, hi, _)) in enumerate(chk.params.items())}


TASKS = {
    **{ident: (lambda ident=ident, chk=chk: registry.verify(ident, _small_box(chk), jobs=1))
       for ident, chk in registry.CHECKS.items()},
    **{"sweep " + case: (lambda case=case: cj.sweep(case, *SWEEP_GRID))
       for case in cj.CASES},
}


def _reports(keys, cold):
    out = {}
    for key in keys:
        if cold:
            clear_memos()
        d = TASKS[key]().to_dict()
        d.pop("elapsed_ms")
        out[key] = d
    return out


def _order_dependent():
    """The cold reports, and the tasks whose warm report, in either
    order, differs from the cold one."""
    cold = _reports(TASKS, cold=True)
    order = random.Random(2013).sample(list(TASKS), len(TASKS))
    bad = set()
    for keys in (order, order[::-1]):
        warm = _reports(keys, cold=False)
        bad.update(key for key in keys if warm[key] != cold[key])
    return cold, sorted(bad)


def test_every_report_is_the_same_from_any_memo_state(cold_memos):
    assert len(MEMOIZED) >= 15          # every lru_cache of the package
    cold, bad = _order_dependent()
    assert all(d["status"] in ("pass", "skipped") for d in cold.values())
    assert bad == []


def test_a_held_term_stepped_from_the_wrong_r_is_caught(monkeypatch, cold_memos):
    # steps from the held term whenever r > 1, whatever r it holds: every
    # cold run asks for r = 1, 2, ... of a key in turn and passes, so only
    # a term left by another row shows the fault
    def planted(r, n, j, quotient):
        key = (n, j, quotient)
        held = qfuncs._held.pop(key, None)
        if held is not None and r > 1:
            c = qfuncs.t_step(held[1], r - 1, n, j)
        else:
            c = qfuncs._direct_term(r, n, j, quotient)
        qfuncs._held[key] = (r, c)
        return c

    monkeypatch.setattr(qfuncs, "_held_term", planted)
    cold, bad = _order_dependent()
    assert all(d["status"] in ("pass", "skipped") for d in cold.values())
    assert bad
