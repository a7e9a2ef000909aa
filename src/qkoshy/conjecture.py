"""Counterexample sweeps for the positivity and unimodality conjectures.

Two one-parameter families of polynomials are conjectured unimodal:

  odd-n:   (1 + q^n) * qbinom(m, n-1)           for odd n,  m >= n >= 1
  even-n:  (1 + q^n) * [j]_q * qbinom(m, n-1)   for even n, even j >= 2

Both families are reciprocal by construction, so reciprocality is asserted
on every row of cells, on its column binomial, as a sanity check rather
than swept for.  A reciprocal polynomial is unimodal exactly when it does
not decrease up to its centre, which is how each cell is judged, from the
lower half of (1 + q^n) * qbinom(m, n-1); for even-n two such scans judge
every even j at once (see _sweep_column); a row that fails completes it
by symmetry.  _jays and _columns say which cells a grid has, and _covered
alone which of them a frontier's box holds.  A sweep never stops
at the first hit: it walks the whole requested grid and reports every
violating cell, because a refutation is the interesting outcome here.

The odd-n sweep also spot-checks the downstream consequence that motivates
it: the quotient polynomials from the factor family stay coefficientwise
nonnegative for odd n >= 2r + 1 (checked up to n = 60, in each column
that has grid cells).

Both sweeps and registry.verify fan out through ordered_map, the one
process pool of the package, one column per task.  The pool is closed and
joined before it is left, never terminated with work in flight, so an
early close waits for at most 2 * jobs columns.
"""

import errno
import json
import os
import time
from collections import deque, namedtuple
from contextlib import contextmanager
from itertools import chain, islice, repeat, starmap
from operator import add, ge

from .errors import DivisionInexact, DomainError, InvariantViolation
from .poly import Poly, first_negative, q_ratio, unimodal_break_index
from .qfuncs import keep_binomial, q_binomial, q_int, t_term_poly

CASES = ("odd-n", "even-n")

# at n = 150 the cell polynomials top out around degree 5700 with ~150-bit
# coefficients; each default sweep takes seconds on one core, since a
# cell is judged from half of (1 + q^n) * qbinom(m, n-1), and neither the
# whole of that nor any cell polynomial is built unless the cell fails
DEFAULT_M_MAX = 150
DEFAULT_N_MAX = 150
DEFAULT_J_MAX = 10

CONSEQUENCE_N_CAP = 60


def conjecture_poly(case: str, m: int, n: int, j: int = None) -> Poly:
    """The conjecturally unimodal polynomial at one grid cell.

    odd-n needs odd n and no j; even-n needs even n and an even j >= 2.
    Both need m >= n >= 1.  Anything else raises DomainError.
    """
    if case not in CASES:
        raise DomainError("unknown conjecture case %r" % (case,))
    if n < 1 or m < n:
        raise DomainError("conjecture cell needs m >= n >= 1")
    lead = Poly.one() + Poly.monomial(n)
    if case == "odd-n":
        if n % 2 == 0:
            raise DomainError("odd-n case needs odd n, got %d" % n)
        if j is not None:
            raise DomainError("odd-n case takes no j")
        return lead * q_binomial(m, n - 1)
    if n % 2 == 1:
        raise DomainError("even-n case needs even n, got %d" % n)
    if j is None or j < 2 or j % 2 == 1:
        raise DomainError("even-n case needs even j >= 2, got %r" % (j,))
    return lead * q_int(j) * q_binomial(m, n - 1)


class SweepReport(namedtuple("SweepReport",
                             "case_id grid verified_cells counterexamples frontier elapsed_ms",
                             defaults=(0,))):
    __slots__ = ()

    @property
    def status(self) -> str:
        if self.counterexamples:
            return "fail"
        return "skipped" if _box_cells(self.case_id, self.grid) == 0 else "pass"

    def to_dict(self) -> dict:
        return {
            "case": self.case_id,
            "grid": dict(self.grid),
            "status": self.status,
            "verified_cells": self.verified_cells,
            "counterexamples": list(self.counterexamples),
            "frontier": self.frontier,
            "elapsed_ms": self.elapsed_ms,
        }


def _jays(case, j_max):
    """The j of each cell of a row: None for odd-n, even 2..j_max for even-n."""
    return (None,) if case == "odd-n" else tuple(range(2, j_max + 1, 2))


def _columns(case, n_max):
    """The n of each column of a grid: odd n for odd-n, even n for even-n."""
    return range(1 if case == "odd-n" else 2, n_max + 1, 2)


def _covered(skip, m, n, j) -> bool:
    """Whether the verified box skip (None for none) holds cell (m, n, j),
    or, with j None, (m, n): the one coverage rule of a sweep."""
    if skip is None:
        return False
    if m > skip["m_max"] or n > skip["n_max"]:
        return False
    return j is None or j <= skip["j_max"]


def _cell_record(params: dict, p: Poly, index: int) -> dict:
    return {"params": params, "poly": str(p), "break_index": index}


def Pool(processes):
    """A multiprocessing pool of the given number of workers.  The module
    is imported on first use, so a serial run never loads it."""
    import multiprocessing
    return multiprocessing.Pool(processes)


def ordered_map(fn, tasks, jobs=1):
    """Yield fn(*task) for each task, in task order.

    With jobs <= 1 or at most one task this is a plain map in this
    process; otherwise each task goes to a pool of min(jobs, len(tasks))
    worker processes on its own, with at most twice that many tasks in
    flight.  However the generator ends (exhausted, a task's error, or
    closed early by a break in the caller, under contextlib.closing), the
    pool is closed and joined, not terminated: the tasks in flight run out
    and every worker exits on its own.  A worker killed while it writes a result would
    leave the result queue's lock held and the pool's shutdown stuck.
    """
    jobs = min(jobs, len(tasks))
    if jobs <= 1:
        yield from starmap(fn, tasks)
        return
    with Pool(jobs) as pool:
        pending = deque()
        try:
            for task in tasks:
                pending.append(pool.apply_async(fn, task))
                if len(pending) == 2 * jobs:
                    yield pending.popleft().get()
            while pending:
                yield pending.popleft().get()
        finally:
            pool.close()
            pool.join()


def _rises_to_centre(p, j, d):
    """Whether P * [j]_q is unimodal, for a palindrome P of degree D = d with
    P_0 != 0, given as its coefficients P_0 .. P_k in the list p, where
    k >= min(D, (D + j - 1) // 2).

    The product c is a palindrome of degree D + j - 1, so it is unimodal
    exactly when it does not decrease up to its centre.  Since
    (1 - q) * c = (1 - q^j) * P, c_i - c_{i-1} = P_i - P_{i-j}: the test is
    P_i >= P_{i-j} for 1 <= i <= (D + j - 1) // 2, with P_k = 0 outside
    0..D, which is one comparison of P with itself shifted by j.
    """
    h = (d + j - 1) // 2
    # P_1 .. P_h against P_{1-j} .. P_{h-j}, with no copy of p; past the
    # end of fall both sides read zero, so map may stop there
    rise = chain(islice(p, 1, h + 1), repeat(0, h + 1 - len(p)))
    fall = chain(repeat(0, j - 1), p)
    return all(map(ge, rise, fall))


def _rises_for_every_even_j(p, d):
    """Whether P * [j]_q is unimodal for every even j >= 2, for P, p and d
    as in _rises_to_centre with k >= (d + 1) // 2: one comparison at j = 2,
    and one at j = 1 when d is odd.

    P * [j]_q is unimodal exactly when P_i >= P_{i-j} for every i up to
    (d + j - 1) // 2.  For i <= (d + 1) // 2 the steps of 2 from i - j up
    to i give that.  For a larger i, P_i = P_{d-i} with i - j <= d - i <
    (d - 1) / 2, and d - i - (i - j) has the parity of d: steps of 2 lead
    from i - j to d - i when d is even, and when d is odd one step of 1
    is needed as well.  Conversely, a j that fails exists when one of the
    two comparisons fails: j = 2, or, for a first drop P_i < P_{i-1} with
    i <= (d - 1) / 2, j = d - 2i + 1 at index d - i.
    """
    return _rises_to_centre(p, 2, d) and (d % 2 == 0 or _rises_to_centre(p, 1, d))


def _half_cell(binom, n):
    """P_0 .. P_c of P = (1 + q^n) * B, for the coefficient list B of the
    column binomial, with c = ceil(deg P / 2): all of P that the verdict
    of a cell reads."""
    c = (len(binom) + n) // 2
    half = binom[: c + 1]
    half += [0] * (c + 1 - len(half))
    half[n:] = map(add, half[n:], binom)
    return half


def _sweep_column(case, n, m_max, j_max, skip):
    """All cells of one n-column: the grid cells, then for odd-n the
    consequence cells T_r(n), r <= (n - 1) / 2, when the column has grid
    cells and n <= CONSEQUENCE_N_CAP.  Grid cells that _covered, the one
    coverage rule, puts in the skip box are left out, and so are the
    consequence cells when it puts (n, n) there.  Returns (cells_checked,
    grid counterexamples, consequence counterexamples).

    Each m step advances the column binomial B = [m choose n-1]_q on its
    coefficient list by the ratio (1 - q^m) / (1 - q^(m-n+1)), one q_ratio
    call.  P = (1 + q^n) * B is a palindrome exactly when B is, since
    B_0 = 1, and P [j]_q is one when P is, so the reciprocity check on B
    (its lower half against its upper half reversed) stands for every
    cell of the row.  The row is judged from the lower half of P alone
    (_half_cell) by self-comparisons of it (_rises_to_centre): odd-n is
    j = 1, and for even-n two comparisons judge every even j at once
    (_rises_for_every_even_j).  Only a row that fails completes P from
    that half by symmetry and judges each j of it on its own, and only a
    failing cell builds its polynomial, with conjecture_poly
    and so apart from the stepped list; a scan of it gives the break
    index of its record, and a scan that finds no break means the
    stepping or the verdict is broken.

    The consequence cells take r = 1, 2, ... in turn, so t_term_poly
    steps each T_r(n) from T_{r-1}(n) (qfuncs.t_step) instead of building
    it.  T_1(n) is built from [2n-2 choose n-1]_q, which the column hands
    to q_binomial's table (keep_binomial) when it passes m = 2n-2.  A
    term is judged by its signs alone (first_negative).
    """
    jays = _jays(case, j_max)
    start = n
    if jays and all(_covered(skip, n, n, j) for j in jays):
        start = skip["m_max"] + 1
    consequence = (case == "odd-n" and n <= min(m_max, CONSEQUENCE_N_CAP)
                   and not _covered(skip, n, n, None))
    checked = 0
    bad = []
    binom = None
    for m in range(start, m_max + 1):
        if binom is None:
            binom = list(q_binomial(m, n - 1).coeffs)
        else:
            try:
                binom = q_ratio(binom, (m,), (m - n + 1,), "column")
            except DivisionInexact:
                raise InvariantViolation(
                    "column n=%d: 1 - q^%d does not divide at m=%d" % (n, m - n + 1, m)
                ) from None
        if consequence and m == 2 * n - 2:
            keep_binomial(m, n - 1, binom)
        todo = [j for j in jays if not _covered(skip, m, n, j)]
        if not todo:
            continue
        mid = len(binom) // 2
        if binom[:mid] != binom[: -mid - 1 : -1]:
            # construction guarantees this; a miss means broken arithmetic
            raise InvariantViolation(
                "cell m=%d n=%d j=%r is not reciprocal" % (m, n, todo[0])
            )
        checked += len(todo)
        d = len(binom) - 1 + n
        half = _half_cell(binom, n)
        if _rises_to_centre(half, 1, d) if case == "odd-n" else _rises_for_every_even_j(half, d):
            continue
        p = half + half[: d + 1 - len(half)][::-1]
        for j in todo:
            if _rises_to_centre(p, j or 1, d):
                continue
            cell = conjecture_poly(case, m, n, j)
            hit = unimodal_break_index(cell)
            if hit is None:
                raise InvariantViolation(
                    "cell m=%d n=%d j=%r: criterion and scan disagree" % (m, n, j)
                )
            params = {"m": m, "n": n}
            if j is not None:
                params["j"] = j
            bad.append(_cell_record(params, cell, hit))
    consequences = []
    if consequence:
        for r in range(1, (n - 1) // 2 + 1):
            t = t_term_poly(r, n, 1)
            checked += 1
            i = first_negative(t.coeffs)
            if i is not None:
                consequences.append(_cell_record({"n": n, "r": r}, t, i))
    return checked, bad, consequences


def _box_cells(case, box) -> int:
    per_n = len(_jays(case, box["j_max"]))
    return sum(max(0, box["m_max"] - n + 1) * per_n for n in _columns(case, box["n_max"]))


def _load_frontier(path, case):
    """The frontier file at path, or None if there is none; DomainError
    if it cannot be read or does not hold a frontier of this case."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:
        raise DomainError("cannot read frontier file %s: %s" % (path, exc)) from None
    if not isinstance(data, dict) or data.get("case") != case:
        raise DomainError(
            "frontier file %s tracks case %r, not %r"
            % (path, data.get("case") if isinstance(data, dict) else None, case)
        )
    box = data.get("verified", {})
    # a box is what a sweep wrote: three ints >= 1 (bool is no count)
    if not isinstance(box, dict) or not all(
        type(box.get(key)) is int and box[key] >= 1 for key in ("m_max", "n_max", "j_max")
    ):
        raise DomainError("frontier file %s has a malformed verified box" % path)
    data.setdefault("counterexamples", [])
    if not isinstance(data["counterexamples"], list) or not all(
        isinstance(rec, dict) for rec in data["counterexamples"]
    ):
        raise DomainError("frontier file %s has a malformed counterexample list" % path)
    return data


def probe_writable(path):
    """Raise the OSError that creating or rewriting a file at path would
    raise, as far as can be told without creating, truncating or changing
    anything."""
    parent = os.path.dirname(path) or "."
    if not path:
        code = errno.ENOENT
    elif os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


@contextmanager
def _frontier_tmp(path):
    """The temporary file a frontier is written through; an OSError inside
    becomes a DomainError naming the frontier file."""
    try:
        yield "%s.tmp.%d" % (path, os.getpid())
    except OSError as exc:
        raise DomainError("cannot write frontier file %s: %s" % (path, exc)) from None


def _write_frontier(path, obj):
    """Replace the file at path by obj in one step, synced to disk first."""
    with _frontier_tmp(path) as tmp:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=1, sort_keys=True)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)


def _merge_counterexamples(old, new):
    seen = set()
    out = []
    for rec in list(old) + list(new):
        key = json.dumps(rec.get("params", {}), sort_keys=True)
        if key in seen:
            continue
        seen.add(key)
        out.append(rec)
    return out


def sweep(
    case: str,
    m_max: int = DEFAULT_M_MAX,
    n_max: int = DEFAULT_N_MAX,
    j_max: int = DEFAULT_J_MAX,
    jobs: int = 1,
    frontier_path: str = None,
) -> SweepReport:
    """Exhaustively check one conjecture case over a finite grid.

    Cells already inside the verified box of an existing frontier file are
    skipped, so repeated runs extend coverage instead of repeating it.  The
    persisted box only ever grows: if neither the old box nor the new grid
    contains the other, the one covering more cells is kept (the old one
    on a tie), since the frontier records a single fully swept rectangle.
    A grid without cells (even-n with j_max < 2, say) is reported as
    skipped and writes no frontier file.
    """
    if case not in CASES:
        raise DomainError("unknown conjecture case %r" % (case,))
    if m_max < 1 or n_max < 1 or j_max < 1:
        raise DomainError("sweep bounds must be >= 1")
    if jobs < 1:
        raise DomainError("jobs must be >= 1")
    t0 = time.perf_counter()
    prior = _load_frontier(frontier_path, case) if frontier_path is not None else None
    skip = prior["verified"] if prior else None

    grid = {"m_max": m_max, "n_max": n_max, "j_max": j_max}
    empty = _box_cells(case, grid) == 0
    if frontier_path is not None and not empty:
        # refuse an unwritable frontier now, not after the last cell; the
        # empty path names no file to rename the temporary one over
        with _frontier_tmp(frontier_path) as tmp:
            probe_writable(tmp if frontier_path else frontier_path)
    columns = [] if empty else [(case, n, m_max, j_max, skip) for n in _columns(case, n_max)]
    checked = 0
    bad = []
    late = []
    for cells, hits, consequences in ordered_map(_sweep_column, columns, jobs):
        checked += cells
        bad.extend(hits)
        late.extend(consequences)
    bad.extend(late)

    # with no prior frontier the grid stands in for the old box
    old = prior or {"verified": grid, "counterexamples": []}
    box = old["verified"]
    if all(grid[k] >= box[k] for k in grid) or _box_cells(case, grid) > _box_cells(case, box):
        box = grid
    frontier = {
        "case": case,
        "verified": dict(box),
        "counterexamples": _merge_counterexamples(old["counterexamples"], bad),
    }
    if frontier_path is not None and not empty:
        _write_frontier(frontier_path, frontier)

    elapsed = int((time.perf_counter() - t0) * 1000)
    return SweepReport(
        case_id=case,
        grid=grid,
        verified_cells=checked,
        counterexamples=bad,
        frontier=frontier,
        elapsed_ms=elapsed,
    )
