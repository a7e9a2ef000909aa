"""Checks on what qkoshy prints.  Each check returns a list of problems; an
empty list means the output is right.  Nothing here imports qkoshy, and
nothing compares against a stored copy of an earlier output: expected
values come from oracle.py.
"""

import json
import re
from math import comb

import oracle

_TERM = re.compile(r"^(?:(\d+)\*)?q(?:\^(\d+))?$")


def parse_poly(text):
    """Coefficient list from qkoshy's rendering, e.g. '1 + 2*q^2 - q^3'."""
    text = text.strip()
    if text == "0":
        return []
    out = {}
    sign = 1
    for tok in text.split(" "):
        if tok in ("+", "-"):
            sign = 1 if tok == "+" else -1
            continue
        if tok.startswith("-"):
            sign, tok = -1, tok[1:]
        if tok.isdigit():
            power, coeff = 0, int(tok)
        else:
            mt = _TERM.match(tok)
            if mt is None:
                raise ValueError("cannot parse term %r in %r" % (tok, text))
            coeff = int(mt.group(1) or 1)
            power = int(mt.group(2) or 1)
        if power in out:
            raise ValueError("power %d appears twice in %r" % (power, text))
        out[power] = sign * coeff
        sign = 1
    return oracle.trim([out.get(i, 0) for i in range(max(out) + 1)])


def load_json(stdout):
    try:
        return json.loads(stdout), []
    except ValueError as exc:
        return None, ["output is not JSON: %s" % exc]


def check_verify(payload, ids, passed_bounds):
    """A `verify --format json` payload for the rows `ids`, run with
    `passed_bounds` ({name: (lo, hi)}); every row must pass on exactly the
    cells of its domain."""
    reports = payload if isinstance(payload, list) else [payload]
    got = [r.get("identity") if isinstance(r, dict) else None for r in reports]
    if got != list(ids):
        return ["reports are for %s, not %s" % (got, list(ids))]
    problems = []
    for rep in reports:
        ident = rep["identity"]
        if rep.get("status") != "pass" or rep.get("counterexample") is not None:
            problems.append("%s: status %r, counterexample %r"
                            % (ident, rep.get("status"), rep.get("counterexample")))
        params = rep.get("params")
        if not isinstance(params, dict):
            problems.append("%s: no params" % ident)
            continue
        for name, (lo, hi) in passed_bounds.items():
            if params.get(name) != [lo, hi]:
                problems.append("%s: %s bound %r, asked for %d..%d"
                                % (ident, name, params.get(name), lo, hi))
        try:
            want = oracle.row_cells(ident, params)
        except (KeyError, TypeError, ValueError) as exc:
            problems.append("%s: cannot count cells from params %r (%r)" % (ident, params, exc))
            continue
        if rep.get("cells_checked") != want:
            problems.append("%s: cells_checked %r, domain has %d"
                            % (ident, rep.get("cells_checked"), want))
        if not isinstance(rep.get("elapsed_ms"), int):
            problems.append("%s: elapsed_ms %r" % (ident, rep.get("elapsed_ms")))
    return problems


def expected_sweep(case, grid):
    """The whole `sweep --format json` payload, apart from elapsed_ms, on a
    grid without counterexamples and without a frontier file."""
    grid = dict(grid)
    return {
        "case": case,
        "grid": grid,
        "status": "pass",
        "verified_cells": oracle.sweep_cells(case, grid["m_max"], grid["n_max"], grid["j_max"]),
        "counterexamples": [],
        "frontier": {"case": case, "verified": dict(grid), "counterexamples": []},
    }


def check_sweep(payload, case, grid):
    """Equality with expected_sweep means both the --jobs 1 and the --jobs 2
    payloads equal each other apart from elapsed_ms."""
    if not isinstance(payload, dict) or not isinstance(payload.get("elapsed_ms"), int):
        return ["sweep payload without an integer elapsed_ms"]
    got = {k: v for k, v in payload.items() if k != "elapsed_ms"}
    want = expected_sweep(case, grid)
    if got == want:
        return []
    keys = sorted(set(got) | set(want))
    return ["sweep %s: %s is %r, want %r" % (case, k, got.get(k), want.get(k))
            for k in keys if got.get(k) != want.get(k)]


# -- sampled polynomials ----------------------------------------------------

POINTS = (2, 3, 5)


def _compare_poly(label, got, want, evaluate, points):
    problems = []
    if got != want:
        diff = next((i for i in range(max(len(got), len(want)))
                     if (got[i:i + 1] or [0]) != (want[i:i + 1] or [0])), None)
        problems.append("%s: differs from the Pascal oracle (first at q^%s)" % (label, diff))
    for x in points:
        if oracle.peval(got, x) != evaluate(x):
            problems.append("%s: differs from the product form at q = %d" % (label, x))
    return problems


def check_show(subject, args, payload, points=POINTS):
    """A `show SUBJECT ARGS --format json` payload against the oracle."""
    if not isinstance(payload, dict) or payload.get("subject") != subject:
        return ["show %s: unexpected payload %r" % (subject, payload)]
    if payload.get("args") != [str(a) for a in args]:
        return ["show %s: args %r, want %r" % (subject, payload.get("args"), args)]
    try:
        got = parse_poly(payload["value"])
    except (KeyError, ValueError) as exc:
        return ["show %s: %s" % (subject, exc)]
    label = "show %s %s" % (subject, " ".join(str(a) for a in args))
    if subject == "qbinom":
        m, k = args
        want, ev = oracle.gauss(m, k), (lambda x: oracle.eval_gauss(m, k, x))
    elif subject == "qcatalan":
        (n,) = args
        want, ev = oracle.q_catalan(n), (lambda x: oracle.eval_q_catalan(n, x))
        if oracle.peval(got, 1) != oracle.catalan(n):
            return ["%s: value at q = 1 is not the Catalan number" % label]
    elif subject == "qballot":
        j, n = args
        want, ev = oracle.q_ballot(j, n), (lambda x: oracle.eval_q_ballot(j, n, x))
        if oracle.peval(got, 1) != oracle.ballot_number(n, j):
            return ["%s: value at q = 1 is not the ballot number" % label]
    elif subject == "tterm":
        r, n, j = args
        want, ev = oracle.t_term(r, n, j), (lambda x: oracle.eval_t_term(r, n, j, x))
    elif subject == "conjecture-poly":
        case, m, n = args[:3]
        j = args[3] if len(args) > 3 else None
        want, ev = (oracle.conjecture_poly(case, m, n, j),
                    (lambda x: oracle.eval_conjecture(case, m, n, j, x)))
        problems = _compare_poly(label, got, want, ev, points)
        if not oracle.is_reciprocal(got):
            problems.append("%s: not reciprocal by the oracle's scan" % label)
        if not oracle.is_unimodal(got):
            problems.append("%s: not unimodal by the oracle's scan" % label)
        return problems
    else:
        return ["show %s: no oracle" % subject]
    return _compare_poly(label, got, want, ev, points)


def check_enum(subject, args, flags, payload):
    """An `enum ... --format json` payload: the objects, their count at q = 1,
    and a statistic the oracle can total independently."""
    if not isinstance(payload, list) or not all(isinstance(w, str) for w in payload):
        return ["enum %s: payload is not a list of strings" % subject]
    if len(set(payload)) != len(payload):
        return ["enum %s %s: repeated objects" % (subject, args)]
    if subject in ("dyck", "elevated"):
        (n,) = args
        inner = payload if subject == "dyck" else [w[1:-1] for w in payload]
        if subject == "elevated" and not all(w[:1] == "U" and w[-1:] == "D" for w in payload):
            return ["enum elevated %d: a word is not U...D" % n]
        if not all(len(w) == 2 * n and oracle.is_dyck(w) for w in inner):
            return ["enum %s %d: a word is not a Dyck path of semilength %d" % (subject, n, n)]
        if len(payload) != oracle.catalan(n):
            return ["enum %s %d: %d paths, Catalan number is %d"
                    % (subject, n, len(payload), oracle.catalan(n))]
        if subject == "dyck":
            # MacMahon: the major index distribution is the q-Catalan number
            dist = {}
            for w in payload:
                k = oracle.major_index(w)
                dist[k] = dist.get(k, 0) + 1
            got = [dist.get(i, 0) for i in range(max(dist) + 1)]
            if got != oracle.q_catalan(n):
                return ["enum dyck %d: major index distribution is not C_n(q)" % n]
            return []
        problems = []
        for m in range(0, n + 2):
            got = sum(comb(oracle.up_peaks(w), m) for w in payload)
            if got != oracle.labeled_up_peak_count(n, m):
                problems.append("enum elevated %d: %d paths with %d labelled up-peaks, want %d"
                                % (n, got, m, oracle.labeled_up_peak_count(n, m)))
        return problems
    max_part, length = args
    strict = "--strict" in flags
    try:
        parts = [[int(x) for x in s.strip("[]").split(",") if x] for s in payload]
    except ValueError:
        return ["enum partitions: cannot parse %r" % payload[:3]]
    for p in parts:
        ok = (len(p) == length and all(1 <= x <= max_part for x in p)
              and all(a > b if strict else a >= b for a, b in zip(p, p[1:])))
        if not ok:
            return ["enum partitions %d %d: %r is out of the family" % (max_part, length, p)]
    want = oracle.partition_count(max_part, length, strict)
    if len(parts) != want:
        return ["enum partitions %d %d%s: %d partitions, want %d"
                % (max_part, length, " --strict" if strict else "", len(parts), want)]
    return []
