"""Command-line front end.

Five commands: verify (registry rows), sweep (conjecture grids), show
(render one q-object), enum (dump small enumerations), and all (the
reproduce-everything entry point).  Reports go to stdout or --output;
progress and errors go to stderr.  Exit 0 means everything passed, 1 means
a check failed or a counterexample was found (the report is still
written), 2 means the invocation itself was bad.
"""

import argparse
import json
import os
import sys

from . import registry
from .conjecture import (
    CASES,
    DEFAULT_J_MAX,
    DEFAULT_M_MAX,
    DEFAULT_N_MAX,
    conjecture_poly,
    sweep,
)
from .dyckpaths import iter_dyck, iter_elevated
from .errors import DomainError, QKoshyError, ScaleLimit, UnknownIdentity
from .partitions import enumerate_partitions, render_partition
from .qfuncs import cyclotomic, narayana_poly, q_ballot, q_binomial, q_catalan, t_term_poly


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse wants to print multi-line usage and exit; the contract here
    # is a one-line hint and status 2, so route through _UsageError
    def error(self, message):
        raise _UsageError(message)


def _parse_range(text):
    s = text.strip()
    if ".." in s:
        lo_s, _, hi_s = s.partition("..")
    else:
        lo_s = hi_s = s
    try:
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise _UsageError("bad range %r, want N or A..B" % text) from None
    if lo > hi:
        raise _UsageError("range %r is empty" % text)
    return lo, hi


def _positive_int(text):
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("want a positive integer, got %r" % text)
    if v < 1:
        raise argparse.ArgumentTypeError("want a positive integer, got %r" % text)
    return v


def _default_jobs():
    raw = os.environ.get("QKOSHY_JOBS", "").strip()
    if not raw:
        return 1
    try:
        v = int(raw)
    except ValueError:
        raise _UsageError("QKOSHY_JOBS must be a positive integer, got %r" % raw)
    if v < 1:
        raise _UsageError("QKOSHY_JOBS must be a positive integer, got %r" % raw)
    return v


SHOW_SUBJECTS = (
    "qbinom",
    "qcatalan",
    "narayana",
    "qballot",
    "cyclotomic",
    "tterm",
    "conjecture-poly",
)
ENUM_SUBJECTS = ("dyck", "elevated", "partitions")

# every parameter some registry row declares, in order of first use
BOUND_NAMES = tuple(dict.fromkeys(
    name for chk in registry.CHECKS.values() for name in chk.params))


def _roster():
    lines = ["identities: parameter=default range (floor, cap)"]
    for chk in registry.CHECKS.values():
        params = "  ".join("%s=%d..%d (floor %d, cap %d)" % (name, lo, hi, floor, cap)
                           for name, (floor, lo, hi, cap) in chk.params.items())
        lines.append("  %-19s %s" % (chk.id, params))
    return "\n".join(lines)


def _parser():
    top = _Parser(prog="qkoshy", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", metavar="COMMAND")

    def add_common(p, formats=("text", "json", "csv")):
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--output", metavar="PATH")
        p.add_argument("--jobs", type=_positive_int, default=None)

    v = sub.add_parser(
        "verify",
        help="run identity checks from the registry",
        epilog=_roster(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    v.add_argument("--id", action="append", dest="ids", metavar="IDENTITY")
    for name in BOUND_NAMES:
        v.add_argument("--" + name, metavar="A..B", dest="range_" + name)
    v.add_argument("--force", action="store_true",
                   help="bypass the per-row scale caps")
    add_common(v)

    s = sub.add_parser("sweep", help="sweep a conjecture grid for counterexamples")
    s.add_argument("--case", choices=CASES, default="odd-n")
    s.add_argument("--m-max", type=_positive_int, default=DEFAULT_M_MAX)
    s.add_argument("--n-max", type=_positive_int, default=DEFAULT_N_MAX)
    s.add_argument("--j-max", type=_positive_int, default=DEFAULT_J_MAX)
    s.add_argument("--frontier", metavar="PATH",
                   help="persist and extend the verified box in this file")
    add_common(s)

    w = sub.add_parser("show", help="print one q-object")
    w.add_argument("subject", choices=SHOW_SUBJECTS)
    w.add_argument("args", nargs="*", metavar="ARG")
    add_common(w, formats=("text", "json"))

    e = sub.add_parser("enum", help="list paths or partitions, one per line")
    e.add_argument("subject", choices=ENUM_SUBJECTS)
    e.add_argument("args", nargs="*", metavar="ARG")
    e.add_argument("--strict", action="store_true",
                   help="partitions: distinct parts only")
    e.add_argument("--at-most", action="store_true",
                   help="partitions: treat LENGTH as an upper bound")
    e.add_argument("--force", action="store_true",
                   help="bypass the enumeration size guard")
    add_common(e, formats=("text", "json"))

    a = sub.add_parser("all", help="full registry plus both default sweeps")
    add_common(a, formats=("text", "json"))

    return top


def _emit(text, path):
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
                if not text.endswith("\n"):
                    fh.write("\n")
        except OSError as exc:
            raise _UsageError("cannot write %s: %s" % (path, exc)) from None


def _note(msg):
    print(msg, file=sys.stderr)
    sys.stderr.flush()


def _report_text(d):
    params = "  ".join(
        "%s=%d..%d" % (k, v[0], v[1]) for k, v in sorted(d["params"].items())
    )
    lines = [
        "%s: %s  [%s]  cells=%d  elapsed_ms=%d"
        % (d["identity"], d["status"], params, d["cells_checked"], d["elapsed_ms"])
    ]
    ce = d["counterexample"]
    if ce:
        cell = "  ".join("%s=%s" % kv for kv in sorted(ce["cell"].items()))
        lines.append("  counterexample at %s" % cell)
        lines.append("    left:  %s" % ce["left"])
        lines.append("    right: %s" % ce["right"])
        lines.append("    diff:  %s" % ce["diff"])
    return lines


def _sweep_text(d):
    g = d["grid"]
    lines = [
        "sweep %s: %s  [m<=%d n<=%d j<=%d]  cells=%d  elapsed_ms=%d"
        % (d["case"], d["status"], g["m_max"], g["n_max"], g["j_max"],
           d["verified_cells"], d["elapsed_ms"])
    ]
    for rec in d["counterexamples"]:
        cell = "  ".join("%s=%s" % kv for kv in sorted(rec["params"].items()))
        lines.append("  counterexample at %s (first break at q^%d)"
                     % (cell, rec["break_index"]))
        lines.append("    poly: %s" % rec["poly"])
    fr = d["frontier"]["verified"]
    lines.append("  frontier: m<=%d n<=%d j<=%d"
                 % (fr["m_max"], fr["n_max"], fr["j_max"]))
    return lines


def _sweep_csv_rows(d):
    g = d["grid"]
    prefix = [d["case"], d["status"], d["verified_cells"],
              g["m_max"], g["n_max"], g["j_max"], d["elapsed_ms"]]
    if not d["counterexamples"]:
        return [",".join(registry.csv_field(x) for x in prefix + ["", ""])]
    rows = []
    for rec in d["counterexamples"]:
        params = json.dumps(rec["params"], sort_keys=True)
        rows.append(",".join(
            registry.csv_field(x) for x in prefix + [params, rec["break_index"]]
        ))
    return rows


SWEEP_CSV_HEADER = ("case,status,verified_cells,m_max,n_max,j_max,"
                    "elapsed_ms,counterexample_params,counterexample_break_index")


def _cmd_verify(args):
    if not args.ids:
        raise _UsageError("verify needs at least one --id NAME "
                          "(see `qkoshy verify --help` for the list)")
    bounds = {}
    for name in BOUND_NAMES:
        raw = getattr(args, "range_" + name)
        if raw is not None:
            bounds[name] = _parse_range(raw)
    jobs = args.jobs if args.jobs is not None else _default_jobs()
    reports = []
    for ident in args.ids:
        rep = registry.verify(ident, bounds=bounds or None, jobs=jobs,
                              force=args.force)
        _note("# %s: %s (%d cells, %d ms)"
              % (rep.identity, rep.status, rep.cells_checked, rep.elapsed_ms))
        reports.append(rep)
    dicts = [r.to_dict() for r in reports]
    if args.format == "json":
        payload = dicts[0] if len(dicts) == 1 else dicts
        _emit(json.dumps(payload, indent=1) + "\n", args.output)
    elif args.format == "csv":
        rows = [registry.CSV_HEADER] + [registry.report_csv_row(r) for r in reports]
        _emit("\n".join(rows) + "\n", args.output)
    else:
        lines = []
        for d in dicts:
            lines.extend(_report_text(d))
        _emit("\n".join(lines) + "\n", args.output)
    return 1 if any(r.status == "fail" for r in reports) else 0


def _cmd_sweep(args):
    jobs = args.jobs if args.jobs is not None else _default_jobs()
    rep = sweep(args.case, m_max=args.m_max, n_max=args.n_max,
                j_max=args.j_max, jobs=jobs, frontier_path=args.frontier)
    _note("# sweep %s: %s (%d cells, %d ms)"
          % (rep.case_id, rep.status, rep.verified_cells, rep.elapsed_ms))
    d = rep.to_dict()
    if args.format == "json":
        _emit(json.dumps(d, indent=1) + "\n", args.output)
    elif args.format == "csv":
        _emit("\n".join([SWEEP_CSV_HEADER] + _sweep_csv_rows(d)) + "\n", args.output)
    else:
        _emit("\n".join(_sweep_text(d)) + "\n", args.output)
    return 1 if rep.counterexamples else 0


def _show_value(subject, raw_args):
    def ints(k_min, k_max, usage):
        if not (k_min <= len(raw_args) <= k_max):
            raise _UsageError("show %s wants %s" % (subject, usage))
        try:
            return [int(x) for x in raw_args]
        except ValueError:
            raise _UsageError("show %s wants integer arguments, got %r"
                              % (subject, raw_args)) from None

    if subject == "qbinom":
        m, k = ints(2, 2, "M K")
        return q_binomial(m, k)
    if subject == "qcatalan":
        (n,) = ints(1, 1, "N")
        return q_catalan(n)
    if subject == "narayana":
        (n,) = ints(1, 1, "N")
        return narayana_poly(n)
    if subject == "qballot":
        j, n = ints(2, 2, "J N")
        return q_ballot(j, n)
    if subject == "cyclotomic":
        (k,) = ints(1, 1, "K")
        return cyclotomic(k)
    if subject == "tterm":
        got = ints(2, 3, "R N [J]")
        r, n = got[0], got[1]
        j = got[2] if len(got) == 3 else 1
        return t_term_poly(r, n, j)
    # conjecture-poly CASE M N [J]
    if not (3 <= len(raw_args) <= 4):
        raise _UsageError("show conjecture-poly wants CASE M N [J]")
    case = raw_args[0]
    try:
        rest = [int(x) for x in raw_args[1:]]
    except ValueError:
        raise _UsageError("show conjecture-poly wants integer M N [J]") from None
    m, n = rest[0], rest[1]
    j = rest[2] if len(rest) == 3 else None
    return conjecture_poly(case, m, n, j)


def _cmd_show(args):
    value = _show_value(args.subject, args.args)
    if args.format == "json":
        payload = {"subject": args.subject, "args": list(args.args),
                   "value": str(value)}
        _emit(json.dumps(payload, indent=1) + "\n", args.output)
    else:
        _emit(str(value) + "\n", args.output)
    return 0


def _cmd_enum(args):
    subject = args.subject
    if subject in ("dyck", "elevated"):
        if len(args.args) != 1:
            raise _UsageError("enum %s wants N" % subject)
        try:
            n = int(args.args[0])
        except ValueError:
            raise _UsageError("enum %s wants integer N" % subject) from None
        it = (iter_dyck if subject == "dyck" else iter_elevated)(n, force=args.force)
        items = list(it)
    else:
        if len(args.args) != 2:
            raise _UsageError("enum partitions wants MAX_PART LENGTH")
        try:
            max_part, length = int(args.args[0]), int(args.args[1])
        except ValueError:
            raise _UsageError("enum partitions wants integer MAX_PART LENGTH") from None
        kw = {"max_length": length} if args.at_most else {"exact_length": length}
        items = [
            render_partition(p)
            for p in enumerate_partitions(max_part, strict=args.strict,
                                          force=args.force, **kw)
        ]
    if args.format == "json":
        _emit(json.dumps(items, indent=1) + "\n", args.output)
    else:
        _emit("\n".join(items) + "\n" if items else "", args.output)
    return 0


def _cmd_all(args):
    jobs = args.jobs if args.jobs is not None else _default_jobs()
    reports = []
    for ident in registry.list_identities():
        rep = registry.verify(ident, jobs=jobs)
        _note("# %s: %s (%d cells, %d ms)"
              % (rep.identity, rep.status, rep.cells_checked, rep.elapsed_ms))
        reports.append(rep)
    sweeps = []
    for case in CASES:
        srep = sweep(case, jobs=jobs)
        _note("# sweep %s: %s (%d cells, %d ms)"
              % (srep.case_id, srep.status, srep.verified_cells, srep.elapsed_ms))
        sweeps.append(srep)
    failed = (any(r.status == "fail" for r in reports)
              or any(s.counterexamples for s in sweeps))
    if args.format == "json":
        payload = {
            "identities": [r.to_dict() for r in reports],
            "sweeps": [s.to_dict() for s in sweeps],
        }
        _emit(json.dumps(payload, indent=1) + "\n", args.output)
    else:
        lines = []
        for r in reports:
            lines.extend(_report_text(r.to_dict()))
        for s in sweeps:
            lines.extend(_sweep_text(s.to_dict()))
        lines.append("overall: %s" % ("fail" if failed else "pass"))
        _emit("\n".join(lines) + "\n", args.output)
    return 1 if failed else 0


_HANDLERS = {
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "show": _cmd_show,
    "enum": _cmd_enum,
    "all": _cmd_all,
}


def run(argv=None) -> int:
    """Parse argv and execute; returns the process exit status."""
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except SystemExit as exc:  # --help exits through argparse
        code = exc.code
        return 0 if code is None else int(code)
    if args.command is None:
        print("error: no command given; try `qkoshy --help`", file=sys.stderr)
        return 2
    try:
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (UnknownIdentity, DomainError, ScaleLimit) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except QKoshyError as exc:
        # anything else from the math layer at this level is a bug surfacing
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main():
    sys.exit(run())
