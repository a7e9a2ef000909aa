"""Command-line front end.

Five commands: verify (registry rows), sweep (conjecture grids), show
(render one q-object), enum (dump small enumerations), and all (the
reproduce-everything entry point).  Reports go to stdout or --output;
progress and errors go to stderr.  Exit 0 means everything passed, 1 means
a check failed or a counterexample was found (the report is still
written), 2 means the invocation itself was bad.
"""

import argparse
import io
import json
import os
import sys

from . import registry
from .conjecture import (
    CASES,
    DEFAULT_J_MAX,
    DEFAULT_M_MAX,
    DEFAULT_N_MAX,
    SweepReport,
    conjecture_poly,
    probe_writable,
    sweep,
)
from .dyckpaths import iter_dyck, iter_elevated
from .errors import QKoshyError, ScaleLimit
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
        v = 0
    if v < 1:
        raise argparse.ArgumentTypeError("want a positive integer, got %r" % text)
    return v


def _jobs(flag):
    """--jobs when given, else QKOSHY_JOBS when set, else 1."""
    if flag is not None:
        return flag
    raw = os.environ.get("QKOSHY_JOBS", "").strip()
    try:
        return _positive_int(raw) if raw else 1
    except argparse.ArgumentTypeError as exc:
        raise _UsageError("QKOSHY_JOBS: %s" % exc) from None


# subject: (constructor, usage); every argument is an integer but a leading CASE
SHOW_SUBJECTS = {
    "qbinom": (q_binomial, "M K"),
    "qcatalan": (q_catalan, "N"),
    "narayana": (narayana_poly, "N"),
    "qballot": (q_ballot, "J N"),
    "cyclotomic": (cyclotomic, "K"),
    "tterm": (lambda r, n, j=1: t_term_poly(r, n, j), "R N [J]"),
    "conjecture-poly": (conjecture_poly, "CASE M N [J]"),
}
ENUM_SUBJECTS = ("dyck", "elevated", "partitions")

# every parameter some registry row declares, in order of first use
BOUND_NAMES = tuple(dict.fromkeys(
    name for chk in registry.CHECKS.values() for name in chk.params))


def _roster():
    lines = ["identities: parameter=default range (cap); its low end is the floor"]
    for chk in registry.CHECKS.values():
        params = "  ".join("%s=%d..%d (cap %d)" % (name, lo, hi, cap)
                           for name, (lo, hi, cap) in chk.params.items())
        lines.append("  %-19s %s" % (chk.id, params))
    return "\n".join(lines)


def _parser():
    top = _Parser(prog="qkoshy", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", metavar="COMMAND")

    def add_common(p, formats=("text", "json", "csv")):
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--output", metavar="PATH")

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

    # only the commands that check cells fan out
    for p in (v, s, a):
        p.add_argument("--jobs", type=_positive_int, default=None)
    return top


def _emit(chunks, path):
    """Write the strings of chunks in turn, to path or else to stdout."""
    if path is None:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise _UsageError("cannot write %s: %s" % (path, exc)) from None


def _box(g):
    return "m<=%d n<=%d j<=%d" % (g["m_max"], g["n_max"], g["j_max"])


def _identity_text(d):
    """Name, bounds, cell count and detail lines of an identity report."""
    params = "  ".join("%s=%d..%d" % (k, v[0], v[1]) for k, v in sorted(d["params"].items()))
    lines = []
    ce = d["counterexample"]
    if ce:
        cell = "  ".join("%s=%s" % kv for kv in sorted(ce["cell"].items()))
        lines.append("  counterexample at %s" % cell)
        lines.append("    left:  %s" % ce["left"])
        lines.append("    right: %s" % ce["right"])
        lines.append("    diff:  %s" % ce["diff"])
    return d["identity"], params, d["cells_checked"], lines


def _sweep_text(d):
    """Name, grid, cell count and detail lines of a sweep report."""
    lines = []
    for rec in d["counterexamples"]:
        cell = "  ".join("%s=%s" % kv for kv in sorted(rec["params"].items()))
        lines.append("  counterexample at %s (first break at q^%d)"
                     % (cell, rec["break_index"]))
        lines.append("    poly: %s" % rec["poly"])
    lines.append("  frontier: %s" % _box(d["frontier"]["verified"]))
    return "sweep " + d["case"], _box(d["grid"]), d["verified_cells"], lines


CSV_HEADER = ("identity", "params", "status", "counterexample_cell", "counterexample_left",
              "counterexample_right", "counterexample_diff", "cells_checked", "elapsed_ms")
SWEEP_CSV_HEADER = ("case", "status", "verified_cells", "m_max", "n_max", "j_max",
                    "elapsed_ms", "counterexample_params", "counterexample_break_index")


def _identity_csv(d):
    ce = d["counterexample"] or {}
    return [[d["identity"], json.dumps(d["params"], sort_keys=True), d["status"],
             json.dumps(ce["cell"]) if ce else "", ce.get("left", ""),
             ce.get("right", ""), ce.get("diff", ""), d["cells_checked"], d["elapsed_ms"]]]


def _sweep_csv(d):
    g = d["grid"]
    prefix = [d["case"], d["status"], d["verified_cells"],
              g["m_max"], g["n_max"], g["j_max"], d["elapsed_ms"]]
    return [prefix + [json.dumps(rec["params"], sort_keys=True), rec["break_index"]]
            for rec in d["counterexamples"]] or [prefix + ["", ""]]


# per report type: its text parts, its CSV header and its CSV rows
_LAYOUT = {
    registry.IdentityReport: (_identity_text, CSV_HEADER, _identity_csv),
    SweepReport: (_sweep_text, SWEEP_CSV_HEADER, _sweep_csv),
}

# how each command lays out its report dicts as one JSON payload
_JSON_SHAPE = {
    "verify": lambda ds: ds[0] if len(ds) == 1 else ds,
    "sweep": lambda ds: ds[0],
    "all": lambda ds: {"identities": [d for d in ds if "identity" in d],
                       "sweeps": [d for d in ds if "case" in d]},
}


def _noted(rep):
    """Note a finished report on stderr and pass it on."""
    d = rep.to_dict()
    name, _, cells, _ = _LAYOUT[type(rep)][0](d)
    print("# %s: %s (%d cells, %d ms)" % (name, d["status"], cells, d["elapsed_ms"]),
          file=sys.stderr, flush=True)
    return rep


def report(args, reports):
    """Render the reports of a verify, sweep or all run in args.format, write
    them to stdout or args.output, and return the exit status: 1 when some
    report failed, else 0."""
    failed = any(rep.status == "fail" for rep in reports)
    dicts = [rep.to_dict() for rep in reports]
    if args.format == "json":
        text = json.dumps(_JSON_SHAPE[args.command](dicts), indent=1) + "\n"
    elif args.format == "csv":
        import csv
        _, header, rows = _LAYOUT[type(reports[0])]
        buf = io.StringIO()
        out = csv.writer(buf, lineterminator="\n")
        out.writerow(header)
        for d in dicts:
            out.writerows(rows(d))
        text = buf.getvalue()
    else:
        lines = []
        for rep, d in zip(reports, dicts):
            name, box, cells, details = _LAYOUT[type(rep)][0](d)
            lines.append("%s: %s  [%s]  cells=%d  elapsed_ms=%d"
                         % (name, d["status"], box, cells, d["elapsed_ms"]))
            lines.extend(details)
        if args.command == "all":
            lines.append("overall: %s" % ("fail" if failed else "pass"))
        text = "\n".join(lines) + "\n"
    _emit([text], args.output)
    return 1 if failed else 0


def _verify_reports(ids, jobs, bounds=None, force=False):
    return [_noted(registry.verify(ident, bounds=bounds, jobs=jobs, force=force))
            for ident in ids]


def _sweep_reports(cases, jobs, **grid):
    return [_noted(sweep(case, jobs=jobs, **grid)) for case in cases]


def _cmd_verify(args, jobs):
    if not args.ids:
        raise _UsageError("verify needs at least one --id NAME "
                          "(see `qkoshy verify --help` for the list)")
    bounds = {}
    for name in BOUND_NAMES:
        raw = getattr(args, "range_" + name)
        if raw is not None:
            bounds[name] = _parse_range(raw)
    return _verify_reports(args.ids, jobs, bounds or None, args.force)


def _cmd_sweep(args, jobs):
    return _sweep_reports([args.case], jobs, m_max=args.m_max, n_max=args.n_max,
                          j_max=args.j_max, frontier_path=args.frontier)


def _cmd_all(args, jobs):
    return _verify_reports(registry.list_identities(), jobs) + _sweep_reports(CASES, jobs)


def _show_value(subject, raw_args):
    make, usage = SHOW_SUBJECTS[subject]
    words = usage.split()
    if not sum(not w.startswith("[") for w in words) <= len(raw_args) <= len(words):
        raise _UsageError("show %s wants %s" % (subject, usage))
    texts = raw_args[:1] if words[0] == "CASE" else []
    try:
        ints = [int(x) for x in raw_args[len(texts):]]
    except ValueError:
        want = ("integer " + usage.partition(" ")[2] if texts
                else "integer arguments, got %r" % (raw_args,))
        raise _UsageError("show %s wants %s" % (subject, want)) from None
    return make(*texts, *ints)


def _cmd_show(args):
    value = _show_value(args.subject, args.args)
    if args.format == "json":
        payload = {"subject": args.subject, "args": list(args.args),
                   "value": str(value)}
        _emit([json.dumps(payload, indent=1) + "\n"], args.output)
    else:
        _emit([str(value) + "\n"], args.output)
    return 0


def _cmd_enum(args):
    usage = "MAX_PART LENGTH" if args.subject == "partitions" else "N"
    if len(args.args) != len(usage.split()):
        raise _UsageError("enum %s wants %s" % (args.subject, usage))
    try:
        ints = [int(x) for x in args.args]
    except ValueError:
        raise _UsageError("enum %s wants integer %s" % (args.subject, usage)) from None
    try:
        if args.subject == "partitions":
            max_part, length = ints
            items = map(render_partition, enumerate_partitions(
                max_part, length, at_most=args.at_most, strict=args.strict,
                force=args.force))
        else:
            it = iter_dyck if args.subject == "dyck" else iter_elevated
            items = it(ints[0], force=args.force)
        # the guards run by the first item at the latest, so one that
        # trips stops the command before --output is opened
        first = next(items, None)
    except ScaleLimit as exc:
        # every guard an enumerator raises here is one that --force lifts
        raise ScaleLimit("%s (pass --force to override)" % exc) from None
    _emit(_enum_chunks(first, items, args.format), args.output)
    return 0


def _enum_chunks(first, rest, fmt):
    """The enum output, one item at a time: a line per item, or the bytes
    of json.dumps(items, indent=1).  first is None when there is no item."""
    if fmt == "json":
        if first is None:
            yield "[]\n"
            return
        yield "[\n " + json.dumps(first)
        for item in rest:
            yield ",\n " + json.dumps(item)
        yield "\n]\n"
    else:
        yield (first or "") + "\n"
        for item in rest:
            yield item + "\n"


# commands that print one q-object or enumeration, and commands that check
# cells and hand their reports to report()
_HANDLERS = {"show": _cmd_show, "enum": _cmd_enum}
_REPORTERS = {"verify": _cmd_verify, "sweep": _cmd_sweep, "all": _cmd_all}


def run(argv=None) -> int:
    """Parse argv and execute; returns the process exit status."""
    try:
        args = _parser().parse_args(argv)
        if args.command is None:
            raise _UsageError("no command given; try `qkoshy --help`")
        if args.output is not None:
            # refuse an unwritable target before any work, touching nothing
            try:
                probe_writable(args.output)
            except OSError as exc:
                raise _UsageError("cannot write %s: %s" % (args.output, exc)) from None
        if args.command in _HANDLERS:
            return _HANDLERS[args.command](args)
        return report(args, _REPORTERS[args.command](args, _jobs(args.jobs)))
    except SystemExit as exc:  # --help exits through argparse
        return 0 if exc.code is None else int(exc.code)
    except (_UsageError, QKoshyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout early (`| head`): stop quietly, with
        # stdout pointed at devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (OverflowError, RecursionError, MemoryError) as exc:
        # an argument too large for a list to index, hold or recurse to
        print("error: argument too large: %s" % (str(exc) or type(exc).__name__), file=sys.stderr)
        return 2


def main():
    sys.exit(run())
