"""Spans around qkoshy's layers, recorded from outside the program.

install() wraps the functions each per-layer metric names, at every module
binding that refers to them, and the checker of every registry row.  A
span is (name, parent span, start, end) and lives in four arrays until
dump() writes them out; the benchmark turns them into counts and self
times (layers.py).  Forked pool workers start with empty arrays and
append what they recorded to their own file after each sweep column,
because the pool ends them with SIGTERM.
"""

import functools
import json
import os
import resource
import struct
import sys
from array import array
from dataclasses import replace
from time import perf_counter

# (module, attribute, span name).  Attributes of Poly are "Poly.<method>".
TARGETS = [
    ("poly", "Poly.__mul__", "poly.mul"),
    ("poly", "Poly.__rmul__", "poly.mul"),
    ("poly", "Poly.__add__", "poly.addsub"),
    ("poly", "Poly.__radd__", "poly.addsub"),
    ("poly", "Poly.__sub__", "poly.addsub"),
    ("poly", "Poly.__rsub__", "poly.addsub"),
    ("poly", "exact_div", "poly.exact_div"),
    ("poly", "unimodal_break_index", "poly.unimodal_break_index"),
    ("poly", "shape", "poly.shape"),
    ("qfuncs", "q_binomial", "qfuncs.q_binomial"),
    ("qfuncs", "t_term_poly", "qfuncs.t_term_poly"),
    ("qfuncs", "t_term", "qfuncs.t_term"),
    ("qfuncs", "q_catalan", "qfuncs.q_catalan"),
    ("qfuncs", "q_ballot", "qfuncs.q_ballot"),
    ("qfuncs", "q_lucas_check", "qfuncs.q_lucas_check"),
    ("dyckpaths", "iter_dyck", "dyckpaths.iter"),
    ("dyckpaths", "iter_elevated", "dyckpaths.iter"),
    ("dyckpaths", "iter_ballot_tuples", "dyckpaths.iter"),
    ("dyckpaths", "iter_ballot_paths", "dyckpaths.iter"),
    ("dyckpaths", "analyze", "dyckpaths.analyze"),
    ("dyckpaths", "labeled_gen", "dyckpaths.labeled_gen"),
    ("dyckpaths", "distribution", "dyckpaths.distribution"),
    ("dyckpaths", "lemma1_forward", "dyckpaths.bijections"),
    ("dyckpaths", "lemma1_inverse", "dyckpaths.bijections"),
    ("dyckpaths", "lemma2_forward", "dyckpaths.bijections"),
    ("dyckpaths", "lemma2_inverse", "dyckpaths.bijections"),
    ("partitions", "enumerate_partitions", "partitions.enumerate"),
    ("partitions", "mu_side", "partitions.sides"),
    ("partitions", "nu_side", "partitions.sides"),
    ("partitions", "lambda_side", "partitions.sides"),
    ("partitions", "rank_family_gen", "partitions.sides"),
    ("registry", "verify", "registry.verify"),
    ("registry", "CHECKS", "registry.cell"),
    ("conjecture", "sweep", "conjecture.sweep"),
    ("conjecture", "Pool", "conjecture.pool_wait"),
    ("conjecture", "_sweep_column", None),
]
GENERATORS = {"dyckpaths.iter", "partitions.enumerate"}
CASES = ("odd-n", "even-n")

# counters kept next to the spans
TERM_PRODUCTS, PATHS, PARTITIONS, POOL_CPU = range(4)

_HEADER = struct.Struct("<q")


def _nonzeros(x):
    if isinstance(x, int):
        return 1 if x else 0
    c = getattr(x, "coeffs", None)
    return len(c) - c.count(0) if isinstance(c, tuple) else 0


class Tracer:
    def __init__(self, path):
        self.path = path
        self.names = []                 # span name per id
        self.ids = {}
        self.main_pid = os.getpid()
        self.wrapped = {"cli.run"}      # span names with a live target
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = [0, 0, 0, 0.0]
        self.cache_info = None          # q_binomial's lru_cache statistics
        self.cache_base = (0, 0)
        self._clear()

    def _clear(self):
        # in place: the wrappers hold these very arrays
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[:]
        self.counters[:] = [0, 0, 0, 0.0]
        self.current = -1
        self.dumped = 0

    def _after_fork(self):
        self._clear()
        if self.cache_info is not None:
            info = self.cache_info()
            self.cache_base = (info.hits, info.misses)

    def cache_counts(self):
        if self.cache_info is None:
            return None
        info = self.cache_info()
        return [info.hits - self.cache_base[0], info.misses - self.cache_base[1]]

    def nid(self, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    # -- recording -----------------------------------------------------

    def span(self, nid, fn):
        # open() and close() inlined: on registry-enum this wrapper runs
        # about a million times per round
        name, parent, start, end = self.name, self.parent, self.start, self.end
        tracer = self

        def traced(*args, **kwargs):
            i = len(name)
            name.append(nid)
            parent.append(tracer.current)
            end.append(0.0)
            tracer.current = i
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                tracer.current = parent[i]

        return functools.update_wrapper(traced, fn)

    def open(self, nid):
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.current)
        self.end.append(0.0)
        self.current = i
        self.start.append(perf_counter())
        return i

    def close(self, i):
        self.end[i] = perf_counter()
        self.current = self.parent[i]

    def iterate(self, nid, items, counter=None, outer_ids=()):
        """Each resume of the iterator is one span; items handed to a caller
        that is not itself one of `outer_ids` add to `counter`."""
        while True:
            i = self.open(nid)
            try:
                item = next(items)
            except StopIteration:
                return
            finally:
                self.close(i)
            if counter is not None and (self.current < 0
                                        or self.name[self.current] not in outer_ids):
                self.counters[counter] += 1
            yield item

    def generator(self, nid, fn, counter, outer_ids):
        def traced(*args, **kwargs):
            return self.iterate(nid, fn(*args, **kwargs), counter, outer_ids)

        return functools.update_wrapper(traced, fn)

    # -- output --------------------------------------------------------

    def dump(self, extra=None):
        """Append the spans recorded since the last dump and rewrite the
        counters.  Called with no span open."""
        lo, hi = self.dumped, len(self.name)
        with open("%s.%d.spans" % (self.path, os.getpid()), "ab") as fh:
            fh.write(_HEADER.pack(hi - lo))
            for arr in (self.name, self.parent, self.start, self.end):
                fh.write(arr[lo:hi].tobytes())
        self.dumped = hi
        meta = {"names": self.names, "counters": self.counters,
                "wrapped": sorted(self.wrapped), "q_binomial_cache": self.cache_counts()}
        meta.update(extra or {})
        tmp = "%s.%d.json.tmp" % (self.path, os.getpid())
        with open(tmp, "w") as fh:
            json.dump(meta, fh)
        os.replace(tmp, "%s.%d.json" % (self.path, os.getpid()))


def read_spans(path):
    """[(name, parent, start, end) arrays] per segment of one span file."""
    with open(path, "rb") as fh:
        data = fh.read()
    out = [array("i"), array("i"), array("d"), array("d")]
    pos = 0
    while pos < len(data):
        (n,) = _HEADER.unpack_from(data, pos)
        pos += _HEADER.size
        for arr in out:
            width = arr.itemsize * n
            arr.frombytes(data[pos:pos + width])
            pos += width
    return out


def _bindings(modules, fn):
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is fn:
                yield mod, attr


def install(path):
    """Wrap qkoshy's layers in this process; returns the Tracer."""
    tr = Tracer(path)
    pkg = "qkoshy"
    modules = [m for k, m in sorted(sys.modules.items())
               if (k == pkg or k.startswith(pkg + ".")) and m is not None]
    mods = {k.rpartition(".")[2]: m for k, m in sys.modules.items()
            if k.startswith(pkg + ".") and m is not None}
    outer = {tr.nid("dyckpaths.iter")}
    tr.cache_info = getattr(getattr(mods.get("qfuncs"), "q_binomial", None), "cache_info", None)
    for modname, attr, span_name in TARGETS:
        mod = mods.get(modname)
        owner, _, member = attr.rpartition(".")
        holder = getattr(mod, owner, None) if owner else mod
        fn = getattr(holder, member, None) if holder is not None else None
        if fn is None:          # gone from the program: its metrics read missing
            continue
        if attr == "CHECKS":
            for row, chk in list(fn.items()):
                fn[row] = replace(chk, checker=tr.span(tr.nid("registry.cell:" + row), chk.checker))
                tr.wrapped.add("registry.cell:" + row)
            continue
        if attr == "verify":
            wrapped = _per_key(tr, "registry.verify:", fn, "identity_id")
        elif attr == "sweep":
            wrapped = _per_key(tr, "conjecture.sweep:", fn, "case")
        elif attr == "Pool":
            wrapped = _traced_pool(tr, fn)
        elif attr == "_sweep_column":
            wrapped = _column_hook(tr, fn)
        elif span_name in GENERATORS:
            counter = PATHS if span_name == "dyckpaths.iter" else PARTITIONS
            wrapped = tr.generator(tr.nid(span_name), fn, counter,
                                   outer if counter == PATHS else set())
        elif span_name == "poly.mul":
            wrapped = _traced_mul(tr, fn)
        else:
            wrapped = tr.span(tr.nid(span_name), fn)
        if span_name:
            tr.wrapped.add(span_name)
        if owner or attr in ("Pool", "_sweep_column"):
            setattr(holder, member, wrapped)
        else:
            for m, a in list(_bindings(modules, fn)):
                setattr(m, a, wrapped)
    checks = getattr(mods.get("registry"), "CHECKS", None) or {}
    if "registry.verify" in tr.wrapped:
        tr.wrapped.update("registry.verify:" + row for row in checks)
    if "conjecture.sweep" in tr.wrapped:
        tr.wrapped.update("conjecture.sweep:" + case for case in CASES)
    os.register_at_fork(after_in_child=tr._after_fork)
    return tr


def _per_key(tr, prefix, fn, key):
    """One span name per value of the first argument (row id, sweep case)."""
    cache = {}

    def traced(*args, **kwargs):
        value = args[0] if args else kwargs.get(key)
        inner = cache.get(value)
        if inner is None:
            inner = cache[value] = tr.span(tr.nid(prefix + str(value)), fn)
        return inner(*args, **kwargs)

    return functools.update_wrapper(traced, fn)


def _traced_mul(tr, fn):
    inner = tr.span(tr.nid("poly.mul"), fn)
    counters = tr.counters

    def traced(self, other):
        counters[TERM_PRODUCTS] += _nonzeros(self) * _nonzeros(other)
        return inner(self, other)

    return functools.update_wrapper(traced, fn)


def _traced_pool(tr, pool_cls):
    """A Pool whose result iterators time how long the caller waits, and
    which adds the CPU of its reaped workers to the POOL_CPU counter."""
    wait = tr.nid("conjecture.pool_wait")

    def child_cpu():
        ru = resource.getrusage(resource.RUSAGE_CHILDREN)
        return ru.ru_utime + ru.ru_stime

    class TracedPool:
        def __init__(self, *args, **kwargs):
            self._cpu0 = child_cpu()
            self._pool = pool_cls(*args, **kwargs)

        def __enter__(self):
            self._pool.__enter__()
            return self

        def __exit__(self, *exc):
            try:
                return self._pool.__exit__(*exc)
            finally:
                tr.counters[POOL_CPU] += child_cpu() - self._cpu0

        def imap(self, *args, **kwargs):
            return tr.iterate(wait, self._pool.imap(*args, **kwargs))

        def __getattr__(self, attr):
            return getattr(self._pool, attr)

    return TracedPool


def _column_hook(tr, fn):
    """In a pool worker, write the spans out after every column."""

    def traced(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            if os.getpid() != tr.main_pid and tr.current < 0:
                tr.dump()

    return functools.update_wrapper(traced, fn)

