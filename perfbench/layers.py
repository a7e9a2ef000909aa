"""Per-layer metrics from the span files of traced qkoshy processes.

A span's self time is its duration minus the part its child spans cover.
Counts come from the spans themselves or from counters the wrappers keep
at the same boundaries.  A metric whose function no longer exists in the
program is reported as missing (value null), never as zero.
"""

import glob
import json

import tracer

ROWS = (
    "koshy", "upeak-label", "upeak-gf", "lassalle", "lassalle-transform",
    "tower-ie", "tower-closed", "lemma1", "lemma2", "ballot-lassalle",
    "andrews", "t-forms", "theorem1-even", "theorem1-odd", "theorem1-negq",
    "cyclo-div", "invT", "partheo", "iepar", "qballot-forms", "qballot-koshy",
    "tj-poly", "tj-negq", "qlucas", "maj-catalan", "maj-ballot", "succ-ranks",
    "brunetti-instance",
)

# metric -> (unit, span name it needs, how it is computed)
METRICS = {}


def _metric(name, unit, span, kind):
    METRICS[name] = (unit, span, kind)


for _span in ("poly.mul", "poly.exact_div", "qfuncs.q_binomial", "qfuncs.t_term_poly",
              "dyckpaths.analyze"):
    _metric(_span + ".calls", "count", _span, "calls")
for _span in ("poly.mul", "poly.exact_div", "poly.addsub", "poly.unimodal_break_index",
              "poly.shape", "qfuncs.q_binomial", "qfuncs.t_term_poly", "qfuncs.t_term",
              "qfuncs.q_catalan", "qfuncs.q_ballot", "qfuncs.q_lucas_check",
              "dyckpaths.iter", "dyckpaths.analyze", "dyckpaths.labeled_gen",
              "dyckpaths.distribution", "dyckpaths.bijections", "partitions.enumerate",
              "partitions.sides", "cli.run"):
    _metric(_span + ".self_s", "s", _span, "self")
_metric("poly.mul.term_products", "count", "poly.mul", ("counter", tracer.TERM_PRODUCTS))
_metric("qfuncs.q_binomial.cache_hit_ratio", "ratio", "qfuncs.q_binomial", "hit_ratio")
_metric("qfuncs.q_binomial.cache_lookups", "count", "qfuncs.q_binomial", "lookups")
_metric("dyckpaths.paths", "count", "dyckpaths.iter", ("counter", tracer.PATHS))
_metric("partitions.enumerated", "count", "partitions.enumerate",
        ("counter", tracer.PARTITIONS))
for _row in ROWS:
    _metric("registry.%s.s" % _row, "s", "registry.verify:" + _row, "total")
    _metric("registry.%s.cell_max_s" % _row, "s", "registry.cell:" + _row, "max")
for _case in tracer.CASES:
    _metric("conjecture.%s.s" % _case, "s", "conjecture.sweep:" + _case, "total")
_metric("conjecture.consequence_s", "s", "conjecture.sweep:odd-n", "consequence")
_metric("conjecture.pool_wait_s", "s", "conjecture.pool_wait", "total")
_metric("conjecture.pool_cpu_s", "s", "conjecture.pool_wait", ("counter", tracer.POOL_CPU))
_metric("cli.import_s", "s", "cli.run", "import")


class ProcessStats:
    """Totals over the spans of one or more processes."""

    def __init__(self):
        self.calls = {}
        self.total = {}
        self.self_time = {}
        self.longest = {}
        self.counters = [0, 0, 0, 0.0]
        self.cache = [0, 0]
        self.consequence = 0.0
        self.import_s = 0.0
        self.wrapped = None
        self.spans = 0

    def add_process(self, meta, spans):
        names = meta["names"]
        name, parent, start, end = spans
        n = len(name)
        self.spans += n
        dur = [e - s for s, e in zip(start, end)]
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        sweeps = {i for i, nm in enumerate(names) if nm.startswith("conjecture.sweep:")}
        consequence = {i for i, nm in enumerate(names)
                       if nm in ("qfuncs.t_term_poly", "poly.shape")}
        in_sweep = [False] * n
        for i in range(n):
            p = parent[i]
            if p >= 0 and (in_sweep[p] or name[p] in sweeps):
                in_sweep[i] = True
                if name[i] in consequence and name[p] not in consequence:
                    self.consequence += dur[i]
        for i in range(n):
            key = names[name[i]]
            d = dur[i]
            self.calls[key] = self.calls.get(key, 0) + 1
            self.total[key] = self.total.get(key, 0.0) + d
            self.self_time[key] = self.self_time.get(key, 0.0) + d - child[i]
            if d > self.longest.get(key, 0.0):
                self.longest[key] = d
        for k, v in enumerate(meta["counters"]):
            self.counters[k] += v
        if meta.get("q_binomial_cache"):
            self.cache[0] += meta["q_binomial_cache"][0]
            self.cache[1] += meta["q_binomial_cache"][1]
        self.import_s += meta.get("import_s", 0.0)
        live = set(meta["wrapped"])
        self.wrapped = live if self.wrapped is None else self.wrapped & live

    def value(self, metric):
        unit, span, kind = METRICS[metric]
        if self.wrapped is not None and span not in self.wrapped:
            return None
        if kind == "calls":
            return self.calls.get(span, 0)
        if kind == "self":
            return self.self_time.get(span, 0.0)
        if kind == "total":
            return self.total.get(span, 0.0)
        if kind == "max":
            return self.longest.get(span, 0.0)
        if kind == "hit_ratio":
            lookups = sum(self.cache)
            return self.cache[0] / lookups if lookups else 0.0
        if kind == "lookups":
            return sum(self.cache)
        if kind == "consequence":
            return self.consequence
        if kind == "import":
            return self.import_s
        return self.counters[kind[1]]


def read_invocation(prefix, stats):
    """Add every process traced under `prefix` to `stats`."""
    for meta_path in sorted(glob.glob(glob.escape(prefix) + ".*.json")):
        with open(meta_path) as fh:
            meta = json.load(fh)
        # dump() writes the spans before the counters, so both exist
        stats.add_process(meta, tracer.read_spans(meta_path[:-len(".json")] + ".spans"))
