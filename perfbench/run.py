"""Cold-process benchmark of qkoshy.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload in turn

Run from the root of a source checkout: the program is imported from
./src.  Every qkoshy invocation is a fresh process, started one at a time,
so every lru_cache starts empty, as it does for a user.  A run first
checks a seeded sample of cells against the independent oracle, then
repeats whole rounds of the workload's invocations for S seconds and
reports each metric over the rounds, its times scaled to a reference
machine speed measured between invocations (speed.py).  With --trace 1
it alternates untraced and traced rounds and reports the per-layer
metrics of the traced ones.  The
last line of stdout is the JSON result; the exit status is 1 when any
output was wrong.
"""

import argparse
import compileall
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks      # noqa: E402
import layers      # noqa: E402
import speed       # noqa: E402
import workloads   # noqa: E402

LAUNCHER = os.path.join(HERE, "launch.py")
INVOCATION_LIMIT_S = 150
END_TO_END = (("verdict_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB"))


def _clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    def __init__(self, root, tmp):
        self.root = root
        self.tmp = tmp
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.calibrations = []
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("QKOSHY_JOBS", "PERFBENCH_TRACE")}
        self.env["PYTHONPATH"] = os.path.join(root, "src")

    def invoke(self, inv, trace_prefix=None):
        """Run one qkoshy process to its end; returns its measurements."""
        env = self.env
        if trace_prefix:
            env = dict(env, PERFBENCH_TRACE=trace_prefix)
        out_path = os.path.join(self.tmp, "stdout")
        err_path = os.path.join(self.tmp, "stderr")
        self.attempted += 1
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            spawned = _clock()
            proc = subprocess.Popen([sys.executable, LAUNCHER] + inv.argv, cwd=self.root,
                                    env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.alarm(INVOCATION_LIMIT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.alarm(0)
                signal.signal(signal.SIGALRM, previous)
            ended = _clock()
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        ready = None
        for line in stderr.splitlines():
            if line.startswith("perfbench-ready "):
                ready = float(line.split()[1])
        problems = []
        if proc.returncode != 0:
            problems.append("exit status %d: %s" % (proc.returncode, stderr.strip()[-400:]))
        elif ready is None:
            problems.append("no start marker on stderr")
        else:
            payload, problems = checks.load_json(stdout)
            if not problems:
                problems = inv.check(payload)
        if problems:
            self.failed += 1
            self.problems += ["qkoshy %s: %s" % (" ".join(inv.argv), p) for p in problems]
        return {
            "verdict_s": ended - spawned,
            # a process that never reached cli.run spent all its time setting up
            "setup_s": (ready if ready is not None else ended) - spawned,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        }

    def round(self, invocations, trace=False, tag=""):
        """One pass over the workload's invocations; sums per round, and the
        per-layer statistics when traced."""
        stats = layers.ProcessStats() if trace else None
        total = {"verdict_s": 0.0, "setup_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0}
        for k, inv in enumerate(invocations):
            prefix = os.path.join(self.tmp, "trace-%s-%d" % (tag, k)) if trace else None
            if not trace:
                self.calibrations.append(speed.calibrate())
            m = self.invoke(inv, prefix)
            for key in ("verdict_s", "setup_s", "cpu_s"):
                total[key] += m[key]
            total["peak_rss_mb"] = max(total["peak_rss_mb"], m["peak_rss_mb"])
            if trace:
                layers.read_invocation(prefix, stats)
        if not trace:
            self.calibrations.append(speed.calibrate())
        return total, stats


def run_workload(name, seed, seconds, trace, root):
    wl = workloads.WORKLOADS[name]
    tmp = os.path.join(HERE, "out", "tmp.%d" % os.getpid())
    os.makedirs(tmp, exist_ok=True)
    try:
        runner = Runner(root, tmp)
        # the sample goes first: outside the timed rounds, and it brings the
        # interpreter and the package into the page cache before round one
        for inv in wl.samples(random.Random(seed)):
            runner.invoke(inv)
        speed.calibrate()
        rounds, traced = [], []
        began = _clock()
        longest = 0.0
        while True:
            t0 = _clock()
            if trace and len(rounds) > len(traced):
                total, stats = runner.round(wl.round, trace=True, tag=str(len(traced)))
                traced.append((total, stats))
                shutil.rmtree(tmp)
                os.makedirs(tmp)
            else:
                rounds.append(runner.round(wl.round)[0])
            longest = max(longest, _clock() - t0)
            done = rounds and (traced or not trace)
            if done and _clock() - began + longest > seconds:
                break
        factor = speed.REFERENCE_S / statistics.fmean(runner.calibrations)
        metrics = _end_to_end(rounds, factor) if not trace else _per_layer(rounds, traced)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }, runner.problems, {"rounds": rounds, "traced": [t for t, _ in traced],
                         "calibrations": runner.calibrations, "speed_factor": factor}


def _end_to_end(rounds, factor):
    """verdict_s and cpu_s: mean over rounds; setup_s: median over rounds;
    each times `factor`, which puts them at the reference speed (speed.py).
    peak_rss_mb: largest over the run, as measured."""
    out = {}
    for key, unit in END_TO_END:
        values = [r[key] for r in rounds]
        if key == "peak_rss_mb":
            value = max(values)
        elif key == "setup_s":
            value = statistics.median(values) * factor
        else:
            value = statistics.fmean(values) * factor
        out[key] = {"value": value, "unit": unit}
    return out


def _per_layer(rounds, traced):
    out = {}
    for metric, (unit, _, _) in layers.METRICS.items():
        values = [stats.value(metric) for _, stats in traced]
        if any(v is None for v in values):
            out[metric] = {"value": None, "unit": unit, "missing": True}
        else:
            out[metric] = {"value": statistics.median_low(values), "unit": unit}
    overhead = (statistics.fmean(t["verdict_s"] for t, _ in traced)
                - statistics.fmean(r["verdict_s"] for r in rounds))
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return out


def _checkout_root():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qkoshy", "__init__.py")):
        sys.stderr.write("error: run from the root of a qkoshy checkout "
                         "(no src/qkoshy under %s)\n" % root)
        sys.exit(2)
    # byte-compile once, as an install would, so no run pays for it
    if not compileall.compile_dir(os.path.join(root, "src", "qkoshy"), quiet=1):
        sys.stderr.write("error: src/qkoshy does not compile\n")
        sys.exit(2)
    return root


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = _checkout_root()
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    summary = {}
    for name in names:
        result, problems, raw = run_workload(name, args.seed, args.seconds, args.trace, root)
        for p in problems:
            print("FAIL %s: %s" % (name, p), file=sys.stderr)
        print("%s: attempted %d, failed %d, rounds %d%s, speed factor %.4f" % (
            name, result["attempted"], result["failed"], len(raw["rounds"]),
            ", traced %d" % len(raw["traced"]) if args.trace else "", raw["speed_factor"]))
        for metric, m in result["metrics"].items():
            print("  %-44s %14s %s" % (metric, m["value"], m["unit"]))
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        with open(os.path.join(HERE, "out", "%s.seed%d.trace%d.json"
                               % (name, args.seed, args.trace)), "w") as fh:
            json.dump(dict(result, **raw), fh, indent=1)
        summary[name] = result
    final = summary[names[0]] if len(names) == 1 else summary
    print(json.dumps(final))
    return 0 if all(r["correct"] for r in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
