"""The benchmark's workloads: the qkoshy invocations of one round, the
checks on their outputs, and the seeded sample of cells checked against
the oracle once per run.

Each grid and bound below is cut from qkoshy's defaults so that a round
takes a few seconds and keeps each layer's share of the work; README.md
says why each was chosen.
"""

from dataclasses import dataclass

import checks
import oracle

SWEEP_GRIDS = {
    "odd-n": {"m_max": 80, "n_max": 45, "j_max": 10},
    "even-n": {"m_max": 64, "n_max": 40, "j_max": 10},
}

ALGEBRA_N = (1, 26)
ALGEBRA_ROWS = ("koshy", "lassalle", "lassalle-transform", "andrews", "t-forms",
                "theorem1-even", "theorem1-odd", "cyclo-div", "qballot-forms",
                "qballot-koshy", "tj-poly", "brunetti-instance")
NEGQ_R = (1, 24)
NEGQ_ROWS = ("theorem1-negq", "tj-negq")
QLUCAS_M = (0, 40)

ENUM_GROUPS = (
    (("tower-ie", "tower-closed", "lemma1", "lemma2", "ballot-lassalle", "maj-ballot",
      "succ-ranks", "partheo", "iepar"), (1, 7)),
    (("upeak-label", "upeak-gf", "maj-catalan"), (0, 10)),
    (("invT",), (2, 9)),
)


@dataclass
class Invocation:
    argv: list                      # arguments after `qkoshy`
    check: object                   # payload -> list of problems


@dataclass
class Workload:
    name: str
    round: list
    samples: object                 # random.Random -> [Invocation]


def _bounds_argv(bounds):
    out = []
    for name, (lo, hi) in bounds.items():
        out += ["--" + name, "%d..%d" % (lo, hi)]
    return out


def verify_invocation(ids, bounds):
    argv = ["verify"]
    for ident in ids:
        argv += ["--id", ident]
    argv += _bounds_argv(bounds) + ["--format", "json", "--jobs", "1"]
    return Invocation(argv, lambda payload: checks.check_verify(payload, ids, bounds))


def sweep_invocation(case, jobs):
    grid = SWEEP_GRIDS[case]
    argv = ["sweep", "--case", case, "--m-max", str(grid["m_max"]),
            "--n-max", str(grid["n_max"]), "--j-max", str(grid["j_max"]),
            "--format", "json", "--jobs", str(jobs)]
    return Invocation(argv, lambda payload: checks.check_sweep(payload, case, grid))


def show_invocation(subject, args):
    argv = ["show", subject] + [str(a) for a in args] + ["--format", "json"]
    return Invocation(argv, lambda payload: checks.check_show(subject, args, payload))


def enum_invocation(subject, args, flags=()):
    argv = ["enum", subject] + [str(a) for a in args] + list(flags) + ["--format", "json"]
    return Invocation(argv, lambda payload: checks.check_enum(subject, args, flags, payload))


def nonnegative_t_term(r, n):
    """A consequence cell of the odd-n sweep: T_r(n) for odd n >= 2r+1 has
    nonnegative coefficients, as a polynomial the oracle builds."""
    inv = show_invocation("tterm", (r, n, 1))
    inner = inv.check

    def check(payload):
        problems = inner(payload)
        if not problems and any(c < 0 for c in checks.parse_poly(payload["value"])):
            problems.append("a negative coefficient in a consequence cell")
        return problems

    inv.check = check
    return inv


def sweep_samples(rng):
    out = []
    for case, grid in SWEEP_GRIDS.items():
        top = min(grid["m_max"], grid["n_max"])
        if case == "odd-n":
            n = rng.randrange(1, top + 1, 2)
            args = (case, rng.randint(n, grid["m_max"]), n)
        else:
            n = rng.randrange(2, top + 1, 2)
            args = (case, rng.randint(n, grid["m_max"]), n,
                    rng.randrange(2, grid["j_max"] + 1, 2))
        out.append(show_invocation("conjecture-poly", args))
    n = rng.randrange(3, min(SWEEP_GRIDS["odd-n"]["n_max"], oracle.CONSEQUENCE_N_CAP) + 1, 2)
    out.append(nonnegative_t_term(rng.randint(1, (n - 1) // 2), n))
    return out


def algebra_samples(rng):
    lo, hi = ALGEBRA_N
    m = rng.randint(1, 2 * hi)
    n, nb, jb = rng.randint(lo, hi), rng.randint(lo, hi), rng.randint(1, 6)
    nt, jt = rng.randint(lo, hi), rng.randint(1, 6)
    rt = rng.randint(1, min(nt, (nt + jt) // 2))
    return [
        show_invocation("qbinom", (m, rng.randint(0, m))),
        show_invocation("qcatalan", (n,)),
        show_invocation("qballot", (jb, nb)),
        show_invocation("tterm", (rt, nt, jt)),
    ]


def enum_samples(rng):
    max_part = rng.randint(1, 8)
    strict = rng.random() < 0.5
    length = rng.randint(0, max_part if strict else 6)
    return [
        enum_invocation("dyck", (rng.randint(1, 8),)),
        enum_invocation("elevated", (rng.randint(1, 9),)),
        enum_invocation("partitions", (max_part, length), ("--strict",) if strict else ()),
    ]


def _workloads():
    sweeps = lambda jobs: [sweep_invocation(case, jobs) for case in SWEEP_GRIDS]
    algebra = [
        verify_invocation(ALGEBRA_ROWS, {"n": ALGEBRA_N}),
        verify_invocation(NEGQ_ROWS, {"r": NEGQ_R}),
        verify_invocation(("qlucas",), {"m": QLUCAS_M}),
    ]
    enum = [verify_invocation(ids, {"n": n}) for ids, n in ENUM_GROUPS]
    return {w.name: w for w in (
        Workload("sweep", sweeps(1), sweep_samples),
        Workload("sweep-jobs2", sweeps(2), sweep_samples),
        Workload("registry-algebra", algebra, algebra_samples),
        Workload("registry-enum", enum, enum_samples),
    )}


WORKLOADS = _workloads()
