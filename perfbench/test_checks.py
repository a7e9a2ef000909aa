"""Tests of the benchmark's own checks and oracle; qkoshy is not needed.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import itertools
import random
import unittest
from array import array
from math import comb

import checks
import layers
import oracle
import speed
import workloads


def render(c):
    """qkoshy's text form of a coefficient list, for building payloads."""
    terms = []
    for i, x in enumerate(c):
        if not x:
            continue
        mag = abs(x)
        body = (str(mag) if i == 0 else ("q" if mag == 1 else "%d*q" % mag) if i == 1
                else ("q^%d" % i if mag == 1 else "%d*q^%d" % (mag, i)))
        terms.append(("-" + body if x < 0 else body) if not terms
                     else ("+ " if x > 0 else "- ") + body)
    return " ".join(terms) or "0"


def show_payload(subject, args, coeffs):
    return {"subject": subject, "args": [str(a) for a in args], "value": render(coeffs)}


class OracleKnownValues(unittest.TestCase):
    def test_gaussian_binomial(self):
        self.assertEqual(oracle.gauss(4, 2), [1, 1, 2, 1, 1])
        self.assertEqual(oracle.gauss(5, 0), [1])
        self.assertEqual(oracle.gauss(3, 4), [])
        for m in range(9):
            for k in range(m + 1):
                g = oracle.gauss(m, k)
                self.assertEqual(g, oracle.trim(g))
                self.assertEqual(oracle.peval(g, 1), comb(m, k))
                for x in (2, 3, 7):
                    self.assertEqual(oracle.peval(g, x), oracle.eval_gauss(m, k, x))

    def test_catalan_at_one(self):
        want = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]
        self.assertEqual([oracle.catalan(n) for n in range(11)], want)
        self.assertEqual([oracle.peval(oracle.q_catalan(n), 1) for n in range(11)], want)
        self.assertEqual(oracle.q_catalan(3), [1, 0, 1, 1, 1, 0, 1])

    def test_product_forms_agree_with_pascal(self):
        for n in range(1, 8):
            self.assertEqual(oracle.peval(oracle.q_catalan(n), 3), oracle.eval_q_catalan(n, 3))
            for j in range(1, 4):
                b = oracle.q_ballot(j, n)
                self.assertEqual(oracle.peval(b, 2), oracle.eval_q_ballot(j, n, 2))
                self.assertEqual(oracle.peval(b, 1), oracle.ballot_number(n, j))
                for r in range(1, n + 1):
                    self.assertEqual(oracle.peval(oracle.t_term(r, n, j), 2),
                                     oracle.eval_t_term(r, n, j, 2))
        self.assertEqual(oracle.q_ballot(1, 4), oracle.q_catalan(4))

    def test_inexact_division_is_refused(self):
        with self.assertRaises(ValueError):
            oracle.pdiv_one_minus([1, 1], 3)
        self.assertEqual(oracle.pdiv_one_minus([1, 0, -1], 2), [1])

    def test_shape_scans(self):
        self.assertTrue(oracle.is_unimodal([0, 1, 3, 3, 1]))
        self.assertFalse(oracle.is_unimodal([1, 2, 1, 2, 1]))
        self.assertFalse(oracle.is_unimodal([1, 0, 1]))
        self.assertTrue(oracle.is_reciprocal([0, 0, 1, 2, 1]))
        self.assertFalse(oracle.is_reciprocal([1, 2, 2]))

    def test_sweep_cell_counts_match_a_walk_of_the_grid(self):
        for case, m_max, n_max, j_max in itertools.product(
                ("odd-n", "even-n"), (1, 5, 12, 70), (1, 4, 9, 65), (1, 2, 7, 10)):
            walk = 0
            for n in range(1 if case == "odd-n" else 2, n_max + 1, 2):
                js = [None] if case == "odd-n" else list(range(2, j_max + 1, 2))
                walk += sum(len(js) for m in range(n, m_max + 1))
            if case == "odd-n":
                walk += sum((n - 1) // 2 for n in range(1, min(n_max, 60) + 1, 2))
            self.assertEqual(oracle.sweep_cells(case, m_max, n_max, j_max), walk,
                             (case, m_max, n_max, j_max))

    def test_row_cell_counts_match_a_walk_of_the_domain(self):
        domains = {
            "upeak-label": (("n", "m"), lambda n, m: m <= n + 1),
            "lemma2": (("n", "m", "r"), lambda n, m, r: 1 <= m <= n and 1 <= r <= m),
            "t-forms": (("n", "r"), lambda n, r: n >= 1 and 1 <= r <= min(n, (n + 1) // 2)),
            "theorem1-odd": (("n", "r"), lambda n, r: n % 2 == 1 and 1 <= r <= (n + 1) // 2),
            "tj-poly": (("n", "r", "j"),
                        lambda n, r, j: n >= 1 and j >= 1 and 1 <= r <= min(n, (n + j) // 2)),
            "iepar": (("n", "r"), lambda n, r: n >= 2 and 0 <= r <= min(n - 1, (n + 1) // 2)),
            "qlucas": (("m", "k", "d"), lambda m, k, d: m >= 0 and 0 <= k <= m and d >= 2),
        }
        rng = random.Random(7)
        for row, (names, inside) in domains.items():
            for _ in range(20):
                params = {}
                for name in names:
                    lo = rng.randint(-2, 6)
                    params[name] = [lo, lo + rng.randint(0, 9)]
                walk = sum(1 for cell in itertools.product(
                    *(range(params[k][0], params[k][1] + 1) for k in names)) if inside(*cell))
                self.assertEqual(oracle.row_cells(row, params), walk, (row, params))


class ChecksRejectWrongReports(unittest.TestCase):
    def good_verify(self):
        return [{"identity": "koshy", "params": {"n": [1, 20]}, "status": "pass",
                 "counterexample": None, "cells_checked": 20, "elapsed_ms": 3},
                {"identity": "andrews", "params": {"n": [1, 20]}, "status": "pass",
                 "counterexample": None, "cells_checked": 20, "elapsed_ms": 9}]

    def test_verify(self):
        ids, bounds = ("koshy", "andrews"), {"n": (1, 20)}
        self.assertEqual(checks.check_verify(self.good_verify(), ids, bounds), [])
        failed = self.good_verify()
        failed[1]["status"] = "fail"
        self.assertTrue(checks.check_verify(failed, ids, bounds))
        short = self.good_verify()
        short[0]["cells_checked"] -= 1
        self.assertTrue(checks.check_verify(short, ids, bounds))
        moved = self.good_verify()
        moved[0]["params"]["n"] = [1, 19]
        self.assertTrue(checks.check_verify(moved, ids, bounds))
        self.assertTrue(checks.check_verify(self.good_verify()[:1], ids, bounds))

    def test_sweep(self):
        grid = workloads.SWEEP_GRIDS["even-n"]
        good = dict(checks.expected_sweep("even-n", grid), elapsed_ms=1234)
        self.assertEqual(checks.check_sweep(good, "even-n", grid), [])
        for key, value in (("verified_cells", good["verified_cells"] + 1),
                           ("status", "fail"),
                           ("counterexamples", [{"params": {"m": 9, "n": 4, "j": 2}}])):
            self.assertTrue(checks.check_sweep(dict(good, **{key: value}), "even-n", grid), key)
        self.assertTrue(checks.check_sweep({k: v for k, v in good.items() if k != "elapsed_ms"},
                                           "even-n", grid))

    def test_sampled_polynomial_with_one_coefficient_changed(self):
        cases = [
            ("qbinom", (9, 4), oracle.gauss(9, 4)),
            ("qcatalan", (6,), oracle.q_catalan(6)),
            ("qballot", (3, 5), oracle.q_ballot(3, 5)),
            ("tterm", (2, 7, 1), oracle.t_term(2, 7, 1)),
            ("conjecture-poly", ("even-n", 9, 4, 2), oracle.conjecture_poly("even-n", 9, 4, 2)),
        ]
        for subject, args, coeffs in cases:
            self.assertEqual(checks.check_show(subject, args, show_payload(subject, args, coeffs)),
                             [], subject)
            for i in (0, len(coeffs) // 2, len(coeffs) - 1):
                bad = list(coeffs)
                bad[i] += 1
                problems = checks.check_show(subject, args, show_payload(subject, args, bad))
                self.assertTrue(problems, (subject, i))

    def test_enumerations(self):
        dyck = ["".join(w) for w in itertools.product("UD", repeat=8) if oracle.is_dyck(w)]
        self.assertEqual(checks.check_enum("dyck", (4,), (), dyck), [])
        self.assertTrue(checks.check_enum("dyck", (4,), (), dyck[1:]))
        self.assertTrue(checks.check_enum("dyck", (4,), (), dyck + dyck[:1]))
        elevated = ["U" + w + "D" for w in dyck]
        self.assertEqual(checks.check_enum("elevated", (4,), (), elevated), [])
        self.assertTrue(checks.check_enum("elevated", (4,), (), elevated[:-1]))
        self.assertTrue(checks.check_enum("elevated", (4,), (), elevated[:-1] + ["UUDDUUDDUD"]))
        parts = ["[%s]" % ",".join(map(str, p)) for p in
                 itertools.combinations_with_replacement(range(4, 0, -1), 2)]
        self.assertEqual(checks.check_enum("partitions", (4, 2), (), parts), [])
        self.assertTrue(checks.check_enum("partitions", (4, 2), ("--strict",), parts))

    def test_parse_poly_round_trip(self):
        for c in ([], [5], [0, 1], [1, -1], [-3, 0, 0, 1], [0, 0, 2, -7, 1]):
            self.assertEqual(checks.parse_poly(render(c)), c)


class SelfTime(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        meta = {"names": ["cli.run", "poly.mul", "qfuncs.q_binomial"],
                "counters": [6, 0, 0, 0.0], "wrapped": ["cli.run", "poly.mul"],
                "q_binomial_cache": [3, 1], "import_s": 0.25}
        spans = [array("i", [0, 2, 1, 1]), array("i", [-1, 0, 1, 0]),
                 array("d", [0.0, 1.0, 1.5, 5.0]), array("d", [10.0, 4.0, 2.0, 6.0])]
        stats = layers.ProcessStats()
        stats.add_process(meta, spans)
        self.assertEqual(stats.value("cli.run.self_s"), 6.0)
        self.assertEqual(stats.value("poly.mul.self_s"), 1.5)
        self.assertEqual(stats.value("poly.mul.calls"), 2)
        self.assertEqual(stats.value("poly.mul.term_products"), 6)
        self.assertEqual(stats.value("cli.import_s"), 0.25)
        self.assertIsNone(stats.value("qfuncs.q_binomial.self_s"))   # not wrapped: missing


class SpeedKernel(unittest.TestCase):
    def test_fixed_work(self):
        # the scale of every reported time rests on this work staying the same
        self.assertEqual(speed._gauss(4, 2), [1, 1, 2, 1, 1])
        self.assertEqual(speed._gauss(64, 32), oracle.gauss(64, 32))
        self.assertEqual(speed._kernel(), 161298506976221724845430)
        self.assertGreater(speed.calibrate(), 0)


if __name__ == "__main__":
    unittest.main()
