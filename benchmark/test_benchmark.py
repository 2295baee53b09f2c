"""Tests of the benchmark's own references, inputs, recorders and
run statistics.

    python3 -m unittest discover -s benchmark -p 'test_*.py'
"""

from __future__ import annotations

import math
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402

import archfactor  # noqa: E402
from archfactor import hodge, regdet, verify  # noqa: E402

LN2PI = math.log(2 * math.pi)


def log_gc(z):
    return math.lgamma(z) - z * LN2PI


class LhsReference(unittest.TestCase):
    def test_point_c_is_inverse_gc(self):
        s = 1.7
        got, _ = reference.lhs_log(inputs.PRESET_DOCS["point_C"], s)
        self.assertAlmostEqual(got, -log_gc(s), places=13)

    def test_point_r_is_inverse_gr(self):
        s = 0.9
        got, _ = reference.lhs_log(inputs.PRESET_DOCS["point_R"], s)
        want = -(math.lgamma(s / 2) - (s / 2) * math.log(math.pi))
        self.assertAlmostEqual(got, want, places=13)

    def test_elliptic_c_telescopes(self):
        # GC(s)^2 / (GC(s) GC(s-1)) = (s-1)/2pi by GC(z+1) = (z/2pi) GC(z)
        for s in (1.3, 2.5, 7.25):
            got, _ = reference.lhs_log(inputs.PRESET_DOCS["elliptic_C"], s)
            self.assertAlmostEqual(got, math.log((s - 1) / (2 * math.pi)),
                                   places=12)

    def test_minus_split_shifts_gr(self):
        doc = {"dim": 1, "place": "real", "weights": [
            {"w": 2, "hpq": {"1,1": 1}, "middle_split": [0, 1]}]}
        s = 2.4  # weight 2 is inverted: GR(s - 1 + 1)^-1
        got, _ = reference.lhs_log(doc, s)
        want = -(math.lgamma(s / 2) - (s / 2) * math.log(math.pi))
        self.assertAlmostEqual(got, want, places=13)

    def test_refuses_left_of_poles(self):
        with self.assertRaises(ValueError):
            reference.lhs_log(inputs.PRESET_DOCS["P1_C"], 0.5)


class LerchReference(unittest.TestCase):
    def test_special_values(self):
        self.assertAlmostEqual(reference.lerch_log_det(1.0, 2 * math.pi),
                               LN2PI, places=14)
        self.assertAlmostEqual(reference.lerch_log_det(0.5, 2 * math.pi),
                               0.5 * math.log(2), places=14)

    def test_shift_by_one_removes_one_eigenvalue(self):
        for x in (0.3, 1.7, 12.0):
            for c in (math.pi, 2 * math.pi):
                diff = (reference.lerch_log_det(x + 1, c)
                        - reference.lerch_log_det(x, c))
                self.assertAlmostEqual(diff, -math.log(x / c), places=12)

    def test_agrees_with_series_oracle(self):
        for x in (0.05, 0.5, 1.0, 7.3, 40.0):
            for step in (1, 2):
                c = 2 * math.pi / step
                self.assertLess(abs(regdet.hurwitz_zeta_deriv0(x, c)
                                    - reference.lerch_log_det(x, c)), 1e-10)

    def test_check_progression(self):
        prog = (3, 2, 2, 4.5)
        want = 2 * reference.lerch_log_det(0.75, math.pi)
        self.assertEqual(reference.check_progression(prog, want, 1, want), [])
        self.assertTrue(reference.check_progression(prog, want + 1e-6, 1, want))
        self.assertTrue(reference.check_progression(prog, want, -1, want))
        self.assertTrue(reference.check_progression(prog, want, 1, want + 1e-3))


class ConstantProperties(unittest.TestCase):
    def test_complex_constant_is_zero(self):
        self.assertTrue(reference.constant_ok("complex", 3e-12, 1e-9))
        self.assertFalse(reference.constant_ok("complex", 0.5 * math.log(2), 1e-9))

    def test_real_constant_is_half_log_two_multiple(self):
        self.assertTrue(reference.constant_ok("real", -3 * 0.5 * math.log(2), 1e-9))
        self.assertFalse(reference.constant_ok("real", 0.2, 1e-9))

    def test_hold_on_presets_and_diamonds(self):
        docs = list(inputs.PRESET_DOCS.values())
        docs += [c.doc for c in inputs.diamonds(7)[7:15]]
        for doc in docs:
            rep = verify.verify_theorem(hodge.from_json_dict(doc)).to_json_dict()
            self.assertTrue(rep["ok"], doc["name"])
            self.assertEqual(reference.check_report(doc, rep), [], doc["name"])

    def test_check_report_catches_a_wrong_rhs(self):
        doc = inputs.PRESET_DOCS["elliptic_R"]
        rep = verify.verify_theorem(hodge.from_json_dict(doc)).to_json_dict()
        rep["samples"][1]["rhs_log"] += 1e-6
        self.assertTrue(reference.check_report(doc, rep))

    def test_check_report_catches_a_wrong_lhs(self):
        doc = inputs.PRESET_DOCS["P2_C"]
        rep = verify.verify_theorem(hodge.from_json_dict(doc)).to_json_dict()
        for sample in rep["samples"]:
            sample["lhs_log"] += 0.25
            sample["rhs_log"] += 0.25
        self.assertTrue(reference.check_report(doc, rep))


class SpectrumReference(unittest.TestCase):
    def test_point_multiplicities(self):
        point_c, point_r = (inputs.PRESET_DOCS[n] for n in ("point_C", "point_R"))
        self.assertEqual([reference.spectrum_multiplicity(point_c, 0, m)
                          for m in (1, 0, -1, -2)], [0, 1, 1, 1])
        self.assertEqual([reference.spectrum_multiplicity(point_r, 0, m)
                          for m in (1, 0, -1, -2)], [0, 1, 0, 1])

    def test_matches_theta_spectrum(self):
        for doc in [inputs.diamonds(2)[8].doc, inputs.sparse(2)[0].doc]:
            measure = archfactor.theta_spectrum(hodge.from_json_dict(doc))
            for parity in (0, 1):
                for m in range(-12, doc["dim"] + 2):
                    self.assertEqual(measure.multiplicity(parity, m),
                                     reference.spectrum_multiplicity(doc, parity, m))

    def test_expression_log(self):
        expr = {"gr": {"0": -1}, "gc": {}, "lin": {"-1": 1},
                "pre": {"a2": "1/2", "b2": "0", "api": "0", "bpi": "0"}}
        s = 1.5
        want = (0.5 * math.log(2) - (math.lgamma(s / 2) - s / 2 * math.log(math.pi))
                + math.log((s + 1) / (2 * math.pi)))
        got, _ = reference.expression_log(expr, s)
        self.assertAlmostEqual(got, want, places=13)


class Inputs(unittest.TestCase):
    def test_seed_decides_values_not_shapes(self):
        for gen in (inputs.diamonds, inputs.sparse):
            a, b, a2 = gen(1), gen(2), gen(1)
            self.assertEqual(a, a2)
            self.assertNotEqual(a, b)
            self.assertEqual([c.doc["dim"] for c in a], [c.doc["dim"] for c in b])
        self.assertEqual(inputs.oracle(3), inputs.oracle(3))
        self.assertEqual(inputs.cli(3), inputs.cli(3))
        self.assertNotEqual(inputs.cli(3), inputs.cli(4))

    def test_documents_are_valid(self):
        cases = inputs.diamonds(5) + inputs.sparse(5)
        cases += [inputs.Case(doc) for doc in inputs.PRESET_DOCS.values()]
        for case in cases:
            self.assertEqual(hodge.validate(hodge.from_json_dict(case.doc)), [])
        for name, doc in inputs.PRESET_DOCS.items():
            self.assertEqual(hodge.to_json_dict(hodge.preset(name)), doc)

    def test_known_faults_do_not_depend_on_seed(self):
        faults = [c for c in inputs.diamonds(1) if c.known_fault]
        self.assertEqual(faults, [c for c in inputs.diamonds(2) if c.known_fault])
        self.assertEqual([c.doc for c in faults], inputs.fault_diamonds())
        for seed in (1, 2):
            files, ops = inputs.cli(seed)
            names = [op.argv[-1] for op in ops if op.known_fault]
            self.assertEqual(sorted(names), sorted(inputs.FAULTY))
            self.assertEqual({n: files[n] for n in names}, inputs.FAULTY)

    def test_one_heaviest_input(self):
        for cases in (inputs.diamonds(1), inputs.sparse(1)):
            self.assertEqual(sum(c.heaviest for c in cases), 1)
        points = inputs.oracle(1)
        heavy = [p for p in points if p[4]]
        self.assertEqual(len(heavy), 1)
        x = [(s - first) / step for first, step, _, s, _ in points]
        self.assertEqual(min(x), x[points.index(heavy[0])])


class Recorders(unittest.TestCase):
    def test_counts_and_restore(self):
        original = verify.theta_spectrum
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(verify.theta_spectrum, original)
            verify.verify_theorem(hodge.preset("elliptic_R"))
        finally:
            tracer.restore()
        self.assertIs(verify.theta_spectrum, original)
        self.assertEqual(tracer.calls["verify.verify_theorem"], 1)
        self.assertEqual(tracer.calls["cyclic.theta_spectrum"], 1)
        # theta_spectrum's own calls plus one per weight from verify
        self.assertEqual(tracer.calls["cyclic.weight_spectrum"], 6)
        self.assertGreater(tracer.calls["gamma.multiply"], 0)
        self.assertGreater(tracer.calls["deligne.deligne_dim"], 0)
        self.assertEqual(tracer.counts["gamma.divisor_points"],
                         8 * (5 - (-30) + 1))
        root = [s for s in tracer.spans if s[2] == "verify.verify_theorem"]
        self.assertEqual(len(root), 1)
        children = [s for s in tracer.spans if s[1] == root[0][0]]
        self.assertTrue(children)
        self.assertGreaterEqual(tracer.self_ns["verify.verify_theorem"], 0)
        self.assertLess(tracer.self_ns["verify.verify_theorem"],
                        tracer.total_ns["verify.verify_theorem"])


class RunStatistics(unittest.TestCase):
    def test_quantiles_per_round_and_mean_of_heaviest(self):
        tally = run.Tally(10)
        for scale in (1.0, 2.0):  # a fast round, then a slow one
            for i in range(1, 11):
                tally.record("op", scale * i, True, [], heaviest=i == 10)
        e2e = tally.end_to_end([0.5, 0.1, 0.2], 1024.0)
        self.assertAlmostEqual(e2e["op_ms_p90"], 1.5 * 9.9e3)
        self.assertAlmostEqual(e2e["largest_op_ms"], 15e3)
        self.assertAlmostEqual(e2e["op_ms_p50"], 1.5 * 5.5e3)
        self.assertAlmostEqual(e2e["ops_per_s"], 20 / 165)
        self.assertEqual(e2e["setup_s"], 0.2)
        self.assertEqual(e2e["peak_rss_mb"], 1.0)

    def test_set_ups_are_spread_over_the_run(self):
        calls = []

        def one_round():
            calls.append("round")
            return 50

        def set_up():
            calls.append("set-up")
            return 0.0

        rounds, setups = run.timed_rounds(one_round, 0.0, set_up)
        self.assertEqual((rounds, len(setups)), (2, run.SETUP_REPEATS))
        self.assertEqual(calls[:2], ["set-up", "round"])
        calls.clear()
        rounds, setups = run.timed_rounds(one_round, 0.05, set_up)
        self.assertEqual(len(setups), run.SETUP_REPEATS)
        at = [i for i, call in enumerate(calls) if call == "set-up"]
        # rounds between every two set-ups
        self.assertTrue(all(b - a > 1 for a, b in zip(at, at[1:])))


if __name__ == "__main__":
    unittest.main()
