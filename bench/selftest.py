"""Self-tests of the benchmark's own checks.

Run from the root of a checkout: ``python3 bench/selftest.py``.
"""
from __future__ import annotations

import random
import unittest

import checks
import corpus
import pace as pace_module
import peres57
import run

kb = run.load_ksbound()


class OracleTest(unittest.TestCase):
    def setUp(self) -> None:
        self.ks = kb.load_catalog("kernaghan20")
        self.base = kb.default_base(self.ks)
        self.r = 0.0097
        self.eps, self.delta = checks.expected_rates(self.ks, self.base, self.r)
        self.conns = kb.build_stats(self.ks).m_all_pairs

    def sums(self) -> checks.RateSums:
        return checks.RateSums(self.eps, self.delta, self.conns)

    def summary(self, scale: float, trials: int = 10**6, min_defect: int = 1,
                delta_scale: float = 1.0) -> object:
        return kb.SimSummary(
            seed=0, trials=trials, r=self.r,
            context_error_counts=tuple(round(e * scale * trials) for e in self.eps),
            connection_mismatch_counts=(round(self.delta * delta_scale * trials),) * self.conns,
            total_defect=trials, min_trial_defect=min_defect)

    def test_exact_counts_pass(self) -> None:
        sums = self.sums()
        self.assertIsNone(sums.add(self.summary(1.0), 10**6))
        failure, worst, made = sums.check()
        self.assertIsNone(failure)
        self.assertLess(worst, 0.01)
        self.assertEqual(made, len(self.eps) + self.conns)

    def test_biased_summary_rejected(self) -> None:
        sums = self.sums()
        sums.add(self.summary(1.0, delta_scale=1.1), 10**6)
        self.assertIn("rate off the exact oracle", sums.check()[0])

    def test_summed_counters_catch_a_bias_one_op_hides(self) -> None:
        one = self.sums()
        biased = self.summary(1.0, trials=50_000, delta_scale=1.1)  # mismatches 10 % high
        one.add(biased, 50_000)
        self.assertIsNone(one.check()[0])
        run_sums = self.sums()
        for _ in range(50):
            run_sums.add(biased, 50_000)
        self.assertIn("rate off the exact oracle", run_sums.check()[0])

    def test_zero_defect_trial_rejected(self) -> None:
        failure = self.sums().add(self.summary(1.0, min_defect=0), 10**6)
        self.assertIn("min_trial_defect", failure)

    def test_wrong_trial_count_rejected(self) -> None:
        self.assertIn("counters do not match", self.sums().add(self.summary(1.0), 999))

    def test_real_engine_passes(self) -> None:
        sums = self.sums()
        for seed in (5, 6):
            model = kb.TrialModel(ks_set=self.ks, base=self.base, flip_rate=self.r, seed=seed)
            self.assertIsNone(sums.add(kb.simulate_model(model, 50_000), 50_000))
        self.assertIsNone(sums.check()[0])

    def test_one_zero_context_matches_analytic_epsilon(self) -> None:
        for d in (3, 4, 8):
            self.assertAlmostEqual(checks.context_error_rate(1, d, 0.1),
                                   kb.epsilon_analytic(0.1, d), places=12)


class IngestCheckTest(unittest.TestCase):
    def test_non_parse_error_flagged(self) -> None:
        failure = checks.check_ingest(kb, None, None, ValueError("invalid literal for int()"))
        self.assertTrue(failure.startswith("non-ParseError ValueError"))

    def test_parse_error_with_line_passes(self) -> None:
        ks, reports, exc = checks.ingest_op(kb, "ksset 1\nname x\ndim 2\n")
        self.assertIsInstance(exc, kb.ParseError)
        self.assertIsNone(checks.check_ingest(kb, ks, reports, exc))

    def test_parse_error_without_line_flagged(self) -> None:
        exc = kb.ParseError("bad", 3)
        exc.args = ("bad",)
        self.assertIn("without its line", checks.check_ingest(kb, None, None, exc))

    def test_valid_document_passes(self) -> None:
        res = checks.ingest_op(kb, kb.catalog_text("cabello18"))
        self.assertIsNone(checks.check_ingest(kb, *res))

    def test_digit_defect_classified(self) -> None:
        failure = checks.check_ingest(
            kb, None, None, ValueError("invalid literal for int() with base 10: '²'"))
        self.assertTrue(checks.is_known(failure))
        self.assertFalse(checks.is_known("non-ParseError KeyError: 'x'"))
        # an ASCII literal reaching int() is a new defect, not the known one
        self.assertFalse(checks.is_known(checks.check_ingest(
            kb, None, None, ValueError("invalid literal for int() with base 10: 'x9'"))))


class CliCheckTest(unittest.TestCase):
    def test_traceback_flagged(self) -> None:
        err = "Traceback (most recent call last):\n  File ...\nValueError: boom\n"
        failure = checks.check_cli("validate-malformed", None, 0, 1, "", err)
        self.assertEqual(failure, "traceback: ValueError: boom")
        self.assertFalse(checks.is_known(failure))  # a new crash makes the run incorrect

    def test_wrong_verdict_flagged(self) -> None:
        out = '{"set": "cabello18", "d_min": 0}'
        self.assertEqual(checks.check_cli("defect", "cabello18", 0, 0, out, ""),
                         "wrong defect verdict")

    def test_wrong_exit_code_flagged(self) -> None:
        self.assertIn("exit code", checks.check_cli("color", "cabello18", 2, 0, "{}", ""))

    def test_missing_json_fields_flagged(self) -> None:
        self.assertIn("lacks", checks.check_cli("stats", "cabello18", 0, 0, '{"n": 18}', ""))
        self.assertEqual(checks.check_cli("stats", "cabello18", 0, 0, "oops", ""),
                         "stdout is not JSON")

    def test_malformed_file_verdicts(self) -> None:
        def check(code: int, out: str, err: str) -> object:
            return checks.check_cli("validate-malformed", None, 0, code, out, err)

        self.assertIsNone(check(1, "", "error: f.ksset:7: unknown directive 'x'\n"))
        self.assertIsNotNone(check(1, "", "error: f\n"))
        self.assertIsNone(check(0, '{"valid": true}', ""))
        self.assertIsNotNone(check(0, '{"valid": false}', ""))
        self.assertIn("exit code", check(2, "", ""))


class Peres57Test(unittest.TestCase):
    def test_invariants(self) -> None:
        ks = kb.parse_document(peres57.peres57_document()).ks_set
        st = kb.build_stats(ks)
        self.assertTrue(kb.validate_orthogonality(ks).ok)
        self.assertEqual((st.n, st.N, st.M, st.m_all_pairs), (57, 40, 96, 96))
        self.assertIsNone(ks.m_override)
        self.assertFalse(kb.find_coloring(ks).satisfiable)
        self.assertEqual(kb.critical_rate(st.N, st.M, 3).floor4, 0.0032)
        self.assertEqual(kb.min_defect(ks).d_min, 1)

    def test_33_rays_16_triads(self) -> None:
        rays, contexts = peres57.peres57()
        self.assertEqual(len(peres57.peres_rays()), 33)
        self.assertEqual(sum(1 for c in contexts if max(c) < 33), 16)

    def test_set_texts_accepts_it(self) -> None:
        self.assertIn("peres57", run.set_texts(kb))


class PaceTest(unittest.TestCase):
    def test_samples_a_share_of_the_work(self) -> None:
        pace = pace_module.Pace()
        spent = pace.after(0.2)
        self.assertGreaterEqual(spent, pace_module.SHARE * 0.2)
        self.assertLess(spent, pace_module.SHARE * 0.2 + 0.05)
        self.assertGreater(pace.factor(), 0)

    def test_short_work_carries_over(self) -> None:
        pace = pace_module.Pace()
        pace.after(0.0)  # the first call always takes one slice
        slices = pace.slices
        spent = sum(pace.after(1e-4) for _ in range(5))
        self.assertLess(spent, 0.005)
        self.assertLessEqual(pace.slices - slices, 2)

    def test_factor_falls_back_to_the_whole_run(self) -> None:
        pace = pace_module.Pace()
        pace.after(0.02)
        self.assertEqual(pace.factor(-1e9, -1e9 + 1), pace.factor())


class CorpusTest(unittest.TestCase):
    def test_same_seed_same_corpus(self) -> None:
        texts = {name: kb.catalog_text(name) for name in run.CATALOG}
        a = corpus.corpus_pass(texts, random.Random(3))
        self.assertEqual(a, corpus.corpus_pass(texts, random.Random(3)))
        lines = sum(1 for text in texts.values() for line in text.splitlines()
                    if line.split("#", 1)[0].strip())
        self.assertEqual(len(a), len(texts) + lines)

    def test_mutation_changes_one_line(self) -> None:
        lines = kb.catalog_text("cabello18").splitlines()
        i = next(j for j, line in enumerate(lines) if line.startswith("vec"))
        out = corpus.mutate_line(lines, i, random.Random(0)).splitlines()
        self.assertEqual([j for j, (x, y) in enumerate(zip(lines, out)) if x != y], [i])


if __name__ == "__main__":
    unittest.main()
