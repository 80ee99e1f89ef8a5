"""Self-tests of the benchmark's metric math.

    python3 perfbench/test_metrics.py

The digest tests build and run vgbench (the first build takes about a
minute).
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics  # noqa: E402
import run  # noqa: E402


def row(table, name, base, test):
    return {"table": table, "name": name, "base": base, "test": test}


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        data = list(range(1, 101))
        self.assertEqual(metrics.percentile(data, 50), 50)
        self.assertEqual(metrics.percentile(data, 99), 99)
        self.assertEqual(metrics.percentile(data, 100), 100)
        self.assertEqual(metrics.percentile([7], 50), 7)
        self.assertEqual(metrics.percentile([3, 1, 2], 50), 2)

    def test_tail_has_ten_samples_beyond(self):
        # 20 samples: p50 leaves exactly 10 above it.
        self.assertEqual(metrics.tail_percentile(20), 50.0)
        self.assertIsNone(metrics.tail_percentile(19))
        self.assertEqual(metrics.tail_percentile(42), 75.0)
        self.assertEqual(metrics.tail_percentile(288), 95.0)
        self.assertEqual(metrics.tail_percentile(1000), 99.0)
        self.assertEqual(metrics.tail_percentile(999), 95.0)
        # 99.9% of 20000 is 19980: exactly 20 beyond, despite the
        # float product being a hair above an integer.
        self.assertEqual(metrics.tail_percentile(20000), 99.9)
        for n in (20, 42, 288, 1000, 6144, 20000):
            p = metrics.tail_percentile(n)
            data = list(range(n))
            above = sum(1 for x in data if x > metrics.percentile(data, p))
            self.assertGreaterEqual(above, 10)


class ErrorRate(unittest.TestCase):
    def test_ratio(self):
        self.assertEqual(metrics.error_rate(0, 10), 0.0)
        self.assertEqual(metrics.error_rate(1, 4), 0.25)

    def test_needs_attempts(self):
        with self.assertRaises(ValueError):
            metrics.error_rate(0, 0)

    def test_outcome_counts_checks_and_digests(self):
        rep = {"attempted": 10, "failed": 0, "digest": "a",
               "checks": [["x", True]]}
        bad = dict(rep, digest="b", failed=1, checks=[["y", False]])
        self.assertEqual(run.outcome([rep, rep], None), (20, 0, []))
        attempted, failed, problems = run.outcome([rep, bad], None)
        self.assertEqual((attempted, failed), (20, 1))
        self.assertIn("y", problems)
        self.assertIn("sim_digest differs between repetitions", problems)


class PaperError(unittest.TestCase):
    def test_overhead_rows(self):
        # Exactly the paper's overheads give no error.
        rows = [row("t2", "null syscall", 0.091, 0.355),
                row("t3", "0 KB", 166846, 36164),
                row("t5", "postmark", 14.30, 67.50)]
        self.assertAlmostEqual(metrics.paper_err_pct(rows), 0.0)
        # Twice the Table 2 overhead is a 100% error; the mean over
        # three terms is a third of that.
        rows[0] = row("t2", "null syscall", 0.091, 0.710)
        self.assertAlmostEqual(metrics.paper_err_pct(rows), 100.0 / 3)

    def test_figure2_compares_with_overlap(self):
        rows = [row("f2", "1 KB", 100.0, 80.0), row("f2", "1 MB", 100.0, 100.0)]
        self.assertAlmostEqual(metrics.paper_err_pct(rows), 10.0)

    def test_figure3_mean_and_worst(self):
        # Reductions of 10% and 30%: mean 20 vs 23, worst 30 vs 45.
        rows = [row("f3", "1 KB", 100.0, 70.0), row("f3", "1 MB", 100.0, 90.0)]
        want = 100.0 * ((3.0 / 23.0) + (15.0 / 45.0)) / 2
        self.assertAlmostEqual(metrics.paper_err_pct(rows), want)

    def test_figure4_counts_only_above_limit(self):
        rows = [row("f4", "1 KB", 100.0, 96.0)]
        self.assertAlmostEqual(metrics.paper_err_pct(rows), 0.0)
        rows = [row("f4", "1 KB", 100.0, 90.0)]  # 10% reduction
        self.assertAlmostEqual(metrics.paper_err_pct(rows), 100.0)

    def test_extensions_have_no_figure(self):
        rows = [row("ext", "module_read", 1.0, 3.0)]
        self.assertIsNone(metrics.paper_err_pct(rows))

    def test_faster_than_native(self):
        rows = [row("t2", "mmap", 1.0, 0.5), row("t4", "0 KB", 10, 20),
                row("f2", "1 KB", 10, 9), row("ext", "module_read", 2, 1),
                row("ext", "ghost fault shuffled vs sequential", 2, 1)]
        self.assertEqual(metrics.faster_than_native(rows),
                         ["t2 mmap", "t4 0 KB", "ext module_read"])


class FastestPhases(unittest.TestCase):
    def test_takes_each_phase_from_its_fastest_repetition(self):
        def rep(*machines):
            return {"machines": [{"run_s": list(m)} for m in machines]}

        def run_s(m):
            return m["run_s"]

        reps = [rep((1.0,), (5.0, 1.0)), rep((2.0,), (3.0, 2.0)),
                rep((1.5,), (4.0, 0.5))]
        self.assertEqual(metrics.fastest_phases(reps, run_s), 4.5)
        self.assertEqual(metrics.fastest_phases(reps[:1], run_s), 7.0)


class Digest(unittest.TestCase):
    """The simulated outputs repeat exactly for a seed and move with it,
    on every workload."""

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def digests(self, workload, seed):
        """The sim_digest of each repetition of one run."""
        reps, _breakdown, _final = run.run_vgbench(
            self.binary, workload, seed, 0, 0)
        return [r["digest"] for r in reps]

    def test_same_seed_same_digest_and_seed_changes_it(self):
        for workload in metrics.WORKLOADS:
            with self.subTest(workload=workload):
                first = self.digests(workload, 5)
                self.assertEqual(len(set(first)), 1)
                self.assertEqual(self.digests(workload, 5), first)
                self.assertNotEqual(self.digests(workload, 6)[0], first[0])


if __name__ == "__main__":
    unittest.main()
