"""Tests of perfbench's statistics: percentile rule, self time, fail_frac.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics as m  # noqa: E402

FIGURE = """
== Figure 4: test ==
+--------+----------+--------+------------+-------------+------------+---------------+
| workload | series | source | cycle (ns) | proc util % | net util % | miss lat (ns) |
+--------+----------+--------+------------+-------------+------------+---------------+
| FFT 64 | snooping | model  | 1          | 1.0         | 80.0       | 700           |
| FFT 64 | snooping | model  | 20         | 20.0        | 60.0       | 660           |
| FFT 64 | snooping | sim    | 20         | 21.0        | 61.0       | 600           |
| FFT 64 | directory | model | 20         | 20.0        | 40.0       | 500           |
| FFT 64 | directory | sim   | 20         | 21.0        | 41.0       | 500           |
+--------+----------+--------+------------+-------------+------------+---------------+
"""


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(m.percentile(values, 50), 50)
        self.assertEqual(m.percentile(values, 90), 90)
        self.assertEqual(m.percentile(values, 99), 99)
        self.assertEqual(m.percentile([7.0], 99), 7.0)
        self.assertEqual(m.percentile([3, 1, 2], 50), 2)

    def test_ten_samples_beyond(self):
        # p90 needs 100 samples (10 beyond it), p99 needs 1000.
        self.assertFalse(m.supports(99, 90))
        self.assertTrue(m.supports(100, 90))
        self.assertFalse(m.supports(999, 99))
        self.assertTrue(m.supports(1000, 99))
        self.assertIsNone(m.highest_supported(3))
        self.assertIsNone(m.highest_supported(99))
        self.assertEqual(m.highest_supported(100), 90.0)
        self.assertEqual(m.highest_supported(999), 90.0)
        self.assertEqual(m.highest_supported(1000), 99.0)
        self.assertEqual(m.highest_supported(10000), 99.9)

    def test_summarize_reports_count(self):
        s = m.summarize([5.0] * 50)
        self.assertEqual(s, {"n": 50, "p50": 5.0})
        s = m.summarize(list(range(200)))
        self.assertEqual(s["n"], 200)
        self.assertEqual(s["tail_p"], 90.0)
        self.assertEqual(s["tail"], 179)
        self.assertEqual(m.summarize([]), {"n": 0})

    def test_empty_percentile_raises(self):
        with self.assertRaises(ValueError):
            m.percentile([], 50)


class SelfTime(unittest.TestCase):
    def test_leaf_is_its_duration(self):
        spans = [["a", 1.0, 3.0, 1, 0, 1]]
        self.assertAlmostEqual(m.self_times(spans)[1], 2.0)

    def test_children_are_subtracted(self):
        spans = [["job", 0.0, 10.0, 1, 0, 1],
                 ["gen", 1.0, 3.0, 2, 1, 1],
                 ["census", 3.0, 8.0, 3, 1, 1]]
        selfs = m.self_times(spans)
        self.assertAlmostEqual(selfs[1], 3.0)
        self.assertAlmostEqual(selfs[2], 2.0)
        self.assertAlmostEqual(selfs[3], 5.0)

    def test_overlapping_children_count_once(self):
        # Parallel children (runner jobs of one phase) overlap.
        spans = [["replay", 0.0, 10.0, 1, 0, 1],
                 ["job", 1.0, 6.0, 2, 1, 2],
                 ["job", 2.0, 7.0, 3, 1, 3]]
        self.assertAlmostEqual(m.self_times(spans)[1], 4.0)

    def test_children_are_clipped_to_parent(self):
        spans = [["p", 0.0, 4.0, 1, 0, 1], ["c", 3.0, 9.0, 2, 1, 1]]
        self.assertAlmostEqual(m.self_times(spans)[1], 3.0)

    def test_grandchildren_belong_to_their_parent(self):
        spans = [["job", 0.0, 10.0, 1, 0, 1],
                 ["block", 0.0, 10.0, 2, 1, 1],
                 ["solve", 2.0, 5.0, 3, 2, 1]]
        selfs = m.self_times(spans)
        self.assertAlmostEqual(selfs[1], 0.0)
        self.assertAlmostEqual(selfs[2], 7.0)
        by_layer = m.layer_self_times(spans)
        self.assertAlmostEqual(by_layer["solve"], 3.0)
        self.assertAlmostEqual(sum(by_layer.values()), 10.0)

    def test_layer_sums(self):
        spans = [["a", 0.0, 1.0, 1, 0, 1], ["a", 5.0, 7.0, 2, 0, 2]]
        self.assertAlmostEqual(m.layer_self_times(spans)["a"], 3.0)


class FailFrac(unittest.TestCase):
    def test_counts(self):
        self.assertEqual(m.fail_frac(0, 10), 0.0)
        self.assertEqual(m.fail_frac(3, 12), 0.25)
        self.assertEqual(m.fail_frac(5, 5), 1.0)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            m.fail_frac(0, 0)
        with self.assertRaises(ValueError):
            m.fail_frac(6, 5)
        with self.assertRaises(ValueError):
            m.fail_frac(-1, 5)


class ModelError(unittest.TestCase):
    def test_pairs_the_20ns_rows(self):
        rows = m.parse_figure(FIGURE)
        self.assertEqual(len(rows), 5)
        # snooping: |660 - 600| / 600 = 10%; directory: 0%.
        self.assertAlmostEqual(m.model_error_pct(FIGURE), 5.0)

    def test_no_pair(self):
        self.assertIsNone(m.model_error_pct("no table"))


if __name__ == "__main__":
    unittest.main()
