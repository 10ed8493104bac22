"""Tests of fgperf/stats.py.  python3 -m unittest discover -s fgperf -p 'test_*.py'"""

import unittest

import stats


class MedianTest(unittest.TestCase):
    def test_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), stats.Stat(2.0, 3))
        self.assertEqual(stats.median([4, 1, 3, 2]), stats.Stat(2.5, 4))

    def test_empty_is_refused(self):
        with self.assertRaises(stats.TooFewSamples):
            stats.median([])


class BestTest(unittest.TestCase):
    def test_takes_the_fastest(self):
        self.assertEqual(stats.best([5, 3, 4, 9, 1, 7]), stats.Stat(1.0, 6))

    def test_empty_is_refused(self):
        with self.assertRaises(stats.TooFewSamples):
            stats.best([])


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 201))  # 1..200
        self.assertEqual(stats.percentile(xs, 50), stats.Stat(100.0, 200))
        self.assertEqual(stats.percentile(xs, 95), stats.Stat(190.0, 200))

    def test_order_does_not_matter(self):
        xs = [float(x) for x in range(100, 0, -1)]
        self.assertEqual(stats.percentile(xs, 90).value, 90.0)

    def test_refuses_fewer_than_ten_beyond(self):
        with self.assertRaises(stats.TooFewSamples):
            stats.percentile(range(199), 95)  # 9 samples beyond p95
        with self.assertRaises(stats.TooFewSamples):
            stats.percentile(range(99), 90)
        self.assertEqual(stats.percentile(range(1, 101), 90).n, 100)
        self.assertEqual(stats.percentile(range(1, 21), 50).value, 10.0)

    def test_bad_p(self):
        with self.assertRaises(ValueError):
            stats.percentile([1.0] * 50, 100)


class IqrShareTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        xs = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
        # statistics.quantiles(n=4) -> 11.75, 14.5, 17.25
        self.assertAlmostEqual(stats.iqr_share(xs), (17.25 - 11.75) / 14.5)


if __name__ == "__main__":
    unittest.main()
