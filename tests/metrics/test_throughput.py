"""Unit tests for the performance metrics."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.metrics import (
    geomean,
    hmean_fairness,
    miss_reduction,
    mpki,
    normalized_throughput,
    throughput,
    weighted_speedup,
)
from repro.metrics.throughput import aggregate_host, host_rate


class TestThroughput:
    def test_sum_of_ipcs(self):
        assert throughput([1.0, 2.0, 0.5]) == pytest.approx(3.5)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            throughput([])

    def test_normalized(self):
        assert normalized_throughput([2.0, 2.0], [1.0, 1.0]) == pytest.approx(2.0)

    def test_normalized_zero_baseline_rejected(self):
        with pytest.raises(ConfigurationError):
            normalized_throughput([1.0], [0.0])


class TestWeightedSpeedup:
    def test_identity(self):
        assert weighted_speedup([1.0, 2.0], [1.0, 2.0]) == pytest.approx(2.0)

    def test_degradation_counts(self):
        # Each app at half its isolated speed -> WS = 1.0 for 2 apps.
        assert weighted_speedup([0.5, 1.0], [1.0, 2.0]) == pytest.approx(1.0)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigurationError):
            weighted_speedup([1.0], [1.0, 2.0])

    def test_zero_isolated_rejected(self):
        with pytest.raises(ConfigurationError):
            weighted_speedup([1.0], [0.0])


class TestHmeanFairness:
    def test_identity(self):
        assert hmean_fairness([2.0, 3.0], [2.0, 3.0]) == pytest.approx(1.0)

    def test_unfair_sharing_penalised(self):
        balanced = hmean_fairness([1.0, 1.0], [2.0, 2.0])
        skewed = hmean_fairness([1.9, 0.1], [2.0, 2.0])
        assert skewed < balanced

    def test_zero_ipc_rejected(self):
        with pytest.raises(ConfigurationError):
            hmean_fairness([0.0], [1.0])


class TestGeomean:
    def test_known_value(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_single_value(self):
        assert geomean([3.3]) == pytest.approx(3.3)

    def test_log_symmetry(self):
        assert geomean([0.5, 2.0]) == pytest.approx(1.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigurationError):
            geomean([1.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            geomean([])

    def test_matches_reference(self):
        values = [1.1, 0.9, 1.3, 1.0]
        expected = math.exp(sum(map(math.log, values)) / 4)
        assert geomean(values) == pytest.approx(expected)


class TestCacheMetrics:
    def test_mpki(self):
        assert mpki(50, 100_000) == pytest.approx(0.5)

    def test_mpki_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            mpki(1, 0)
        with pytest.raises(ConfigurationError):
            mpki(-1, 100)

    def test_miss_reduction_positive(self):
        assert miss_reduction(1000, 904) == pytest.approx(0.096)

    def test_miss_reduction_zero_baseline(self):
        assert miss_reduction(0, 10) == 0.0

    def test_miss_reduction_negative_means_regression(self):
        assert miss_reduction(100, 120) == pytest.approx(-0.2)


class TestHostRate:
    def test_plain_rate(self):
        assert host_rate(40_000, 2.0) == pytest.approx(20_000.0)

    def test_zero_duration_is_no_rate_not_a_crash(self):
        assert host_rate(40_000, 0.0) == 0.0

    def test_negative_work_rejected(self):
        with pytest.raises(ConfigurationError):
            host_rate(-1, 1.0)

    def test_negative_seconds_rejected(self):
        with pytest.raises(ConfigurationError):
            host_rate(1, -1.0)


class TestAggregateHost:
    def digest(self, instructions=10_000, accesses=12_000, wall=0.5):
        return {
            "wall_s": wall,
            "job_wall_s": wall,
            "instructions": instructions,
            "accesses": accesses,
            "instructions_per_s": instructions / wall,
            "accesses_per_s": accesses / wall,
        }

    def test_rates_recomputed_from_totals(self):
        aggregate = aggregate_host([self.digest(), self.digest()])
        assert aggregate["jobs"] == 2
        assert aggregate["instructions"] == 20_000
        assert aggregate["busy_s"] == pytest.approx(1.0)
        assert aggregate["instructions_per_s"] == pytest.approx(20_000.0)
        assert aggregate["accesses_per_s"] == pytest.approx(24_000.0)

    def test_stripped_share_of_records(self):
        stripped = dict(self.digest(), stripped_records=9_000, l1_filter_s=0.25)
        aggregate = aggregate_host([stripped, self.digest(), None])
        assert aggregate["stripped_records"] == 9_000
        assert aggregate["l1_filter_s"] == pytest.approx(0.25)
        assert aggregate["stripped_frac"] == pytest.approx(9_000 / 24_000)
        assert aggregate_host([])["stripped_frac"] == 0.0

    def test_none_digests_skipped(self):
        """Cached summaries carry ``host=None`` and must not distort rates."""
        aggregate = aggregate_host([None, self.digest(), None, {}])
        assert aggregate["jobs"] == 1
        assert aggregate["instructions_per_s"] == pytest.approx(20_000.0)

    def test_empty_sweep_has_zero_rates(self):
        aggregate = aggregate_host([])
        assert aggregate["jobs"] == 0
        assert aggregate["instructions_per_s"] == 0.0

    def test_utilisation_across_workers(self):
        # 2 jobs x 0.5s busy on 2 workers over 1s wall = 50% utilised.
        aggregate = aggregate_host(
            [self.digest(), self.digest()], workers=2, wall_s=1.0
        )
        assert aggregate["utilisation"] == pytest.approx(0.5)

    def test_utilisation_clamped_to_one(self):
        aggregate = aggregate_host(
            [self.digest(wall=5.0)], workers=1, wall_s=1.0
        )
        assert aggregate["utilisation"] == 1.0

    def test_falls_back_to_sim_wall_when_job_wall_missing(self):
        digest = self.digest()
        del digest["job_wall_s"]
        aggregate = aggregate_host([digest])
        assert aggregate["busy_s"] == pytest.approx(0.5)

    def test_zero_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            aggregate_host([], workers=0)

    def test_negative_wall_rejected(self):
        with pytest.raises(ConfigurationError):
            aggregate_host([], wall_s=-1.0)
