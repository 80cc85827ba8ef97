"""Tests of the run record's statistics fold and the simulation result record."""

import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.statistics import Z_95, RunOutcome, summarise
from repro.topology import MultiClusterSpec
from repro.topology.compile import compile_system

CORE = compile_system(MultiClusterSpec(m=4, cluster_heights=(1, 2, 2, 1), name="statistics"))
POOLS = np.asarray(CORE.pool_index_list)


def record(deliveries=(), *, done=True):
    """A run record of ``(source, dest, created, injected, delivered)`` rows."""
    rows = np.array(deliveries, dtype=np.float64).reshape(-1, 5)
    return RunOutcome(
        clusters=rows[:, 0].astype(np.int32),
        external=rows[:, 0] != rows[:, 1],
        created=rows[:, 2].copy(),
        injected=rows[:, 3].copy(),
        delivered=rows[:, 4].copy(),
        busy_time=np.zeros(CORE.total_slots),
        total_grants=np.zeros(CORE.total_slots, dtype=np.int64),
        touch_order=np.zeros(0, dtype=np.int32),
        now=float(rows[:, 4].max()) if len(rows) else 0.0,
        events=0,
        done=done,
    )


def latencies(values, clusters=None):
    """A record whose measured latencies are ``values``, all injected at 0."""
    values = np.asarray(values, dtype=np.float64)
    zeros = np.zeros(len(values))
    if clusters is None:
        clusters = np.zeros(len(values), dtype=np.int32)
    return record()._replace(
        clusters=np.asarray(clusters, dtype=np.int32),
        external=np.zeros(len(values), dtype=bool),
        created=zeros,
        injected=zeros,
        delivered=values,
    )


def fold(run, lambda_g=1e-4):
    return summarise(run, CORE, POOLS, lambda_g=lambda_g)


def loop_moments(values):
    """Count, mean and std as a plain Python loop over running sums."""
    total = total_sq = 0.0
    for value in values:
        total += value
        total_sq += value * value
    count = len(values)
    mean = total / count
    if count < 2:
        return count, mean, 0.0
    return count, mean, math.sqrt(max((total_sq - count * mean * mean) / (count - 1), 0.0))


class TestFold:
    def test_two_deliveries(self):
        result = fold(record([(0, 1, 0.0, 1.0, 20.0), (1, 1, 5.0, 5.0, 35.0)]))
        assert result.measured_messages == 2
        assert result.mean_latency == pytest.approx(25.0)
        assert result.mean_queueing_delay == pytest.approx(0.5)
        assert result.mean_network_latency == pytest.approx(24.5)
        assert result.external_fraction == pytest.approx(0.5)
        assert result.measurement_time == pytest.approx(15.0)
        assert result.throughput == pytest.approx(2 / 15.0)
        assert not result.saturated

    def test_per_cluster_statistics(self):
        result = fold(
            record([(0, 1, 0.0, 0.0, 10.0), (0, 1, 0.0, 0.0, 30.0), (1, 1, 0.0, 0.0, 40.0)])
        )
        by_cluster = {stats.cluster: stats for stats in result.clusters}
        assert by_cluster[0].count == 2
        assert by_cluster[0].mean_latency == pytest.approx(20.0)
        assert by_cluster[1].count == 1
        assert all(type(stats.cluster) is int for stats in result.clusters)

    def test_empty_record_reads_saturated(self):
        result = fold(record())
        assert result.saturated
        assert math.isinf(result.mean_latency)
        assert result.measured_messages == 0
        assert result.clusters == ()

    def test_record_cut_short_reads_saturated(self):
        assert fold(record([(0, 0, 0.0, 0.0, 10.0)], done=False)).saturated

    def test_confidence_interval_brackets_mean(self):
        result = fold(latencies([10.0 + index % 7 for index in range(100)]))
        low, high = result.confidence_interval
        assert low < result.mean_latency < high


class TestFoldArithmetic:
    def test_mean_and_std_match_known_values(self):
        result = fold(latencies([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]))
        assert result.mean_latency == pytest.approx(5.0)
        assert result.std_latency == pytest.approx(math.sqrt(32.0 / 7.0))

    def test_one_delivery_has_zero_std_and_a_degenerate_interval(self):
        result = fold(latencies([3.0]))
        assert result.std_latency == 0.0
        assert result.confidence_interval == (3.0, 3.0)

    def test_confidence_interval_narrows_with_more_deliveries(self):
        small = fold(latencies([1.0, 2.0, 3.0, 4.0, 5.0] * 4)).confidence_interval
        large = fold(latencies([1.0, 2.0, 3.0, 4.0, 5.0] * 400)).confidence_interval
        assert large[1] - large[0] < small[1] - small[0]

    def test_interval_z_is_the_normal_quantile(self):
        # A rational approximation of the quantile, off by about 1.6e-9.
        assert Z_95 == pytest.approx(NormalDist().inv_cdf(0.975), abs=1e-8)

    @given(
        values=st.lists(
            st.one_of(
                st.floats(min_value=-1e-6, max_value=1e-6),
                st.floats(min_value=-1e3, max_value=1e3),
                st.floats(min_value=-1e15, max_value=1e15),
            ),
            min_size=1,
            max_size=2000,
        ),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_fold_equals_a_python_left_to_right_loop(self, values, data):
        """Mean and std, overall and per cluster, bit for bit."""
        clusters = data.draw(
            st.lists(st.integers(0, 2), min_size=len(values), max_size=len(values))
        )
        result = fold(latencies(values, clusters))
        count, mean, std = loop_moments(values)
        assert result.measured_messages == count
        assert (result.mean_latency.hex(), result.std_latency.hex()) == (mean.hex(), std.hex())
        for stats in result.clusters:
            mine = [value for value, cluster in zip(values, clusters) if cluster == stats.cluster]
            count, mean, std = loop_moments(mine)
            assert stats.count == count
            assert (stats.mean_latency.hex(), stats.std_latency.hex()) == (mean.hex(), std.hex())
        assert sorted(stats.cluster for stats in result.clusters) == sorted(set(clusters))

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=200))
    def test_running_statistics_match_direct_computation(self, values):
        result = fold(latencies(values))
        direct_mean = math.fsum(values) / len(values)
        assert result.mean_latency == pytest.approx(direct_mean, rel=1e-9, abs=1e-6)
        direct_var = math.fsum((v - direct_mean) ** 2 for v in values) / (len(values) - 1)
        assert result.std_latency**2 == pytest.approx(direct_var, rel=1e-6, abs=1e-3)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1, max_size=50))
    def test_variance_is_never_negative(self, values):
        assert fold(latencies(values)).std_latency >= 0.0
