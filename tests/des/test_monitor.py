"""Tests of the Tally statistics collector."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.des import Environment, SimulationError, Tally


class TestTally:
    def test_empty_tally_raises_on_mean(self):
        tally = Tally("empty")
        with pytest.raises(SimulationError):
            _ = tally.mean

    def test_mean_and_variance_match_known_values(self):
        tally = Tally()
        tally.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert tally.mean == pytest.approx(5.0)
        assert tally.variance == pytest.approx(32.0 / 7.0)
        assert tally.std == pytest.approx(math.sqrt(32.0 / 7.0))

    def test_min_max_count_total(self):
        tally = Tally()
        tally.extend([3.0, -1.0, 10.0])
        assert tally.minimum == -1.0
        assert tally.maximum == 10.0
        assert tally.count == 3
        assert tally.total == pytest.approx(12.0)

    def test_variance_of_single_observation_is_zero(self):
        tally = Tally()
        tally.record(5.0)
        assert tally.variance == 0.0

    def test_reset_clears_everything(self):
        tally = Tally()
        tally.extend([1.0, 2.0])
        tally.reset()
        assert tally.count == 0
        assert tally.samples == []

    def test_keep_samples_false_rejects_sample_access(self):
        tally = Tally(keep_samples=False)
        tally.record(1.0)
        with pytest.raises(SimulationError):
            _ = tally.samples
        # ...but running statistics still work.
        assert tally.mean == 1.0

    def test_percentiles(self):
        tally = Tally()
        tally.extend(range(1, 101))
        assert tally.percentile(0) == 1
        assert tally.percentile(100) == 100
        assert tally.percentile(50) == pytest.approx(50.5)

    def test_percentile_out_of_range_raises(self):
        tally = Tally()
        tally.record(1.0)
        with pytest.raises(SimulationError):
            tally.percentile(150)

    def test_percentile_single_sample(self):
        tally = Tally()
        tally.record(7.0)
        assert tally.percentile(37.5) == 7.0

    def test_confidence_interval_brackets_the_mean(self):
        tally = Tally()
        tally.extend([float(x) for x in range(1000)])
        low, high = tally.confidence_interval(0.95)
        assert low < tally.mean < high

    def test_confidence_interval_narrows_with_more_samples(self):
        small, large = Tally(), Tally()
        small.extend([1.0, 2.0, 3.0, 4.0, 5.0] * 4)
        large.extend([1.0, 2.0, 3.0, 4.0, 5.0] * 400)
        small_width = small.confidence_interval()[1] - small.confidence_interval()[0]
        large_width = large.confidence_interval()[1] - large.confidence_interval()[0]
        assert large_width < small_width

    def test_confidence_interval_requires_valid_level(self):
        tally = Tally()
        tally.record(1.0)
        with pytest.raises(SimulationError):
            tally.confidence_interval(1.5)

    def test_confidence_interval_single_sample_is_degenerate(self):
        tally = Tally()
        tally.record(3.0)
        assert tally.confidence_interval() == (3.0, 3.0)

    def test_summary_round_trip(self):
        tally = Tally("latency")
        assert tally.summary() == {"name": "latency", "count": 0}
        tally.extend([1.0, 3.0])
        summary = tally.summary()
        assert summary["count"] == 2
        assert summary["mean"] == pytest.approx(2.0)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=200))
    def test_running_statistics_match_direct_computation(self, values):
        tally = Tally()
        tally.extend(values)
        direct_mean = sum(values) / len(values)
        assert tally.mean == pytest.approx(direct_mean, rel=1e-9, abs=1e-6)
        direct_var = sum((v - direct_mean) ** 2 for v in values) / (len(values) - 1)
        assert tally.variance == pytest.approx(direct_var, rel=1e-6, abs=1e-3)
        assert tally.minimum == min(values)
        assert tally.maximum == max(values)

    @given(
        values=st.lists(
            st.one_of(
                st.floats(min_value=-1e-6, max_value=1e-6),
                st.floats(min_value=-1e3, max_value=1e3),
                st.floats(min_value=-1e15, max_value=1e15),
            ),
            max_size=2000,
        ),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_extend_equals_sequential_record_bit_for_bit(self, values, data):
        """The NumPy batch path folds left to right, exactly like record()."""
        split = data.draw(st.integers(0, len(values)))
        sequential = Tally()
        for value in values:
            sequential.record(value)
        batched = Tally()
        for value in values[:split]:
            batched.record(value)
        batched.extend(values[split:])

        def bits(tally):
            return (
                tally.count,
                tally.total.hex(),
                tally._sum_sq.hex(),
                tally._min.hex(),
                tally._max.hex(),
                [sample.hex() for sample in tally.samples],
            )

        assert bits(batched) == bits(sequential)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1, max_size=50))
    def test_variance_is_never_negative(self, values):
        tally = Tally()
        tally.extend(values)
        assert tally.variance >= 0.0


class TestCollectorsDrivenBySimulation:
    """A tally fed by processes as the run loop advances the clock."""

    def test_tally_of_simulated_delays(self):
        env = Environment()
        tally = Tally("latencies")

        def proc(env, delay):
            start = env.now
            yield env.timeout(delay)
            tally.record(env.now - start)

        for delay in (1.0, 2.0, 3.0, 4.0):
            env.process(proc(env, delay))
        env.run()
        assert tally.count == 4
        assert tally.mean == pytest.approx(2.5)
        assert tally.minimum == 1.0
        assert tally.maximum == 4.0
