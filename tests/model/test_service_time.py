"""Tests of the per-stage blocking/service-time recursion (Eq. 16-18, 28-29)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.model.service_time import (
    inter_stage_rates,
    intra_stage_rates,
    journey_latency,
    stage_service_times,
    stage_waiting_time,
    tail_drain_time,
)
from repro.utils import ValidationError

T_CS = 0.522   # paper values for Lm = 256
T_CN = 0.276
M = 32


class TestStageWaitingTime:
    def test_formula(self):
        # W = 0.5 * eta * S^2 (Eq. 16 with Eq. 17).
        assert stage_waiting_time(0.01, 10.0) == pytest.approx(0.5)

    def test_zero_rate_means_no_waiting(self):
        assert stage_waiting_time(0.0, 123.0) == 0.0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValidationError):
            stage_waiting_time(-0.1, 1.0)


class TestStageServiceTimes:
    def test_final_stage_service_is_ejection_time(self):
        service, _ = stage_service_times([0.0, 0.0, 0.0], message_length=M, t_cs=T_CS, t_cn=T_CN)
        assert service[-1] == pytest.approx(M * T_CN)

    def test_unloaded_network_has_no_blocking(self):
        service, waiting = stage_service_times(
            [0.0] * 5, message_length=M, t_cs=T_CS, t_cn=T_CN
        )
        assert all(w == 0.0 for w in waiting)
        # All internal stages take exactly M * t_cs.
        assert all(s == pytest.approx(M * T_CS) for s in service[:-1])

    def test_single_stage_journey(self):
        # A 2-link journey (j=1) has one stage beyond injection: the ejection.
        service, waiting = stage_service_times([0.01], message_length=M, t_cs=T_CS, t_cn=T_CN)
        assert service == [pytest.approx(M * T_CN)]
        assert waiting[0] == pytest.approx(0.5 * 0.01 * (M * T_CN) ** 2)

    def test_service_time_grows_toward_the_source(self):
        service, _ = stage_service_times(
            [0.005] * 7, message_length=M, t_cs=T_CS, t_cn=T_CN
        )
        # Every internal stage accumulates the waits of all later stages, so
        # the sequence is non-increasing from stage 0 to the end.
        for earlier, later in zip(service[:-2], service[1:-1]):
            assert earlier >= later

    def test_latency_increases_with_channel_rate(self):
        low = journey_latency([1e-4] * 5, message_length=M, t_cs=T_CS, t_cn=T_CN)
        high = journey_latency([1e-2] * 5, message_length=M, t_cs=T_CS, t_cn=T_CN)
        assert high > low

    def test_latency_increases_with_message_length(self):
        short = journey_latency([1e-3] * 5, message_length=32, t_cs=T_CS, t_cn=T_CN)
        long = journey_latency([1e-3] * 5, message_length=64, t_cs=T_CS, t_cn=T_CN)
        assert long > short

    def test_overflowed_wait_saturates_every_upstream_stage(self):
        # Stage 2's wait 0.5*eta*S^2 overflows; stages 1 and 0 then have an
        # infinite service time and wait instead of raising.
        service, waiting = stage_service_times(
            [1e300] * 4, message_length=M, t_cs=T_CS, t_cn=T_CN
        )
        assert [math.isinf(s) for s in service] == [True, True, False, False]
        assert [math.isinf(w) for w in waiting] == [True, True, True, False]
        assert math.isinf(
            journey_latency([1e300] * 4, message_length=M, t_cs=T_CS, t_cn=T_CN)
        )

    def test_empty_journey_rejected(self):
        with pytest.raises(ValidationError):
            stage_service_times([], message_length=M, t_cs=T_CS, t_cn=T_CN)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValidationError):
            stage_service_times([0.0], message_length=0, t_cs=T_CS, t_cn=T_CN)
        with pytest.raises(ValidationError):
            stage_service_times([0.0], message_length=M, t_cs=-1.0, t_cn=T_CN)
        with pytest.raises(ValidationError):
            stage_service_times([-0.1], message_length=M, t_cs=T_CS, t_cn=T_CN)
        # A bad rate upstream of an overflowed wait still raises.
        for bad in (-0.1, math.nan):
            with pytest.raises(ValidationError):
                stage_service_times(
                    [bad, 1e300, 1e300, 1e300], message_length=M, t_cs=T_CS, t_cn=T_CN
                )

    @given(
        rates=st.lists(st.floats(min_value=0.0, max_value=5e-3), min_size=1, max_size=12),
        message_length=st.sampled_from([16, 32, 64]),
    )
    @settings(max_examples=80, deadline=None)
    def test_latency_at_least_unloaded_transfer_time(self, rates, message_length):
        latency = journey_latency(rates, message_length=message_length, t_cs=T_CS, t_cn=T_CN)
        if len(rates) == 1:
            floor = message_length * T_CN
        else:
            floor = message_length * T_CS
        assert latency >= floor - 1e-12

    @given(
        rates=st.lists(st.floats(min_value=0.0, max_value=1e308), min_size=1, max_size=12)
    )
    @settings(max_examples=80, deadline=None)
    def test_any_finite_load_solves_and_overflow_spreads_upstream(self, rates):
        service, waiting = stage_service_times(
            rates, message_length=M, t_cs=T_CS, t_cn=T_CN
        )
        assert not any(math.isnan(value) for value in service + waiting)
        for stage in range(len(rates) - 1):
            if math.isinf(waiting[stage + 1]):
                assert math.isinf(service[stage]) and math.isinf(waiting[stage])

    @given(rate=st.floats(min_value=0.0, max_value=1e-2), stages=st.integers(2, 12))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_rate(self, rate, stages):
        base = journey_latency([rate] * stages, message_length=M, t_cs=T_CS, t_cn=T_CN)
        bumped = journey_latency([rate * 1.5 + 1e-5] * stages, message_length=M, t_cs=T_CS, t_cn=T_CN)
        assert bumped >= base


class TestStageRateVectors:
    def test_intra_vector_length_is_2j_minus_1(self):
        assert len(intra_stage_rates(1, 0.1)) == 1
        assert len(intra_stage_rates(3, 0.1)) == 5

    def test_inter_vector_length_is_j_plus_2h_plus_l_minus_1(self):
        rates = inter_stage_rates(2, 3, 1, 0.1, 0.2)
        assert len(rates) == 2 + 2 * 1 + 3 - 1

    def test_inter_vector_segments(self):
        rates = inter_stage_rates(3, 2, 2, 0.1, 0.9)
        # j-1 = 2 ECN1 stages, 2h = 4 ICN2 stages, l = 2 ECN1 stages.
        assert rates[:2] == [0.1, 0.1]
        assert rates[2:6] == [0.9, 0.9, 0.9, 0.9]
        assert rates[6:] == [0.1, 0.1]

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValidationError):
            intra_stage_rates(0, 0.1)
        with pytest.raises(ValidationError):
            inter_stage_rates(1, 0, 1, 0.1, 0.1)
        with pytest.raises(ValidationError):
            inter_stage_rates(1, 1, 1, -0.1, 0.1)


class TestTailDrain:
    def test_formula(self):
        # (K-1) switch channels plus the final node channel (Eq. 24).
        assert tail_drain_time(5, t_cs=T_CS, t_cn=T_CN) == pytest.approx(4 * T_CS + T_CN)

    def test_single_stage(self):
        assert tail_drain_time(1, t_cs=T_CS, t_cn=T_CN) == pytest.approx(T_CN)

    def test_invalid_rejected(self):
        with pytest.raises(ValidationError):
            tail_drain_time(0, t_cs=T_CS, t_cn=T_CN)
