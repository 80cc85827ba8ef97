"""Tests of the simulation configuration and message records."""

import numpy as np
import pytest

from repro.sim import Message, SimulationConfig
from repro.utils import ValidationError


class TestSimulationConfig:
    def test_defaults_are_consistent(self):
        config = SimulationConfig()
        assert config.total_messages == (
            config.measured_messages + config.warmup_messages + config.drain_messages
        )

    def test_paper_budget(self):
        config = SimulationConfig.paper()
        assert config.measured_messages == 100_000
        assert config.warmup_messages == 10_000
        assert config.drain_messages == 10_000

    def test_quick_budget_is_small(self):
        assert SimulationConfig.quick().total_messages < 3000

    def test_with_seed(self):
        config = SimulationConfig(seed=0)
        other = config.with_seed(42)
        assert other.seed == 42 and config.seed == 0
        assert other.measured_messages == config.measured_messages

    def test_scaled(self):
        config = SimulationConfig(measured_messages=1000, warmup_messages=100, drain_messages=100)
        half = config.scaled(0.5)
        assert half.measured_messages == 500
        assert half.warmup_messages == 50
        with pytest.raises(ValueError):
            config.scaled(0.0)

    @pytest.mark.parametrize(
        "fields",
        [
            {"measured_messages": 0},
            {"warmup_messages": -1},
            {"warmup_messages": 10.5},
            {"warmup_messages": 10.0},
            {"drain_messages": -1},
            {"drain_messages": 10.5},
            {"seed": 1.5},
            {"seed": 3.0},
            {"seed": -1},
            {"seed": "3"},
            {"seed": True},
            pytest.param({"seed": np.int64(-1)}, id="seed=int64(-1)"),
        ],
        ids=lambda fields: ",".join(f"{key}={value!r}" for key, value in fields.items()),
    )
    def test_invalid_budgets_rejected(self, fields):
        with pytest.raises(ValidationError):
            SimulationConfig(**fields)

    @pytest.mark.parametrize(
        "seed",
        [None, 0, 3, 2**70, np.int64(3), np.uint32(3)],
        ids=["None", "0", "3", "2**70", "int64(3)", "uint32(3)"],
    )
    def test_seed_accepts_none_and_non_negative_integers(self, seed):
        assert SimulationConfig(seed=seed).seed is seed


class TestMessage:
    def make(self, **overrides):
        defaults = dict(
            index=0,
            source_cluster=0,
            source_node=1,
            dest_cluster=2,
            dest_node=3,
            length_flits=32,
            created_at=10.0,
        )
        defaults.update(overrides)
        return Message(**defaults)

    def test_external_flag(self):
        assert self.make().is_external
        assert not self.make(dest_cluster=0).is_external

