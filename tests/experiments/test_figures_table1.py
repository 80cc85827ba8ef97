"""Tests of the figure and Table 1 reproduction helpers (model-only runs)."""

import math

import pytest

from repro.experiments.configs import paper_message_specs
from repro.experiments.figures import figure_campaign, run_figure
from repro.experiments.table1 import table1_row, table1_rows
from repro.experiments.configs import table1_system
from repro.utils import ValidationError


def saturation(runset) -> float:
    """First offered traffic at which the model saturates (inf if never)."""
    return next(
        (
            load
            for load, latency in zip(runset.scenario.offered_traffic, runset.curve("model"))
            if math.isinf(latency)
        ),
        math.inf,
    )


class TestRunFigure:
    @pytest.fixture(scope="class")
    def fig4(self):
        # Model-only with few points: fast enough for unit tests.
        return run_figure("fig4", num_points=4, run_simulation=False)

    def test_all_four_series_present(self, fig4):
        messages = [
            (runset.scenario.message.length_flits, runset.scenario.message.flit_bytes)
            for _, runset in fig4
        ]
        assert messages == [(32, 256), (32, 512), (64, 256), (64, 512)]
        assert fig4.campaign.name == "fig4"

    def test_series_lookup(self, fig4):
        runset = fig4.runset("fig4/M32-Lm256")
        assert len(runset.records) == 4
        with pytest.raises(ValidationError):
            fig4.runset("fig4/M32-Lm128")

    def test_series_labels(self, fig4):
        labels = fig4.labels
        assert "fig4/M32-Lm256" in labels and "fig4/M64-Lm512" in labels

    def test_larger_flits_saturate_earlier(self, fig4):
        small = saturation(fig4.runset("fig4/M32-Lm256"))
        large = saturation(fig4.runset("fig4/M32-Lm512"))
        assert large < small

    def test_longer_messages_saturate_earlier(self, fig4):
        short = saturation(fig4.runset("fig4/M32-Lm256"))
        long = saturation(fig4.runset("fig4/M64-Lm256"))
        assert long < short

    def test_figure_campaign_covers_the_four_message_specs(self):
        campaign = figure_campaign("fig3", num_points=3, run_simulation=False)
        messages = tuple(entry.scenario.message for entry in campaign.entries)
        assert sorted(messages, key=lambda m: (m.length_flits, m.flit_bytes)) == sorted(
            paper_message_specs(), key=lambda m: (m.length_flits, m.flit_bytes)
        )
        assert all(entry.engines == ("model",) for entry in campaign.entries)

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValidationError):
            run_figure("fig7", run_simulation=False)

    def test_fig3_saturates_before_fig4(self):
        """The larger N=1120 system saturates at lower offered traffic."""
        fig3 = run_figure("fig3", num_points=4, run_simulation=False)
        fig4 = run_figure("fig4", num_points=4, run_simulation=False)
        assert saturation(fig3.runset("fig3/M32-Lm256")) < saturation(
            fig4.runset("fig4/M32-Lm256")
        )


class TestTable1:
    def test_rows_match_the_paper(self):
        rows = table1_rows()
        assert [row.total_nodes for row in rows] == [1120, 544]
        assert [row.num_clusters for row in rows] == [32, 16]
        assert [row.switch_ports for row in rows] == [8, 4]
        assert rows[0].icn2_height == 2
        assert rows[1].icn2_height == 3

    def test_organisation_strings(self):
        rows = table1_rows()
        assert "ni=1 i in [0,11]" in rows[0].organisation
        assert "ni=5 i in [11,15]" in rows[1].organisation

    def test_cluster_sizes_sum_to_total(self):
        for row in table1_rows():
            assert sum(row.cluster_sizes) == row.total_nodes

    def test_as_cells_order(self):
        row = table1_row(table1_system(544))
        cells = row.as_cells()
        assert cells[:3] == (544, 16, 4)

    def test_switch_counts_are_positive(self):
        for row in table1_rows():
            assert row.total_switches > 0
