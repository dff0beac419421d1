"""Tests for the experiment harness: every figure/table runs on the small
scenario and produces structurally valid output."""

import numpy as np
import pytest

from repro.experiments import fig2, fig3, fig4, fig5, fig6, fig7, fig8, tables
from repro.experiments.base import ExperimentOutput
from repro.experiments.scenario import Scenario, get_scenario


class TestScenario:
    def test_cached(self):
        assert get_scenario("small") is get_scenario("small")

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            get_scenario("galactic")

    def test_rtt_matrix_excludes_self(self, small_scenario):
        matrix = small_scenario.rtt_matrix()
        for column, target in enumerate(small_scenario.targets):
            row = small_scenario.vp_row_of_target(target)
            assert row is not None
            assert np.isnan(matrix[row, column])

    def test_target_ips_aligned(self, small_scenario):
        assert len(small_scenario.target_ips) == len(small_scenario.targets)
        assert small_scenario.target_ips[0] == small_scenario.targets[0].ip

    def test_mesh_restricted_to_sanitized(self, small_scenario):
        ids, mesh = small_scenario.mesh()
        assert set(ids) == set(small_scenario.target_ids)
        assert mesh.shape == (len(ids), len(ids))

    def test_anchor_vp_infos(self, small_scenario):
        anchors = small_scenario.anchor_vp_infos()
        assert all(info.is_anchor for info in anchors)
        assert len(anchors) == len(small_scenario.targets)


def _check_output(output: ExperimentOutput, experiment_id: str):
    assert output.experiment_id == experiment_id
    assert output.table
    assert output.measured
    rendered = output.render()
    assert experiment_id in rendered
    assert "paper" in rendered


class TestTableExperiments:
    def test_table1(self, small_scenario):
        output = tables.run_table1(small_scenario)
        _check_output(output, "table1")
        assert output.measured["targets"] == len(small_scenario.targets)

    def test_table2(self, small_scenario):
        output = tables.run_table2(small_scenario)
        _check_output(output, "table2")
        assert 0.5 < output.measured["combined_access_share"] < 0.95


class TestFig2(object):
    def test_fig2a(self, small_scenario):
        output = fig2.run_fig2a(small_scenario, sizes=(10, 50, 200), trials=3)
        _check_output(output, "fig2a")
        assert output.measured["errors_shrink_with_more_vps"] == 1.0

    def test_fig2b(self, small_scenario):
        output = fig2.run_fig2b(small_scenario, sizes=(50, 200), trials=4)
        _check_output(output, "fig2b")
        assert len(output.series["50"]) == 4

    def test_fig2c(self, small_scenario):
        output = fig2.run_fig2c(small_scenario, cutoffs_km=(40.0, 500.0))
        _check_output(output, "fig2c")
        # Removing close VPs must hurt.
        assert (
            output.measured["median_beyond_40km_km"]
            > output.measured["median_all_vps_km"]
        )


class TestFig3:
    def test_fig3a(self, small_scenario):
        output = fig3.run_fig3a(small_scenario)
        _check_output(output, "fig3a")
        assert 0.0 <= output.measured["within_10km_single_vp"] <= 1.0

    def test_fig3bc(self, small_scenario):
        output = fig3.run_fig3bc(small_scenario, first_step_sizes=(10, 50))
        _check_output(output, "fig3bc")
        assert output.measured["overhead_fraction_500"] < 1.0


class TestFig4:
    def test_fig4(self, small_scenario):
        output = fig4.run_fig4(small_scenario)
        _check_output(output, "fig4")
        assert set(output.series) == set(small_scenario.target_continents)


class TestStreetLevelFigures:
    MAX_TARGETS = 12

    def test_fig5a(self, small_scenario):
        output = fig5.run_fig5a(small_scenario, max_targets=self.MAX_TARGETS)
        _check_output(output, "fig5a")
        assert len(output.series["street"]) == self.MAX_TARGETS

    def test_fig5b(self, small_scenario):
        output = fig5.run_fig5b(small_scenario, max_targets=self.MAX_TARGETS)
        _check_output(output, "fig5b")
        assert output.measured["within_1km_fraction"] <= output.measured["within_40km_fraction"]

    def test_fig5c(self, small_scenario):
        output = fig5.run_fig5c(small_scenario, max_targets=self.MAX_TARGETS)
        _check_output(output, "fig5c")

    def test_fig6a(self, small_scenario):
        output = fig6.run_fig6a(small_scenario, max_targets=self.MAX_TARGETS)
        _check_output(output, "fig6a")
        fractions = output.series["fractions"]
        assert all(0.0 <= f <= 1.0 for f in fractions)

    def test_fig6b(self, small_scenario):
        output = fig6.run_fig6b(small_scenario, max_targets=self.MAX_TARGETS)
        _check_output(output, "fig6b")

    def test_fig6c(self, small_scenario):
        output = fig6.run_fig6c(small_scenario, max_targets=self.MAX_TARGETS)
        _check_output(output, "fig6c")
        assert output.measured["median_time_s"] > 0

    def test_street_runs_cached(self, small_scenario):
        from repro.experiments.street_runner import street_level_records

        a = street_level_records(small_scenario, self.MAX_TARGETS)
        b = street_level_records(small_scenario, self.MAX_TARGETS)
        assert a is b


class TestStreetRecordsOwnership:
    """Street-level records live on the scenario they describe."""

    def test_scenarios_never_share_records(self):
        from repro.check.diff import street_result_key
        from repro.experiments.scenario import config_for_preset
        from repro.experiments.street_runner import street_level_records

        first = Scenario.build(config_for_preset("quick", 3))
        second = Scenario.build(config_for_preset("quick", 4))
        a = street_level_records(first, 2)
        b = street_level_records(second, 2)
        assert first.street_records == {2: a}
        assert second.street_records == {2: b}
        assert [r.target for r in a] == [first.targets[0], first.targets[len(first.targets) // 2]]
        assert [r.target for r in b] == [second.targets[0], second.targets[len(second.targets) // 2]]
        assert [street_result_key(r.result) for r in a] != [
            street_result_key(r.result) for r in b
        ]

    def test_freed_scenario_frees_its_records(self):
        import gc
        import weakref

        from repro.experiments.scenario import config_for_preset
        from repro.experiments.street_runner import street_level_records

        scenario = Scenario.build(config_for_preset("quick", 5))
        records = street_level_records(scenario, 1)
        alive = weakref.ref(records[0])
        del records, scenario
        gc.collect()
        assert alive() is None


class TestFig7And8:
    def test_fig7(self, small_scenario):
        output = fig7.run_fig7(small_scenario)
        _check_output(output, "fig7")
        assert (
            output.measured["ipinfo_city_fraction"]
            > output.measured["maxmind_city_fraction"]
        )

    def test_fig8(self, small_scenario):
        output = fig8.run_fig8(small_scenario)
        _check_output(output, "fig8")
        assert output.measured["density_orders_of_magnitude"] > 1.0


class TestCli:
    def test_cli_runs_experiment(self, capsys):
        from repro.experiments.run import main

        code = main(["table1", "--preset", "small"])
        assert code == 0
        captured = capsys.readouterr()
        assert "table1" in captured.out

    def test_cli_rejects_unknown(self):
        from repro.experiments.run import main

        with pytest.raises(SystemExit):
            main(["figZZ", "--preset", "small"])


class TestSaveJson:
    def test_cli_save_json(self, tmp_path, capsys):
        import json

        from repro.experiments.run import main

        code = main(
            ["table2", "--preset", "small", "--save-json", str(tmp_path / "runs")]
        )
        assert code == 0
        saved = json.loads((tmp_path / "runs" / "table2.json").read_text())
        assert saved["experiment_id"] == "table2"
        assert "combined_access_share" in saved["measured"]

    def test_output_save_json_round_trip(self, tmp_path):
        import json

        from repro.experiments.base import ExperimentOutput

        output = ExperimentOutput(
            "x", "t", "body", measured={"a": 1.0}, series={"s": [1, 2]}
        )
        path = tmp_path / "x.json"
        output.save_json(path)
        loaded = json.loads(path.read_text())
        assert loaded["series"]["s"] == [1, 2]
        assert loaded["table"] == "body"
