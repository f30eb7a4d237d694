"""Sweep grid semantics: expansion, stable ids, override validation."""

from __future__ import annotations

import datetime
import json

import pytest

from repro.pipeline import PipelineConfig
from repro.sweep import GridAxis, GridError, SweepGrid, apply_overrides


def base_config() -> PipelineConfig:
    return PipelineConfig()


class TestApplyOverrides:
    def test_top_level_field(self):
        config = apply_overrides(base_config(), {"top": 5})
        assert config.top == 5

    def test_nested_fields(self):
        config = apply_overrides(
            base_config(),
            {"dataset.seed": 11, "dataset.topology.tier2_count": 7},
        )
        assert config.dataset.seed == 11
        assert config.dataset.topology.tier2_count == 7

    def test_original_config_is_untouched(self):
        original = base_config()
        apply_overrides(original, {"dataset.seed": 99})
        assert original.dataset.seed != 99

    def test_unknown_field_names_the_valid_ones(self):
        with pytest.raises(GridError, match="valid:.*top"):
            apply_overrides(base_config(), {"nonsense": 1})

    def test_unknown_nested_field(self):
        with pytest.raises(GridError, match="DatasetConfig has no field"):
            apply_overrides(base_config(), {"dataset.nonsense": 1})

    def test_path_through_non_dataclass(self):
        with pytest.raises(GridError):
            apply_overrides(base_config(), {"top.deeper": 1})

    def test_out_of_range_value_is_loud(self):
        """DatasetConfig.__post_init__ validates fractions; the grid
        surfaces that as a GridError naming the override."""
        with pytest.raises(GridError, match="documented_fraction"):
            apply_overrides(base_config(), {"dataset.documented_fraction": 1.5})

    def test_iso_date_strings_coerce_to_dates(self):
        config = apply_overrides(base_config(), {"dataset.snapshot_date": "2010-09-01"})
        assert config.dataset.snapshot_date == datetime.date(2010, 9, 1)

    def test_bad_date_string_is_loud(self):
        with pytest.raises(GridError, match="ISO date"):
            apply_overrides(base_config(), {"dataset.snapshot_date": "yesterday"})

    def test_int_coerces_to_float_field(self):
        config = apply_overrides(base_config(), {"dataset.documented_fraction": 1})
        assert config.dataset.documented_fraction == 1.0

    def test_malformed_path(self):
        with pytest.raises(GridError, match="malformed"):
            apply_overrides(base_config(), {"dataset..seed": 1})

    def test_non_string_path_is_a_grid_error(self):
        with pytest.raises(GridError, match="malformed"):
            apply_overrides(base_config(), {3: 1})

    def test_string_for_int_field_is_rejected(self):
        """A quoted number ("7" for seed) would silently seed
        random.Random("7") and break bit-identity with the standalone
        run the scenario id names — it must fail eagerly."""
        with pytest.raises(GridError, match="expected an integer"):
            apply_overrides(base_config(), {"dataset.seed": "7"})

    def test_string_for_float_field_is_rejected(self):
        with pytest.raises(GridError, match="expected a number"):
            apply_overrides(base_config(), {"dataset.documented_fraction": "0.5"})

    def test_bool_for_int_field_is_rejected(self):
        with pytest.raises(GridError, match="expected an integer"):
            apply_overrides(base_config(), {"top": True})

    def test_null_override_is_rejected(self):
        """No config field is optional: ``null`` fails here, not as a
        ``TypeError`` inside the scenario."""
        with pytest.raises(GridError, match="top: null"):
            apply_overrides(base_config(), {"top": None})

    def test_null_axis_value_is_rejected(self):
        with pytest.raises(GridError, match="dataset.seed: null"):
            SweepGrid(base_config(), [GridAxis("dataset.seed", (1, None))])

    def test_max_sources_is_an_unknown_field(self):
        with pytest.raises(GridError, match="has no field 'max_sources'"):
            apply_overrides(base_config(), {"max_sources": 10})

    def test_tuple_field_takes_a_list_of_its_length(self):
        path = "dataset.topology.tier2_providers"
        config = apply_overrides(base_config(), {path: [2, 4]})
        assert config.dataset.topology.tier2_providers == (2, 4)
        with pytest.raises(GridError, match="expected a list of 2"):
            apply_overrides(base_config(), {path: [2]})
        with pytest.raises(GridError, match="expected an integer"):
            apply_overrides(base_config(), {path: [2, "4"]})

    def test_whole_section_replacement_is_rejected(self):
        with pytest.raises(GridError, match="dotted paths"):
            apply_overrides(base_config(), {"dataset": {"seed": 1}})


class TestExpansion:
    def grid(self) -> SweepGrid:
        return SweepGrid(
            base_config(),
            [GridAxis("dataset.seed", (1, 2)), GridAxis("top", (3, 5))],
        )

    def test_cartesian_product(self):
        scenarios = self.grid().expand()
        assert len(scenarios) == 4
        assert len(self.grid()) == 4
        configs = {(s.config.dataset.seed, s.config.top) for s in scenarios}
        assert configs == {(1, 3), (1, 5), (2, 3), (2, 5)}

    def test_ids_are_stable_and_readable(self):
        ids = [s.scenario_id for s in self.grid().expand()]
        assert ids == [
            "dataset.seed=1,top=3",
            "dataset.seed=1,top=5",
            "dataset.seed=2,top=3",
            "dataset.seed=2,top=5",
        ]
        # A second expansion of an equal grid yields the same ids.
        assert [s.scenario_id for s in self.grid().expand()] == ids

    def test_overrides_recorded_per_scenario(self):
        first = self.grid().expand()[0]
        assert first.overrides_dict() == {"dataset.seed": 1, "top": 3}

    def test_duplicate_axis_rejected(self):
        with pytest.raises(GridError, match="declared twice"):
            SweepGrid(base_config(), [GridAxis("top", (1,)), GridAxis("top", (2,))])

    def test_empty_axis_rejected(self):
        with pytest.raises(GridError, match="no values"):
            GridAxis("top", ())

    def test_non_string_axis_field_rejected(self):
        with pytest.raises(GridError, match="non-empty string"):
            GridAxis(3, (1, 2))

    def test_bad_axis_value_fails_at_construction(self):
        with pytest.raises(GridError):
            SweepGrid(base_config(), [GridAxis("dataset.documented_fraction", (0.5, 2.0))])


class TestJsonLoading:
    def write(self, tmp_path, payload):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    def test_round_trip(self, tmp_path):
        path = self.write(
            tmp_path,
            {
                "schema_version": 1,
                "base": {"scale": "small", "overrides": {"dataset.vantage_points": 4}},
                "axes": [
                    {"field": "dataset.seed", "values": [1, 2]},
                    {"field": "top", "values": [3]},
                ],
            },
        )
        grid = SweepGrid.from_json_file(path)
        assert len(grid) == 2
        assert grid.base.dataset.vantage_points == 4
        assert [axis.field for axis in grid.axes] == ["dataset.seed", "top"]

    @pytest.mark.parametrize(
        "payload",
        [
            {"base": {"overrides": {"top": None}}, "axes": {"top": [1]}},
            {"axes": {"top": [1, None]}},
        ],
        ids=["base", "axis"],
    )
    def test_null_is_rejected_at_load(self, tmp_path, payload):
        with pytest.raises(GridError, match="top: null"):
            SweepGrid.from_json_file(self.write(tmp_path, payload))

    def test_axes_as_mapping(self, tmp_path):
        path = self.write(tmp_path, {"axes": {"top": [1, 2]}})
        grid = SweepGrid.from_json_file(path)
        assert [axis.field for axis in grid.axes] == ["top"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(GridError, match="does not exist"):
            SweepGrid.from_json_file(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text("{oops", encoding="utf-8")
        with pytest.raises(GridError, match="not valid JSON"):
            SweepGrid.from_json_file(path)

    def test_unsupported_schema_version(self, tmp_path):
        path = self.write(tmp_path, {"schema_version": 99, "axes": {"top": [1]}})
        with pytest.raises(GridError, match="schema_version"):
            SweepGrid.from_json_file(path)

    def test_missing_axes(self, tmp_path):
        path = self.write(tmp_path, {"base": {}})
        with pytest.raises(GridError, match="axes"):
            SweepGrid.from_json_file(path)

    def test_unknown_scale(self, tmp_path):
        path = self.write(tmp_path, {"base": {"scale": "huge"}, "axes": {"top": [1]}})
        with pytest.raises(GridError, match="scale"):
            SweepGrid.from_json_file(path)

    def test_malformed_axis_entry(self, tmp_path):
        path = self.write(tmp_path, {"axes": [{"field": "top"}]})
        with pytest.raises(GridError, match="field.*values"):
            SweepGrid.from_json_file(path)

    def test_typod_top_level_key_rejected(self, tmp_path):
        """A typo must not silently sweep the wrong configuration."""
        path = self.write(tmp_path, {"axis": [{"field": "top", "values": [1]}]})
        with pytest.raises(GridError, match="'axis'"):
            SweepGrid.from_json_file(path)

    def test_typod_base_key_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            {"base": {"scael": "paper"}, "axes": {"top": [1]}},
        )
        with pytest.raises(GridError, match="'scael'"):
            SweepGrid.from_json_file(path)

    def test_typod_axis_key_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            {"axes": [{"field": "top", "values": [1], "vales": [2]}]},
        )
        with pytest.raises(GridError, match="'vales'"):
            SweepGrid.from_json_file(path)

    def test_non_string_axis_field_in_json(self, tmp_path):
        path = self.write(tmp_path, {"axes": [{"field": 3, "values": [1, 2]}]})
        with pytest.raises(GridError, match="non-empty string"):
            SweepGrid.from_json_file(path)

    def test_spec_dict_reports_shape(self):
        grid = SweepGrid(base_config(), [GridAxis("top", (1, 2, 3))])
        spec = grid.spec_dict()
        assert spec["cells"] == 3
        assert spec["axes"] == [{"field": "top", "values": [1, 2, 3]}]
