"""Declarative parameter grids over the pipeline configuration.

A sweep starts from a *base* :class:`~repro.pipeline.PipelineConfig`
and a list of :class:`GridAxis` objects, each naming one configuration
field by dotted path (``"dataset.seed"``, ``"top"``,
``"dataset.topology.tier2_count"``, ``"propagation.engine"``, ...) and
the values it takes.  The
cartesian product of the axes expands into concrete
:class:`Scenario` objects — one fully-formed ``PipelineConfig`` per
grid cell, carrying a **stable scenario id** derived from the axis
assignments alone (``"dataset.seed=1,top=3"``), so reports, caches and
golden files can refer to a cell across runs and machines.

Grids are also loadable from JSON (``repro sweep --grid grid.json``)::

    {
      "schema_version": 1,
      "base": {"scale": "small",
               "overrides": {"dataset.vantage_points": 8}},
      "axes": [
        {"field": "dataset.seed", "values": [1, 2]},
        {"field": "top", "values": [10, 20]}
      ]
    }

``base.scale`` selects :func:`~repro.datasets.config.small_config` (default)
or :func:`~repro.datasets.config.paper_scale_config`; ``base.overrides`` then
adjusts any field by the same dotted-path mechanism the axes use.
Unknown field paths are rejected at grid-construction time with the
list of valid fields — not halfway through a multi-hour sweep.
"""

from __future__ import annotations

import dataclasses
import datetime as _dt
import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Tuple, Union

from repro.datasets.config import paper_scale_config, small_config
from repro.pipeline import PipelineConfig

#: Bump when the grid JSON schema changes incompatibly.
GRID_SCHEMA_VERSION = 1

_SCALES = {
    "small": small_config,
    "paper": paper_scale_config,
}


class GridError(ValueError):
    """A malformed sweep grid (unknown field, empty axis, bad JSON)."""


# ----------------------------------------------------------------------
# dotted-path overrides
# ----------------------------------------------------------------------
def _coerce(current: object, value: object, path: str) -> object:
    """Adapt a JSON-borne value to the field it replaces — or refuse.

    Type mismatches must fail here, eagerly: a quoted number in a
    hand-edited grid (``"seed": "7"``) would otherwise seed
    ``random.Random("7")`` and silently produce a cell that is *not*
    bit-identical to the standalone run its scenario id names.  No
    config field is optional, so an explicit ``null`` is refused too.
    """
    if value is None:
        raise GridError(f"{path}: null is not a value of this field")
    if isinstance(current, _dt.date):
        if isinstance(value, _dt.date):
            return value
        if isinstance(value, str):
            try:
                return _dt.date.fromisoformat(value)
            except ValueError as exc:
                raise GridError(f"{path}: {value!r} is not an ISO date") from exc
        raise GridError(
            f"{path}: expected an ISO date string, got {value!r}"
        )
    if isinstance(current, bool):
        if isinstance(value, bool):
            return value
        raise GridError(f"{path}: expected a boolean, got {value!r}")
    if isinstance(current, int):
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise GridError(f"{path}: expected an integer, got {value!r}")
    if isinstance(current, float):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        raise GridError(f"{path}: expected a number, got {value!r}")
    if isinstance(current, str):
        if isinstance(value, str):
            return value
        raise GridError(f"{path}: expected a string, got {value!r}")
    if isinstance(current, tuple):
        if isinstance(value, (list, tuple)) and len(value) == len(current):
            return tuple(_coerce(old, new, path) for old, new in zip(current, value))
        raise GridError(f"{path}: expected a list of {len(current)}, got {value!r}")
    raise GridError(
        f"{path}: cannot replace a whole config section; override its "
        "fields individually with dotted paths"
    )


def _replace_path(config: object, parts: Sequence[str], value: object, path: str):
    """``dataclasses.replace`` down a dotted field path."""
    if not dataclasses.is_dataclass(config) or isinstance(config, type):
        raise GridError(
            f"{path}: {'.'.join(parts)} does not resolve to a dataclass field"
        )
    name = parts[0]
    valid = [field.name for field in dataclasses.fields(config)]
    if name not in valid:
        raise GridError(
            f"{path}: {type(config).__name__} has no field {name!r} "
            f"(valid: {', '.join(valid)})"
        )
    if len(parts) == 1:
        return dataclasses.replace(
            config, **{name: _coerce(getattr(config, name), value, path)}
        )
    return dataclasses.replace(
        config, **{name: _replace_path(getattr(config, name), parts[1:], value, path)}
    )


def apply_overrides(
    config: PipelineConfig, overrides: Mapping[str, object]
) -> PipelineConfig:
    """A new config with every ``dotted.path -> value`` override applied.

    Validation is twofold: unknown paths raise :class:`GridError` with
    the valid field names, and the dataclass ``__post_init__`` checks
    (fraction ranges, positive counts) run on every intermediate
    replacement, so an out-of-range axis value fails here, loudly.
    """
    for path, value in overrides.items():
        if not isinstance(path, str) or not path or not all(path.split(".")):
            raise GridError(f"malformed override path {path!r}")
        try:
            config = _replace_path(config, path.split("."), value, path)
        except ValueError as exc:
            if isinstance(exc, GridError):
                raise
            raise GridError(f"{path}={value!r} rejected: {exc}") from exc
    return config


def _value_token(value: object) -> str:
    """The stable rendering of one axis value inside a scenario id."""
    if isinstance(value, _dt.date):
        return value.isoformat()
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ----------------------------------------------------------------------
# the grid
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GridAxis:
    """One swept dimension: a dotted field path and its values."""

    field: str
    values: Tuple[object, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if not isinstance(self.field, str) or not self.field:
            raise GridError(
                f"axis field must be a non-empty string, got {self.field!r}"
            )
        if not self.values:
            raise GridError(f"axis {self.field!r} has no values")


@dataclass(frozen=True)
class Scenario:
    """One grid cell: a stable id, its axis assignments, the config."""

    scenario_id: str
    overrides: Tuple[Tuple[str, object], ...]
    config: PipelineConfig

    def overrides_dict(self) -> Dict[str, object]:
        return dict(self.overrides)


class SweepGrid:
    """A base configuration plus the axes swept over it."""

    def __init__(self, base: PipelineConfig, axes: Sequence[GridAxis]) -> None:
        self.base = base
        self.axes = list(axes)
        seen: set = set()
        for axis in self.axes:
            if axis.field in seen:
                raise GridError(f"axis {axis.field!r} declared twice")
            seen.add(axis.field)
        # Validate every axis value eagerly: a bad path or out-of-range
        # value must fail at construction, not mid-sweep.
        for axis in self.axes:
            for value in axis.values:
                apply_overrides(base, {axis.field: value})

    def __len__(self) -> int:
        cells = 1
        for axis in self.axes:
            cells *= len(axis.values)
        return cells

    def expand(self) -> List[Scenario]:
        """Every grid cell, axes varying last-axis-fastest.

        Scenario ids are a pure function of the axis assignments
        (declaration order), so the same grid file expands to the same
        ids on every machine and every run.
        """
        scenarios: List[Scenario] = []
        fields = [axis.field for axis in self.axes]
        for combo in itertools.product(*(axis.values for axis in self.axes)):
            overrides = tuple(zip(fields, combo))
            scenario_id = ",".join(
                f"{field}={_value_token(value)}" for field, value in overrides
            ) or "base"
            scenarios.append(
                Scenario(
                    scenario_id=scenario_id,
                    overrides=overrides,
                    config=apply_overrides(self.base, dict(overrides)),
                )
            )
        return scenarios

    # ------------------------------------------------------------------
    # (de)serialization
    # ------------------------------------------------------------------
    def spec_dict(self) -> Dict[str, object]:
        """The JSON-shaped description used in sweep reports."""
        return {
            "schema_version": GRID_SCHEMA_VERSION,
            "axes": [
                {"field": axis.field, "values": list(axis.values)}
                for axis in self.axes
            ],
            "cells": len(self),
        }

    @staticmethod
    def _reject_unknown_keys(
        spec: Mapping[str, object], allowed: Tuple[str, ...], where: str
    ) -> None:
        """A typo'd key must not silently sweep the wrong configuration."""
        unknown = sorted(set(spec) - set(allowed))
        if unknown:
            raise GridError(
                f"unknown key(s) {', '.join(map(repr, unknown))} in {where} "
                f"(allowed: {', '.join(allowed)})"
            )

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SweepGrid":
        if not isinstance(data, Mapping):
            raise GridError("grid spec must be a JSON object")
        cls._reject_unknown_keys(
            data, ("schema_version", "base", "axes"), "the grid spec"
        )
        declared = data.get("schema_version", GRID_SCHEMA_VERSION)
        if declared != GRID_SCHEMA_VERSION:
            raise GridError(
                f"grid schema_version {declared!r} is not supported "
                f"(this build reads version {GRID_SCHEMA_VERSION})"
            )
        base_spec = data.get("base", {})
        if not isinstance(base_spec, Mapping):
            raise GridError("'base' must be an object")
        cls._reject_unknown_keys(base_spec, ("scale", "overrides"), "'base'")
        scale = base_spec.get("scale", "small")
        if scale not in _SCALES:
            raise GridError(
                f"base.scale must be one of {sorted(_SCALES)}, got {scale!r}"
            )
        base = PipelineConfig(dataset=_SCALES[scale]())
        base_overrides = base_spec.get("overrides", {})
        if not isinstance(base_overrides, Mapping):
            raise GridError("'base.overrides' must be an object")
        base = apply_overrides(base, base_overrides)

        axes_spec = data.get("axes")
        if axes_spec is None:
            raise GridError("grid spec is missing 'axes'")
        axes: List[GridAxis] = []
        if isinstance(axes_spec, Mapping):
            items: Sequence[Tuple[str, object]] = list(axes_spec.items())
        elif isinstance(axes_spec, Sequence) and not isinstance(axes_spec, (str, bytes)):
            items = []
            for entry in axes_spec:
                if not isinstance(entry, Mapping) or "field" not in entry or "values" not in entry:
                    raise GridError(
                        "each axis must be {'field': ..., 'values': [...]}"
                    )
                cls._reject_unknown_keys(entry, ("field", "values"), "an axis")
                items.append((entry["field"], entry["values"]))
        else:
            raise GridError("'axes' must be a list of axes or a field->values object")
        for field, values in items:
            if not isinstance(values, Sequence) or isinstance(values, (str, bytes)):
                raise GridError(f"axis {field!r} values must be a list")
            axes.append(GridAxis(field=field, values=tuple(values)))
        if not axes:
            raise GridError("grid has no axes")
        return cls(base, axes)

    @classmethod
    def from_json_file(cls, path: Union[str, Path]) -> "SweepGrid":
        path = Path(path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise GridError(f"grid file {path} does not exist") from None
        except json.JSONDecodeError as exc:
            raise GridError(f"grid file {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)
