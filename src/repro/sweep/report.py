"""Cross-scenario sweep reports: delta tables and seed-variance flags.

A sweep produces one Section-3 report (and one Figure-2 improvement
summary) per grid cell; this module aggregates them into a single
cross-scenario report:

* a **delta table** per metric — min, max, spread and the per-scenario
  values — separating the metrics that actually respond to the swept
  axes from the ones that stay constant,
* **seed-variance statistics** — scenarios that differ *only* in a seed
  axis (``seed`` or any ``*.seed`` field) are grouped; every metric that
  varies within such a group is flagged (at fixed configuration those
  numbers are sampling noise) and reported as a **t-based 95%
  confidence interval** (mean ± t·s/√n across the repeated-seed cells),
  so a claim like "metric X responds to axis Y" can be checked against
  the interval instead of a yes/no flag, and
* the **cache accounting** of the execution (computed vs cached stage
  invocations, duplicate-compute check).

Reports serialize as JSON (``sort_keys=True`` plus a ``schema_version``
field, so golden files and cross-run diffs stay stable) and as a
markdown document for humans.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.sweep.executor import ScenarioResult, SweepResult
from repro.sweep.grid import SweepGrid

#: Bump when the sweep report JSON layout changes incompatibly.
#: v2: seed-variance groups gained per-metric t-based confidence
#: intervals (``metrics`` mapping inside each group).
#: v3: the ``executor`` and ``waves`` keys are gone — scenarios always
#: run one at a time, in declaration order.
#: v4: cells' ``correction`` blocks lost their source-sampling bound
#: (Figure 2 is always measured from every source).
SWEEP_REPORT_SCHEMA_VERSION = 4

#: Two-sided 95% Student-t critical values by degrees of freedom.
#: Seed groups are small (a handful of repeats), exactly where the
#: normal approximation is badly anti-conservative — hence t.
_T_95: Dict[int, float] = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
    11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
    16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
    21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060,
    26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
    40: 2.021, 60: 2.000, 120: 1.980,
}


def t_critical_95(df: int) -> float:
    """The two-sided 95% t quantile for ``df`` degrees of freedom.

    Between table rows the quantile of the largest tabulated df *not
    exceeding* the request is used — t decreases in df, so rounding the
    df down rounds the quantile (and every interval built from it)
    **up**: never anti-conservative.  df beyond the table keeps the
    df=120 value (1.980, a hair above the 1.960 normal tail).
    """
    if df < 1:
        raise ValueError("confidence intervals need at least 2 samples")
    if df in _T_95:
        return _T_95[df]
    floor = max(bound for bound in _T_95 if bound <= df)
    return _T_95[floor]


def confidence_interval(values: Sequence[float]) -> Dict[str, float]:
    """t-based mean ± 95% CI of one metric across repeated-seed cells.

    Returns ``{n, mean, stddev, ci95_half_width, ci95_low, ci95_high}``
    with the *sample* standard deviation (n-1 denominator).  Needs at
    least two values — one seed is a point estimate, not a sample.
    """
    n = len(values)
    if n < 2:
        raise ValueError("confidence intervals need at least 2 samples")
    mean = sum(values) / n
    variance = sum((value - mean) ** 2 for value in values) / (n - 1)
    stddev = variance ** 0.5
    half_width = t_critical_95(n - 1) * stddev / n ** 0.5
    return {
        "n": n,
        "mean": mean,
        "stddev": stddev,
        "ci95_half_width": half_width,
        "ci95_low": mean - half_width,
        "ci95_high": mean + half_width,
    }


def scenario_metrics(result: ScenarioResult) -> Dict[str, float]:
    """Flat metric dictionary of one scenario (``section3.*`` numbers
    plus the ``correction.*`` improvement summary)."""
    metrics: Dict[str, float] = {}
    if result.section3:
        metrics.update(result.section3)
    if result.correction:
        improvement = result.correction.get("improvement", {})
        for key, value in improvement.items():
            metrics[f"correction.{key}"] = value
    return metrics


def _is_seed_field(field: str) -> bool:
    return field == "seed" or field.endswith(".seed")


def _delta_table(
    ok_results: Sequence[ScenarioResult],
) -> Dict[str, Dict[str, object]]:
    """metric -> {min, max, spread, values-per-scenario}."""
    per_scenario = {r.scenario_id: scenario_metrics(r) for r in ok_results}
    metric_names = sorted({name for m in per_scenario.values() for name in m})
    table: Dict[str, Dict[str, object]] = {}
    for name in metric_names:
        values = {
            scenario_id: metrics[name]
            for scenario_id, metrics in per_scenario.items()
            if name in metrics
        }
        if not values:
            continue
        low, high = min(values.values()), max(values.values())
        table[name] = {
            "min": low,
            "max": high,
            "spread": high - low,
            "values": values,
        }
    return table


def _seed_variance(
    ok_results: Sequence[ScenarioResult],
) -> Dict[str, object]:
    """Group scenarios that differ only in seed axes; flag noisy metrics."""
    seed_fields = sorted(
        {f for r in ok_results for f in r.overrides if _is_seed_field(f)}
    )
    groups: Dict[Tuple[Tuple[str, object], ...], List[ScenarioResult]] = {}
    for result in ok_results:
        fixed = tuple(
            (f, v) for f, v in sorted(result.overrides.items()) if not _is_seed_field(f)
        )
        groups.setdefault(fixed, []).append(result)

    reported: List[Dict[str, object]] = []
    varying_union: set = set()
    for fixed, members in sorted(groups.items(), key=lambda item: repr(item[0])):
        if len(members) < 2:
            continue
        metric_sets = [scenario_metrics(m) for m in members]
        names = sorted(set().union(*metric_sets))
        varying = [
            name
            for name in names
            if len({metrics.get(name) for metrics in metric_sets}) > 1
        ]
        varying_union.update(varying)
        intervals: Dict[str, Dict[str, float]] = {}
        for name in names:
            values = [
                metrics[name]
                for metrics in metric_sets
                if isinstance(metrics.get(name), (int, float))
            ]
            if len(values) >= 2:
                intervals[name] = confidence_interval(values)
        reported.append(
            {
                "fixed": {field: value for field, value in fixed},
                "scenario_ids": [m.scenario_id for m in members],
                "varying_metrics": varying,
                "stable_metric_count": len(names) - len(varying),
                "metrics": intervals,
            }
        )
    return {
        "seed_fields": seed_fields,
        "groups": reported,
        "varying_metrics": sorted(varying_union),
    }


def build_report(
    sweep: SweepResult, grid: Optional[SweepGrid] = None
) -> Dict[str, object]:
    """The complete cross-scenario report of one sweep execution."""
    ok_results = sweep.ok()
    report: Dict[str, object] = {
        "schema_version": SWEEP_REPORT_SCHEMA_VERSION,
        "targets": list(sweep.targets),
        "cache_dir": sweep.cache_dir,
        "seconds": round(sweep.seconds, 4),
        "grid": grid.spec_dict() if grid is not None else None,
        "cache": {
            **sweep.cache_counters(),
            "total_stage_invocations": sweep.plan.total_stage_invocations(),
            "distinct_stage_invocations": sweep.plan.distinct_stage_invocations(),
            "duplicate_computes": sweep.duplicate_computes(),
            "fully_cached": sweep.fully_cached(),
            "sharing": sweep.plan.sharing_summary(),
        },
        "scenarios": {
            result.scenario_id: {
                "overrides": result.overrides,
                "status": result.status,
                "error": result.error,
                "seconds": round(result.seconds, 4),
                "computed_stages": sorted(result.computed_stages()),
                "cached_stages": sorted(
                    s for s, st in result.stage_statuses.items() if st == "cached"
                ),
                "section3": result.section3,
                "correction": result.correction,
            }
            for result in sweep.results
        },
        "deltas": _delta_table(ok_results),
        "seed_variance": _seed_variance(ok_results),
        "failures": {r.scenario_id: r.error for r in sweep.failed()},
    }
    return report


# ----------------------------------------------------------------------
# markdown rendering
# ----------------------------------------------------------------------
def _format_value(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def render_markdown(report: Dict[str, object]) -> str:
    """A human-readable markdown rendering of :func:`build_report`."""
    lines: List[str] = ["# Sweep report", ""]
    cache = report["cache"]
    scenarios = report["scenarios"]
    lines.append(
        f"{len(scenarios)} scenarios over targets "
        f"`{', '.join(report['targets'])}` in {report['seconds']}s."
    )
    lines.append(
        f"Stage invocations: {cache['computed']} computed, "
        f"{cache['cached']} cached "
        f"({cache['distinct_stage_invocations']} distinct of "
        f"{cache['total_stage_invocations']} total)."
    )
    if cache["duplicate_computes"] and report["cache_dir"] is not None:
        # A cache-less sweep recomputes shared fingerprints per cell by
        # design; only a cached sweep promises exactly-once.
        lines.append(
            f"**Warning:** {len(cache['duplicate_computes'])} fingerprints "
            "were computed more than once (an artifact was evicted from "
            "the cache before a later scenario needed it)."
        )
    if cache["fully_cached"]:
        lines.append("Fully cached: nothing was recomputed.")
    lines.append("")

    lines.append("## Scenarios")
    lines.append("")
    lines.append("| scenario | status | computed | cached | seconds |")
    lines.append("|---|---|---:|---:|---:|")
    for scenario_id, data in scenarios.items():
        lines.append(
            f"| `{scenario_id}` | {data['status']} "
            f"| {len(data['computed_stages'])} | {len(data['cached_stages'])} "
            f"| {data['seconds']} |"
        )
    lines.append("")

    deltas: Dict[str, Dict[str, object]] = report["deltas"]
    varying = {name: row for name, row in deltas.items() if row["spread"] != 0}
    constant = len(deltas) - len(varying)
    lines.append("## Metric deltas across scenarios")
    lines.append("")
    if varying:
        lines.append("| metric | min | max | spread |")
        lines.append("|---|---:|---:|---:|")
        for name, row in varying.items():
            lines.append(
                f"| `{name}` | {_format_value(row['min'])} "
                f"| {_format_value(row['max'])} | {_format_value(row['spread'])} |"
            )
        lines.append("")
        lines.append("Per-scenario values of the varying metrics:")
        lines.append("")
        ids = list(scenarios)
        lines.append("| metric | " + " | ".join(f"`{i}`" for i in ids) + " |")
        lines.append("|---|" + "---:|" * len(ids))
        for name, row in varying.items():
            cells = [
                _format_value(row["values"].get(scenario_id, ""))
                for scenario_id in ids
            ]
            lines.append(f"| `{name}` | " + " | ".join(cells) + " |")
    else:
        lines.append("No metric varies across the grid.")
    if constant:
        lines.append("")
        lines.append(f"{constant} metrics are identical across every scenario.")
    lines.append("")

    variance = report["seed_variance"]
    lines.append("## Seed variance at fixed configuration")
    lines.append("")
    if not variance["groups"]:
        lines.append(
            "No scenario group differs only in a seed axis — nothing to flag."
        )
    elif not variance["varying_metrics"]:
        lines.append(
            "Every metric is identical across seeds at fixed configuration."
        )
    else:
        lines.append(
            "Metrics that change when **only the seed** changes are sampling "
            "noise; across the repeated-seed cells they are estimated as "
            "t-based mean ± 95% CI:"
        )
        for group in variance["groups"]:
            if not group["varying_metrics"]:
                continue
            fixed = (
                ", ".join(
                    f"{field}={_format_value(value)}"
                    for field, value in group["fixed"].items()
                )
                or "(base config)"
            )
            lines.append("")
            lines.append(f"At {fixed} ({len(group['scenario_ids'])} seeds):")
            lines.append("")
            lines.append("| metric | n | mean | ± 95% CI | interval |")
            lines.append("|---|---:|---:|---:|---:|")
            for name in group["varying_metrics"]:
                interval = group["metrics"].get(name)
                if interval is None:
                    continue
                lines.append(
                    f"| `{name}` | {interval['n']} "
                    f"| {_format_value(interval['mean'])} "
                    f"| {_format_value(interval['ci95_half_width'])} "
                    f"| [{_format_value(interval['ci95_low'])}, "
                    f"{_format_value(interval['ci95_high'])}] |"
                )
            stable = group["stable_metric_count"]
            if stable:
                lines.append("")
                lines.append(
                    f"{stable} further metrics are seed-stable in this group."
                )
    lines.append("")

    failures: Dict[str, str] = report["failures"]
    if failures:
        lines.append("## Failures")
        lines.append("")
        for scenario_id, error in failures.items():
            lines.append(f"- `{scenario_id}`: {error}")
        lines.append("")
    return "\n".join(lines)
