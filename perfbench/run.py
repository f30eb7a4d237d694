"""Benchmark of the paper pipeline, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_cold --seed 1 --seconds 25 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``paper_cold``   -- ``repro section3 --paper-scale`` on a fresh, empty cache;
* ``figure2_warm`` -- ``repro figure2 --paper-scale --top T`` on a copy of a
  cache filled in setup, with a distinct ``T`` per op;
* ``seed_grid``    -- ``repro sweep --executor serial`` over a
  ``dataset.seed x top`` grid on a fresh cache.

Every op is one child process, timed from spawn to exit.  ``--trace 0``
runs the ops as ``python -m repro`` and prints the end-to-end metrics;
``--trace 1`` runs each op twice, plain and under
``perfbench/traced_op.py``, and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--seed`` fixes the order of the ops and nothing else: the set of ops
is the same in every run, so runs with different seeds do identical
work.  ``--seconds`` sets the number of ops through the nominal cost of
one op (``Workload.nominal_op_s``), so a run measures about that long
on the reference host and equal ``--seconds`` always mean equal work.
``--small`` swaps the paper-scale data for the small preset (smoke
tests only).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Every op must have exited this long after the run started; a hung op
#: is killed so the run still reports within its time limit.
RUN_BUDGET_S = 170.0

#: Mean time of one ``speed_probe.py`` loop beside the ops on the
#: reference host (a 2-CPU container) at its typical speed.  Reported
#: times are rescaled to this speed; see ``SpeedProbe``.
REFERENCE_KERNEL_S = 0.0006

END_TO_END = {
    "wall_s": "s",
    "op_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

PER_LAYER = {
    "bgp.v4_s": "s",
    "bgp.v6_s": "s",
    "bgp.events": "count",
    "bgp.fallbacks": "count",
    "topology.s": "s",
    "irr.s": "s",
    "scenario.s": "s",
    "collectors.s": "s",
    "collectors.records": "count",
    "store.s": "s",
    "store.observations": "count",
    "inference.s": "s",
    "views.s": "s",
    "section3.s": "s",
    "correction.s": "s",
    "correction.steps": "count",
    "cache.verify_s": "s",
    "cache.load_s": "s",
    "cache.store_s": "s",
    "cache.bytes_read": "bytes",
    "cache.bytes_written": "bytes",
    "cache.hit_ratio": "ratio",
    "sweep.plan_s": "s",
    "sweep.dedup_ratio": "ratio",
    "process.unattributed_s": "s",
    "runtime.gc_s": "s",
    "runtime.gc_collections": "count",
    "trace.overhead_s": "s",
    "error_rate": "ratio",
}

#: The paper's Section-3 coverage figures, printed beside the
#: reproduction's for information only (never pass/fail).
PAPER_SHAPE = {"ipv6_coverage": 0.72, "dual_stack_coverage": 0.81}


class OutputMismatch(Exception):
    """An op's output differs from another op's output for the same inputs."""


@dataclass
class Op:
    """One ``repro`` invocation: CLI arguments and the JSON it writes."""

    args: List[str]
    output: Path


@dataclass
class OpResult:
    op: Op
    traced: bool
    started: float  # time.perf_counter() at spawn
    wall_s: float  # as measured, spawn to exit
    rss_mb: float
    error: Optional[str] = None
    layers: Optional[Dict[str, float]] = None


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def canonical(value: object) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def report_outputs(scale: str, args: Sequence[str], payload: dict) -> List[Tuple[str, object]]:
    """The checkable parts of one op's JSON report, keyed by their inputs.

    A ``section3`` report yields its Section-3 table, a ``figure2``
    report its correction series and a sweep report both, per cell.
    The ``provenance`` block and timings are left out: they may differ
    between runs of the same inputs.  Keys name every input the value
    depends on, so equal keys must carry equal values -- whichever
    command produced them.  That is how a sweep cell is checked against
    the standalone CLI run of the same ``(seed, top)``.
    """
    command = args[0]
    if command == "section3":
        seed = payload["config"]["seed"]
        return [(f"{scale} section3 topology={seed} seed={seed}", payload["section3"])]
    if command == "figure2":
        seed = payload["config"]["seed"]
        top = payload["figure2"]["top"]
        if str(top) != args[args.index("--top") + 1]:
            raise ValueError(f"figure2 report is for top={top}, not the requested top")
        return [
            (f"{scale} figure2 topology={seed} seed={seed} top={top}", payload["figure2"])
        ]
    if command == "sweep":
        if payload["failures"]:
            raise ValueError(f"sweep reported failures: {payload['failures']}")
        outputs = []
        for cell in payload["scenarios"].values():
            if cell["error"] is not None:
                raise ValueError(f"sweep cell failed: {cell['error']}")
            o = cell["overrides"]
            inputs = f"topology={o['dataset.topology.seed']} seed={o['dataset.seed']}"
            outputs.append((f"{scale} section3 {inputs}", cell["section3"]))
            outputs.append((f"{scale} figure2 {inputs} top={o['top']}", cell["correction"]))
        if len(outputs) != 2 * payload["grid"]["cells"]:
            raise ValueError("sweep report is missing cells")
        return outputs
    raise ValueError(f"no output check for command {command!r}")


class OutputBook:
    """Equal inputs must give equal outputs, within a run and across runs.

    Within a run the first value seen for a key is the reference.
    Across runs, digests persist in a ledger keyed by a digest of the
    program's source, so a code change starts a fresh ledger.
    """

    def __init__(self, ledger_path: Optional[Path]) -> None:
        self.values: Dict[str, str] = {}
        self.ledger_path = ledger_path
        self.ledger: Dict[str, str] = {}
        self.source = source_digest()
        if ledger_path is not None and ledger_path.is_file():
            self.ledger = json.loads(ledger_path.read_text(encoding="utf-8"))

    def check(self, key: str, value: object) -> None:
        text = canonical(value)
        if self.values.setdefault(key, text) != text:
            raise OutputMismatch(f"{key}: differs from an earlier op of this run")
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if self.ledger.setdefault(f"{self.source} {key}", digest) != digest:
            raise OutputMismatch(f"{key}: differs from an earlier run of this code")

    def save(self) -> None:
        if self.ledger_path is None:
            return
        temp = self.ledger_path.with_suffix(".tmp")
        temp.write_text(json.dumps(self.ledger, sort_keys=True, indent=0), encoding="utf-8")
        temp.replace(self.ledger_path)


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# running ops
# ----------------------------------------------------------------------
class Harness:
    """Spawns ops one at a time in a private work directory and checks them."""

    def __init__(self, workdir: Path, scale: str, book: OutputBook, deadline: float) -> None:
        self.workdir = workdir
        self.scale = scale
        self.book = book
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.info: List[str] = []
        self._serial = 0

    @property
    def scale_flag(self) -> str:
        return "--paper-scale" if self.scale == "paper" else "--small"

    def path(self, stem: str) -> Path:
        """A fresh path in the work directory (nothing is created)."""
        self._serial += 1
        return self.workdir / f"{self._serial:04d}-{stem}"

    def spawn(self, op: Op, traced: bool = False) -> OpResult:
        """Run one op; time it from spawn to exit; check its output."""
        log = self.path("stderr.log")
        layers = self.path("layers.json")
        if traced:
            command = [sys.executable, str(HERE / "traced_op.py"), str(layers), "--", *op.args]
        else:
            command = [sys.executable, "-m", "repro", *op.args]
        with open(log, "wb") as stderr:
            started = time.perf_counter()
            process = subprocess.Popen(
                command, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=stderr
            )
            watchdog = threading.Timer(max(1.0, self.deadline - time.monotonic()), process.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(process.pid, 0)
            except BaseException:
                process.kill()
                process.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - started
        process.returncode = os.waitstatus_to_exitcode(status)
        result = OpResult(op, traced, started, wall, usage.ru_maxrss / 1024.0)
        if process.returncode != 0:
            lines = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
            result.error = f"exit {process.returncode}: {lines[-1] if lines else 'no stderr'}"
            return result
        try:
            payload = json.loads(op.output.read_text(encoding="utf-8"))
            for key, value in report_outputs(self.scale, op.args, payload):
                self.book.check(key, value)
            self._note(op, payload)
            if traced:
                clock = json.loads(layers.read_text(encoding="utf-8"))
                result.layers = layer_values(clock, wall, payload)
                for engine in clock["engines"]:
                    self._inform(
                        f"info: {engine['stage']}: engine {engine['engine']} ran "
                        f"backend {engine['backend']}, fallback: "
                        f"{engine['fallback_reason'] or 'none'}"
                    )
        except (OSError, ValueError, KeyError, TypeError, OutputMismatch) as exc:
            result.error = f"{type(exc).__name__}: {exc}"
        return result

    def warm_up(self, op: Op) -> None:
        """Run a setup op; its output becomes the reference for its inputs."""
        result = self.spawn(op)
        if result.error is not None:
            raise RuntimeError(f"setup op {' '.join(op.args)} failed: {result.error}")

    def _note(self, op: Op, payload: dict) -> None:
        """Record the paper-shape values of a Section-3 report as information."""
        if op.args[0] != "section3":
            return
        table = payload["section3"]
        shape = ", ".join(
            f"{name}={table[name]:.3f}"
            + (f" (paper {PAPER_SHAPE[name]:.2f})" if name in PAPER_SHAPE else "")
            for name in ("ipv6_coverage", "dual_stack_coverage", "hybrid_fraction",
                         "hybrid_share_peer4_transit6", "hybrid_share_peer6_transit4")
        )
        self._inform(f"info: {self.scale} seed={payload['config']['seed']}: {shape}")

    def _inform(self, line: str) -> None:
        if line not in self.info:
            self.info.append(line)


def layer_values(clock: dict, wall_s: float, payload: dict) -> Dict[str, float]:
    """Per-layer values of one traced op (see ``traced_op.py``)."""
    values = {name: 0.0 for name in PER_LAYER}
    for layer, seconds in clock["self_s"].items():
        if seconds < -1e-6:
            raise ValueError(f"negative self time {seconds} for {layer}")
        if layer in values:
            values[layer] = seconds
    counts = clock["counts"]
    for name in ("bgp.events", "collectors.records", "store.observations",
                 "correction.steps", "cache.bytes_read", "cache.bytes_written"):
        values[name] = counts.get(name, 0.0)
    calls = counts.get("cache.verify_calls", 0.0)
    values["cache.hit_ratio"] = counts.get("cache.verify_hits", 0.0) / calls if calls else 0.0
    total = counts.get("sweep.total_invocations", 0.0)
    values["sweep.dedup_ratio"] = (
        counts.get("sweep.distinct_invocations", 0.0) / total if total else 1.0
    )
    values["process.unattributed_s"] = wall_s - clock["layer_total_s"]
    if values["process.unattributed_s"] < 0:
        raise ValueError("traced layers add up to more than the op's wall time")
    values["runtime.gc_s"] = clock["gc_s"]
    values["runtime.gc_collections"] = clock["gc_collections"]
    engines = clock["engines"]
    values["bgp.fallbacks"] = sum(1 for e in engines if e["fallback_reason"] is not None)
    provenance = payload.get("provenance")
    if provenance is not None:
        # The report's provenance block is the program's own account of
        # which backend ran per plane; the clock saw the runs happen.
        ran = {e["stage"].replace("propagation_", "ip"): e["backend"] for e in engines}
        stated = {plane: entry["backend"] for plane, entry in provenance.items()}
        if ran and ran != stated:
            raise ValueError(f"provenance {stated} disagrees with the engines that ran {ran}")
    return values


class SpeedProbe:
    """Runs ``speed_probe.py`` on the ops' CPU and rescales their times.

    The host's CPU speed drifts by tens of percent over minutes, because
    of neighbours this container cannot see (CPU time tracks wall time,
    so it is not steal the guest could subtract).  The probe shares the
    ops' CPU and slows with them at the same moments.  A time is
    reported as its measured seconds times ``REFERENCE_KERNEL_S`` over
    the probe's mean loop time within the same interval: the seconds it
    would have taken at the reference host's typical speed.  The probe
    does not depend on the program, so a program change moves the
    rescaled time by the same share as the measured one, except that the
    probe's loop also feels the caches its co-runner uses (a bias of a
    few percent, measured in ``README.md``).
    """

    def __init__(self, log: Path) -> None:
        self.log = log
        self.samples: List[Tuple[float, float]] = []
        self.process = subprocess.Popen([sys.executable, str(HERE / "speed_probe.py"), str(log)])

    def stop(self) -> None:
        self.process.terminate()
        self.process.wait()
        self.samples = [
            (float(start), float(seconds))
            for start, seconds in (line.split() for line in self.log.read_text().splitlines())
        ]

    def speed(self, start: float, end: float) -> float:
        """Host speed in ``[start, end)`` relative to the reference (1 = as fast)."""
        loops = [seconds for at, seconds in self.samples if start <= at < end]
        if len(loops) < 3:
            raise RuntimeError(f"the speed probe took {len(loops)} samples in a {end - start:.2f} s window")
        return REFERENCE_KERNEL_S / statistics.fmean(loops)

    def rescaled(self, start: float, end: float) -> float:
        return (end - start) * self.speed(start, end)


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
#: Dataset seeds of ``paper_cold``, cycled to the number of ops.
PAPER_COLD_SEEDS = (1, 2, 7)
#: Dataset seed of ``figure2_warm``; op ``i`` corrects ``FIRST_TOP + i`` links.
FIGURE2_SEED = 7
FIRST_TOP = 10
#: ``seed_grid`` axes.  The topology seed is pinned to the first dataset
#: seed, so that row equals the standalone CLI run (``--seed S`` sets
#: both seeds) and both rows share the topology stage.
GRID_SEEDS = (7, 8)
GRID_TOPS = (5, 10)


@dataclass(frozen=True)
class Workload:
    name: str
    #: Seconds one op takes at paper scale on the reference host (a 2-CPU
    #: container); ``--seconds`` / this = ops per run.
    nominal_op_s: float
    setup: Callable[["Harness", random.Random, int, int], List[List[Op]]]


def setup_paper_cold(h: Harness, rng: random.Random, n_ops: int, variants: int) -> List[List[Op]]:
    seeds = [PAPER_COLD_SEEDS[i % len(PAPER_COLD_SEEDS)] for i in range(n_ops)]
    order = rng.sample(seeds, n_ops)

    def op(seed: int) -> Op:
        cache = h.path("cache")
        cache.mkdir()
        output = h.path("section3.json")
        return Op(["section3", h.scale_flag, "--seed", str(seed), "--cache-dir", str(cache),
                   "--json", str(output)], output)

    h.warm_up(op(order[0]))
    return [[op(seed) for _ in range(variants)] for seed in order]


def setup_figure2_warm(h: Harness, rng: random.Random, n_ops: int, variants: int) -> List[List[Op]]:
    template = h.path("template-cache")
    fill = h.path("section3.json")
    h.warm_up(Op(["section3", h.scale_flag, "--seed", str(FIGURE2_SEED), "--cache-dir",
                  str(template), "--json", str(fill)], fill))
    tops = rng.sample(range(FIRST_TOP, FIRST_TOP + n_ops), n_ops)

    def op(top: int) -> Op:
        cache = h.path("warm-cache")
        shutil.copytree(template, cache)
        output = h.path("figure2.json")
        return Op(["figure2", h.scale_flag, "--seed", str(FIGURE2_SEED), "--top", str(top),
                   "--cache-dir", str(cache), "--json", str(output)], output)

    h.warm_up(op(tops[0]))
    return [[op(top) for _ in range(variants)] for top in tops]


def setup_seed_grid(h: Harness, rng: random.Random, n_ops: int, variants: int) -> List[List[Op]]:
    first = GRID_SEEDS[0]
    grid = h.path("grid.json")
    grid.write_text(json.dumps({
        "schema_version": 1,
        "base": {"scale": h.scale},
        "axes": [
            {"field": "dataset.topology.seed", "values": [first]},
            {"field": "dataset.seed", "values": rng.sample(GRID_SEEDS, len(GRID_SEEDS))},
            {"field": "top", "values": rng.sample(GRID_TOPS, len(GRID_TOPS))},
        ],
    }), encoding="utf-8")
    # Warm-up: the standalone CLI runs the first row's cells must equal.
    cache = h.path("reference-cache")
    output = h.path("section3.json")
    h.warm_up(Op(["section3", h.scale_flag, "--seed", str(first), "--cache-dir", str(cache),
                  "--json", str(output)], output))
    for top in GRID_TOPS:
        output = h.path("figure2.json")
        h.warm_up(Op(["figure2", h.scale_flag, "--seed", str(first), "--top", str(top),
                      "--cache-dir", str(cache), "--json", str(output)], output))

    def op() -> Op:
        cache = h.path("cache")
        cache.mkdir()
        output = h.path("sweep.json")
        return Op(["sweep", "--grid", str(grid), "--executor", "serial", "--cache-dir",
                   str(cache), "--json", str(output)], output)

    return [[op() for _ in range(variants)] for _ in range(n_ops)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper_cold", 8.5, setup_paper_cold),
        Workload("figure2_warm", 2.5, setup_figure2_warm),
        Workload("seed_grid", 22.0, setup_seed_grid),
    )
}


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def measure(h: Harness, ops: List[List[Op]], traced: bool) -> Tuple[List[OpResult], Tuple[float, float]]:
    """Run the ops (plain, or plain + traced pairs); returns the loop's interval."""
    results: List[OpResult] = []
    started = time.perf_counter()
    for index, variants in enumerate(ops):
        if not traced:
            results.append(h.spawn(variants[0]))
            continue
        # Alternate which side of a pair runs first, so drift during
        # the run does not bias the traced-minus-plain difference.
        sides = [(variants[0], False), (variants[1], True)]
        for op, is_traced in sides if index % 2 == 0 else reversed(sides):
            results.append(h.spawn(op, traced=is_traced))
    return results, (started, time.perf_counter())


def op_seconds(probe: SpeedProbe, result: OpResult) -> float:
    return probe.rescaled(result.started, result.started + result.wall_s)


def end_to_end_metrics(results: List[OpResult], probe: SpeedProbe,
                       loop: Tuple[float, float], setup: Tuple[float, float]) -> Dict[str, float]:
    failed = sum(1 for r in results if r.error is not None)
    return {
        "wall_s": probe.rescaled(*loop),
        "op_p50_s": statistics.median(op_seconds(probe, r) for r in results),
        "setup_s": probe.rescaled(*setup),
        "peak_rss_mb": max(r.rss_mb for r in results),
        "success_rate": (len(results) - failed) / len(results),
    }


def per_layer_metrics(results: List[OpResult], probe: SpeedProbe) -> Dict[str, float]:
    traced = [r for r in results if r.traced and r.layers is not None]
    for r in traced:  # layer seconds are rescaled like the op's
        speed = probe.speed(r.started, r.started + r.wall_s)
        for name, unit in PER_LAYER.items():
            if unit == "s":
                r.layers[name] *= speed
    metrics = {
        name: statistics.median(r.layers[name] for r in traced) if traced else 0.0
        for name in PER_LAYER
    }
    overheads = []
    for index in range(0, len(results), 2):  # measure() appends pairs
        by_side = {r.traced: r for r in results[index:index + 2]}
        overheads.append(op_seconds(probe, by_side[True]) - op_seconds(probe, by_side[False]))
    metrics["trace.overhead_s"] = statistics.median(overheads) if overheads else 0.0
    failed = sum(1 for r in results if r.error is not None)
    metrics["error_rate"] = failed / len(results)
    return metrics


def run(args: argparse.Namespace) -> dict:
    workload = WORKLOADS[args.workload]
    n_ops = max(1, round(args.seconds / workload.nominal_op_s))
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    book = OutputBook(WORK / "outputs.json")
    h = Harness(workdir, "small" if args.small else "paper", book,
                deadline=time.monotonic() + RUN_BUDGET_S)
    # The harness, the ops and the speed probe share one CPU (children
    # inherit the affinity), so the probe sees the ops' CPU speed.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        workdir.mkdir()
        probe = SpeedProbe(workdir / "speed.log")
        try:
            setup_started = time.perf_counter()
            ops = workload.setup(h, random.Random(args.seed), n_ops, 2 if args.trace else 1)
            setup = (setup_started, time.perf_counter())
            results, loop = measure(h, ops, bool(args.trace))
        finally:
            probe.stop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    book.save()

    for line in h.info:
        print(line)
    for result in results:
        if result.error is not None:
            print(f"FAILED: {' '.join(result.op.args[:4])}: {result.error}")
    print(f"{workload.name}: {len(results)} ops ({n_ops} inputs); as measured: "
          f"{loop[1] - loop[0]:.2f} s timed for --seconds {args.seconds}, "
          f"op p50 {statistics.median(r.wall_s for r in results):.2f} s, "
          f"setup {setup[1] - setup[0]:.2f} s; host speed {probe.speed(setup[0], loop[1]):.3f} "
          "of the reference")
    if args.trace:
        metrics = per_layer_metrics(results, probe)
        units = PER_LAYER
    else:
        metrics = end_to_end_metrics(results, probe, loop, setup)
        units = END_TO_END
    failed = sum(1 for r in results if r.error is not None)
    return {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="small preset instead of paper-scale data (smoke tests)")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
