"""The repository benchmark: one workload, every metric, output checks.

Usage, from the repository root::

    python3 perfbench/run.py --workload {paper,chaos,calib} --seed N \\
        --seconds S --trace {0,1} [--out FILE]

Each repetition runs cold in a fresh interpreter (``worker.py``), so the
experiments' ``lru_cache``, the platform registry and the campaign result
store start empty, as in a user's CLI run.

* ``--trace 0`` measures the end-to-end metrics: set-up probes, then
  repetitions for about ``--seconds`` (at least ``MIN_REPS``; a workload
  whose one repetition takes longer measures that one).
* ``--trace 1`` runs one untraced repetition, then traced ones with the
  layer wrappers of ``tracing.py``, and reports the per-layer metrics and
  the tracing overhead.

Every repetition's outputs are digested; all digests of a run must agree,
and so must every count a traced repetition makes.  The full record
(stamp, summaries, per-layer self times) is appended to ``--out``; the
last line of standard output is the JSON result object.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import summarize  # noqa: E402
from tracing import TIMED  # noqa: E402

WORKLOADS = ("paper", "chaos", "calib")

#: Repetitions a run makes at least, untraced / traced.
MIN_REPS = {"paper": 1, "chaos": 1, "calib": 4}
MIN_TRACED_REPS = {"paper": 1, "chaos": 1, "calib": 2}

#: Set-up-only interpreters started per untraced run, on top of the
#: set-up of every repetition.
SETUP_PROBES = 3

#: No repetition starts once a run is expected to pass this many seconds.
RUN_BUDGET_S = 150.0

#: A worker still running this many seconds into the run is killed and its
#: repetition failed, so every run ends well within three minutes.
RUN_LIMIT_S = 170.0

#: One thread per library: each workload runs on a single core.
SINGLE_THREAD_ENV = {
    name: "1" for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    )
}


class WorkerFailed(Exception):
    """A repetition's interpreter exited non-zero or printed no result."""


# ------------------------------------------------------------ workers


def spawn(workload: str, seed: int, mode: str, tmp_root: str, timeout_s: float) -> dict:
    """Run one worker interpreter; returns its record plus ``setup_s``:
    the raw time to the worker's first line (interpreter start) plus the
    host-normalised time from there to the first simulated tick."""
    rep_tmp = tempfile.mkdtemp(dir=tmp_root)
    env = {**os.environ, **SINGLE_THREAD_ENV}
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--mode", mode, "--tmp", rep_tmp,
    ]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, timeout_s),
        )
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} worker passed {timeout_s:.0f} s") from None
    finally:
        shutil.rmtree(rep_tmp, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(
            f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    record = json.loads(lines[-1])
    record["setup_s"] = record["t_boot"] - t_spawn + record["setup_norm_s"]
    return record


def wall_s(rep: dict) -> float:
    """Host-normalised wall time of a repetition's timed body."""
    return rep["wall_s"]


class Run:
    """The repetitions of one benchmark run and their failure accounting."""

    def __init__(self, workload: str, seed: int, tmp_root: str) -> None:
        self.workload = workload
        self.seed = seed
        self.tmp_root = tmp_root
        self.started = time.monotonic()
        self.setups: list[float] = []
        self.reps: list[dict] = []       # untraced
        self.traced: list[dict] = []
        self.crashes: list[str] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def _spawn(self, mode: str) -> dict | None:
        try:
            return spawn(
                self.workload, self.seed, mode, self.tmp_root,
                RUN_LIMIT_S - self.elapsed(),
            )
        except WorkerFailed as exc:
            self.crashes.append(str(exc))
            return None

    def probe_setup(self, count: int) -> None:
        for _ in range(count):
            rec = self._spawn("setup")
            if rec is not None:
                self.setups.append(rec["setup_s"])

    def repeat(self, mode: str, into: list, min_reps: int, window_s: float) -> None:
        """At least ``min_reps`` repetitions, then more while the next one
        (as long as the last) is expected to end within ``window_s``; none
        is started that the run budget cannot fit."""
        start = time.monotonic()
        last = 0.0
        while len(into) < min_reps or time.monotonic() - start + last <= window_s:
            if into and self.elapsed() + last > RUN_BUDGET_S:
                break
            t0 = time.monotonic()
            rec = self._spawn(mode)
            last = time.monotonic() - t0
            if rec is None:
                break
            into.append(rec)
            if mode == "run":
                self.setups.append(rec["setup_s"])

    # -------------------------------------------------------- correctness

    def check(self) -> tuple[int, int, list[str]]:
        """``(attempted, failed, problems)`` over every repetition."""
        reps = self.reps + self.traced
        problems = list(self.crashes)
        attempted = failed = 0
        reference = reps[0] if reps else None
        for rep in reps:
            n_units = len(rep["units"])
            attempted += n_units
            bad = min(n_units, len(rep["failures"]))
            problems += rep["failures"]
            if rep["digest"] != reference["digest"]:
                problems.append(f"output digest {rep['digest'][:12]} != {reference['digest'][:12]}")
                bad = n_units
            failed += bad
        if self.traced:
            counts = [layer_counts(rep["layers"]) for rep in self.traced]
            for rep, count in zip(self.traced[1:], counts[1:]):
                if count != counts[0]:
                    diff = sorted(k for k in count if count[k] != counts[0].get(k))
                    problems.append(f"traced counts differ between repetitions: {diff}")
                    failed += len(rep["units"])
        units_per_rep = len(reference["units"]) if reference else 1
        attempted += units_per_rep * len(self.crashes)
        failed += units_per_rep * len(self.crashes)
        return max(1, attempted), failed, problems


def layer_counts(layers: dict) -> dict:
    """Every count a traced repetition made: span calls and counters."""
    counts = {f"{name}.calls": s["calls"] for name, s in layers["spans"].items()}
    counts.update(layers["counters"])
    return counts


# ------------------------------------------------------------ metrics


def median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def end_to_end(run: Run, attempted: int, failed: int) -> tuple[dict, dict]:
    """``(values, summaries)`` of the end-to-end metrics."""
    reps = run.reps
    walls = [wall_s(rep) for rep in reps]
    units = [seconds for rep in reps for _, seconds, _ in rep["units"]]
    summaries = {
        "norm_wall_s": summarize(walls),
        "setup_s": summarize(run.setups),
        "norm_ms_per_sim_s": summarize(
            [1000.0 * wall_s(rep) / rep["sim_s"] for rep in reps if rep["sim_s"] > 0]
        ),
        "norm_run_tail_s": summarize(units),
        "peak_rss_mb": summarize([rep["rss_mb"] for rep in reps]),
        "raw_wall_s": summarize([rep["raw_wall_s"] for rep in reps]),
        "host_slowness": summarize([rep["host_slowness"] for rep in reps]),
    }
    values = {name: s["median"] for name, s in summaries.items()}
    values["norm_run_tail_s"] = summaries["norm_run_tail_s"]["tail_mean"]
    values["ok_ratio"] = 1.0 - failed / attempted
    return values, summaries


def per_layer(run: Run) -> tuple[dict, dict]:
    """``(values, self-time table)`` of the per-layer metrics, medians
    over the traced repetitions (counts are equal across them)."""
    per_rep = [layer_values(rep) for rep in run.traced]
    values = {name: median([v[name] for v in per_rep]) for name in per_rep[0]}
    untraced = median([wall_s(rep) for rep in run.reps])
    traced = median([wall_s(rep) for rep in run.traced])
    values["trace_overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    # Stage timings are the workload's own clock: take the untraced ones.
    stage_s = run.reps[0]["facts"].get("stage_s") if run.reps else None
    for stage in ("excite", "degrade", "fit_clean", "fit_robust"):
        values[f"calib.{stage}_s"] = (stage_s or {}).get(stage, 0.0)
    self_table = {
        name[len("self."):-len("_pct")]: value
        for name, value in values.items() if name.startswith("self.")
    }
    return values, self_table


def layer_values(rep: dict) -> dict:
    """Per-layer metrics of one traced repetition."""
    spans, counters, facts = rep["layers"]["spans"], rep["layers"]["counters"], rep["facts"]
    ticks = spans["kernel.tick"]["calls"]
    wall_ns = 1e9 * rep["raw_wall_s"]  # spans are raw clock readings

    def per_tick_us(name):
        return spans[name]["total_ns"] / 1e3 / ticks if ticks else 0.0

    def per_call_ms(name):
        calls = spans[name]["calls"]
        return spans[name]["total_ns"] / 1e6 / calls if calls else 0.0

    fires = spans["core.governor"]["calls"]
    scenarios = spans["campaign.scenario"]["calls"]
    cached_calls = counters["experiments.run_app"]
    values = {
        "sim.ticks": ticks,
        "apps.step_us": per_tick_us("apps.step"),
        "kernel.tick_us": per_tick_us("kernel.tick"),
        "kernel.scheduler_us": per_tick_us("kernel.scheduler"),
        "kernel.gpu_us": per_tick_us("kernel.gpu"),
        "kernel.cpufreq_us": per_tick_us("kernel.cpufreq"),
        "kernel.cpufreq.updates": spans["kernel.cpufreq"]["calls"],
        "kernel.zones_us": per_tick_us("kernel.zones"),
        "kernel.zones.polls": spans["kernel.zones"]["calls"],
        "kernel.cpuidle_us": per_tick_us("kernel.cpuidle"),
        "core.governor_us_per_fire": per_call_ms("core.governor") * 1e3,
        "core.governor.fires": fires,
        "core.fixed_point_evals_per_fire": (
            counters["core.fixed_point_evals"] / fires if fires else 0.0
        ),
        "core.governor.migrations": facts["migrations"],
        "soc.power_model_us": per_tick_us("soc.power_model"),
        "soc.opp.index_of_per_tick": counters["soc.opp.index_of"] / ticks if ticks else 0.0,
        "sim.power_stage_us": per_tick_us("sim.power_stage"),
        "sim.trace.records_per_tick": (
            spans["sim.trace_record"]["calls"] / ticks if ticks else 0.0
        ),
        "sim.trace_record_us": per_tick_us("sim.trace_record"),
        "thermal.step_us": per_tick_us("thermal.step"),
        "power.daq_us": per_tick_us("power.daq"),
        "power.energy_us": per_tick_us("power.energy"),
        "power.sensors_us": per_tick_us("power.sensors"),
        "faults.injected": facts["faults_injected"],
        "faults.limit_excess_c": facts.get("limit_excess_c", 0.0),
        "faults.hardening_regressions": facts.get("hardening_regressions", 0),
        "campaign.store_save_ms": per_call_ms("campaign.store_save"),
        "campaign.overhead_ms_per_run": (
            (spans["campaign.runner"]["total_ns"] - spans["campaign.scenario"]["total_ns"])
            / 1e6 / scenarios if scenarios else 0.0
        ),
        "obs.snapshot_ms": per_call_ms("obs.snapshot"),
        "obs.aggregate_ms": spans["obs.aggregate"]["total_ns"] / 1e6,
        "analysis.breakdown_ms": spans["analysis.breakdown"]["total_ns"] / 1e6,
        "experiments.sim_runs": spans["sim.run"]["calls"],
        "experiments.cached_calls": cached_calls,
        "experiments.useful_ratio": (
            spans["sim.run"]["calls"] / cached_calls if cached_calls else 0.0
        ),
        "experiments.paper_fps_err": facts.get("paper_fps_err", 0.0),
        "calib.fitted_ratio": facts.get("fitted_ratio", 0.0),
        "calib.param_err_pct": facts.get("param_err_pct", 0.0),
        "calib.clean_param_err_pct": facts.get("clean_param_err_pct", 0.0),
    }
    covered = 0
    for name in TIMED:
        covered += spans[name]["self_ns"]
        values[f"self.{name}_pct"] = 100.0 * spans[name]["self_ns"] / wall_ns
    values["self.other_pct"] = 100.0 * (wall_ns - covered) / wall_ns
    return values


# ------------------------------------------------------------ reporting


def host_ref_ms() -> float:
    """Median of three timings of a fixed pure-Python loop: a reading of
    host speed, to tell host drift from a code change between records."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i
        times.append(time.perf_counter() - t0)
    return 1000.0 * statistics.median(times)


def stamp(seed: int) -> dict:
    """Where and on what a result was measured."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "seed": seed,
    }


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def print_report(result: dict, spec_metrics: list[dict]) -> None:
    """Human-readable lines ahead of the JSON result."""
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}")
    print("stamp " + " ".join(f"{k}={v}" for k, v in result["stamp"].items()))
    for name, s in result.get("summaries", {}).items():
        print(
            f"  {name:<16} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
            f"  p{s['tail_pct']:g} {s['tail']:.6g}  tail mean {s['tail_mean']:.6g}  n={s['n']}"
        )
    for m in spec_metrics:
        print(f"  {m['name']:<36} {result['metrics'][m['name']]['value']:.6g} {m['unit']}")
    if result.get("self_time_pct"):
        print("  self time (% of traced wall):")
        for name, pct in sorted(result["self_time_pct"].items(), key=lambda kv: -kv[1]):
            print(f"    {name:<24} {pct:6.2f}")
    print(f"  digests {sorted(set(result['digests']))}")
    for finding in result["findings"]:
        print(f"  FINDING {finding}")
    for problem in result["problems"][:20]:
        print(f"  PROBLEM {problem}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", default=str(HERE / "out" / "results.jsonl"),
                        help="JSON-lines file the full record is appended to")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tmp_root = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    run = Run(args.workload, args.seed, tmp_root)
    ref_ms = host_ref_ms()
    try:
        if args.trace:
            run.repeat("run", run.reps, 1, 0.0)
            run.repeat("trace", run.traced, MIN_TRACED_REPS[args.workload], args.seconds)
        else:
            run.probe_setup(SETUP_PROBES)
            run.repeat("run", run.reps, MIN_REPS[args.workload], args.seconds)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    if not run.reps or (args.trace and not run.traced):
        for crash in run.crashes:
            print(crash, file=sys.stderr)
        return 1

    attempted, failed, problems = run.check()
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "stamp": {**stamp(args.seed), "host_ref_ms": ref_ms},
        "digests": [rep["digest"] for rep in run.reps + run.traced],
        "walls": {
            "untraced": [wall_s(rep) for rep in run.reps],
            "traced": [wall_s(rep) for rep in run.traced],
            "untraced_raw": [rep["raw_wall_s"] for rep in run.reps],
            "units": [[seconds for _, seconds, _ in rep["units"]] for rep in run.reps],
            "host_slowness": [rep["host_slowness"] for rep in run.reps + run.traced],
        },
        "problems": problems,
        "findings": sorted({f for rep in run.reps + run.traced for f in rep.get("findings", ())}),
    }
    if args.trace:
        spec_metrics = spec["per_layer"]
        values, self_table = per_layer(run)
        result["self_time_pct"] = self_table
    else:
        spec_metrics = spec["end_to_end"]
        values, result["summaries"] = end_to_end(run, attempted, failed)
    result["metrics"] = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in spec_metrics
    }
    result["layers"] = [rep["layers"] for rep in run.traced]
    print_report(result, spec_metrics)
    with open(args.out, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(result, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
