"""The benchmark's three workloads, each a closed batch job on one process.

Every workload has the same shape:

* ``setup()`` — imports, platform registry, spec expansion: everything a
  user's CLI run pays before its first simulated tick (``setup_s``);
* ``run()`` — the timed body, through the package's public API only;
* ``check(out)`` — after the clock stops: output digest, physical sanity
  checks, fidelity figures and output-derived counts.

``run()`` returns ``units`` per unit of work (one scenario in
``paper``/``chaos``, one platform pipeline in ``calib``) — either
``(label, start, end, error or None)`` with ``time.perf_counter()``
readings, or ``(label, raw seconds, error or None)`` where the span is not
known — plus whatever ``check`` needs.  The worker turns every unit into
host-normalised seconds (:mod:`hostclock`) before ``check`` sees
``(label, seconds, error)``.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
import time

import numpy as np

from repro.calib import BUILTIN_MODELS, fit_platform, run_excitation
from repro.campaign.presets import chaos_campaign
from repro.campaign.runner import CampaignRunner
from repro.campaign.store import ResultStore
from repro.experiments import fig7, nexus
from repro.apps.catalog import popular_app_names
from repro.faults.report import resilience_report
from repro.soc import registry

from hostclock import CLOCK

#: Apps behind the paper's Figures 1-6 (temperature + residency pairs).
FIGURE_APPS = ("paperio", "stickman", "amazon")

#: Degradation models whose traces are fitted robustly: the models inside
#: the documented recovery regime.  ``harsh`` is degraded (timed) but not
#: fitted: its fit can raise while assembling the definition.
ROBUST_FIT_MODELS = ("noisy-sysfs", "sysfs")

#: Model behind ``param_err_pct`` — the closed-loop robustness contract's.
CONTRACT_MODEL = "noisy-sysfs"

#: Parameter-recovery tolerances of the clean and robust contracts.
CLEAN_TOL = 0.05
ROBUST_TOL = 0.10


# ------------------------------------------------------------ digests


def canonical(obj):
    """JSON-native, order-stable form of workload outputs for hashing.

    Floats keep every digit (``json`` writes ``repr``); arrays become the
    SHA-256 of their float64 bytes; finished simulations are dropped.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj) if f.name != "sim"
        }
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj, dtype=np.float64)
        return {"shape": list(data.shape), "sha256": hashlib.sha256(data.tobytes()).hexdigest()}
    if isinstance(obj, enum.Enum):
        return obj.name
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def digest(obj) -> str:
    """SHA-256 of the canonical JSON of ``obj``."""
    text = json.dumps(canonical(obj), sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _timed_unit(units: list, label: str, fn):
    """Run one unit of work, recording its span and any exception."""
    t0 = time.perf_counter()
    try:
        value = fn()
        error = None
    except Exception as exc:  # a failed unit is counted, not fatal
        value, error = None, f"{type(exc).__name__}: {exc}"
    units.append((label, t0, time.perf_counter(), error))
    return value


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


# ------------------------------------------------------------- paper


class Paper:
    """The Nexus 6P paper artefacts through :mod:`repro.experiments`:
    Table I and Figures 1-6, plus Figure 7.  Table II and Figures 8-9 (six
    Odroid-XU3 runs of 250-400 simulated seconds) do not fit the time a
    run may take."""

    def __init__(self, seed: int, tmp: str) -> None:
        self.seed = seed

    def setup(self) -> None:
        self.units = [
            (app, throttled)
            for app in popular_app_names() for throttled in (False, True)
        ]

    def run(self) -> dict:
        seed = self.seed
        units: list = []
        runs = []
        for app, throttled in self.units:
            label = f"{app}/{'stock' if throttled else 'none'}"
            runs.append(_timed_unit(units, label, lambda: nexus.run_app(app, throttled, seed)))
        try:
            artefacts = {
                "table1": nexus.table1(seed),
                "figures1_6": {
                    app: {
                        "temperature": nexus.temperature_profiles(app, seed),
                        "residency": nexus.residency_comparison(app, seed),
                    }
                    for app in FIGURE_APPS
                },
                "figure7": fig7.figure7(),
            }
            error = None
        except Exception as exc:
            artefacts, error = None, f"{type(exc).__name__}: {exc}"
        return {"units": units, "runs": runs, "artefacts": artefacts, "error": error}

    def check(self, out: dict) -> dict:
        failures = [f"{label}: {err}" for label, _, err in out["units"] if err]
        if out["error"]:
            failures.append(f"artefacts: {out['error']}")
        runs = []
        for (label, _, _), run in zip(out["units"], out["runs"]):
            if run is None:
                continue
            runs.append(run)
            if not _finite(run.temperature.y):
                failures.append(f"{label}: non-finite temperature")
        artefacts = out["artefacts"] or {}
        errs = []
        for row in artefacts.get("table1", ()):
            if not (row.fps_without > 0.0 and row.fps_with > 0.0):
                failures.append(f"table1 {row.app}: zero FPS")
            errs += [abs(row.fps_without - row.paper_fps_without),
                     abs(row.fps_with - row.paper_fps_with)]
        if "figure7" in artefacts:
            # Paper: two fixed points at 2 W, (nearly) merged at 5.5 W, none at 8 W.
            low, crit, high = artefacts["figure7"]
            merged = crit.n_roots == 1 or (
                crit.n_roots == 2
                and crit.report.stable_aux - crit.report.unstable_aux < 0.15
            )
            if (low.n_roots, high.n_roots) != (2, 0) or not merged:
                failures.append(
                    f"figure7: root counts {(low.n_roots, crit.n_roots, high.n_roots)}"
                )
        return {
            "failures": failures,
            "digest": digest(artefacts),
            "sim_s": sum(run.sim.clock.now for run in runs),
            "facts": {
                "paper_fps_err": sum(errs) / len(errs) if errs else 0.0,
                "migrations": 0,
                "faults_injected": 0,
            },
        }


# ------------------------------------------------------------- chaos


#: Simulated seconds per ``chaos`` run: the shortest in which every
#: built-in plan's window opens, acts and heals (``eio-burst`` heals at
#: 12 s and the failsafe exits 5 s later).  The preset's 25 s default does
#: not fit the time a benchmark run may take.
CHAOS_DURATION_S = 18.0


def _stamp_saves() -> dict:
    """Wrap ``ResultStore.save`` to note when each key is filed.  The
    runner saves a run right after timing it, so the note places the run's
    ``elapsed_s`` on the host clock.  One dict write per run; the worker is
    a fresh interpreter, so the wrapper is never removed."""
    saved_at: dict[str, float] = {}
    original = ResultStore.save

    def save(store, key, *args, **kwargs):
        saved_at[key] = time.perf_counter()
        return original(store, key, *args, **kwargs)

    ResultStore.save = save
    return saved_at


class Chaos:
    """The ``chaos`` campaign preset at ``jobs=1`` into a fresh store, then
    its resilience report — ``repro chaos --jobs 1 --duration 18``."""

    def __init__(self, seed: int, tmp: str) -> None:
        self.seed = seed
        self.store = tmp

    def setup(self) -> None:
        spec = chaos_campaign(duration_s=CHAOS_DURATION_S, seed=self.seed)
        self.runner = CampaignRunner(spec, self.store, jobs=1)
        self.saved_at = _stamp_saves()

    def run(self) -> dict:
        report = self.runner.run()
        results = self.runner.results()
        resilience = resilience_report(self.runner.runs, results)
        units = []
        for r in report.records:
            error = None if r.status == "completed" else f"{r.status}: {r.failure}"
            end = self.saved_at.get(r.key)
            elapsed = r.elapsed_s or 0.0
            # A failed run is not saved: its raw seconds stand alone.
            units.append(
                (r.run_id, elapsed, error) if end is None
                else (r.run_id, end - elapsed, end, error)
            )
        return {"units": units, "results": results, "resilience": resilience}

    def check(self, out: dict) -> dict:
        runner, results = self.runner, out["results"]
        failures = [f"{label}: {err}" for label, _, err in out["units"] if err]
        outputs = {}
        sim_s = 0.0
        excess = []
        for run in runner.runs:
            result = results.get(run.run_id)
            if result is None:
                continue
            sim_s += run.scenario.duration_s
            if not _finite([result.peak_temp_c, result.end_temp_c]):
                failures.append(f"{run.run_id}: non-finite temperature")
            if not all(fps > 0.0 and math.isfinite(fps) for fps in result.fps.values()):
                failures.append(f"{run.run_id}: zero FPS frame app")
            outputs[run.run_id] = {
                "result": result.to_dict(),
                "telemetry": runner.store.load_telemetry(runner.key_of(run)),
            }
        for row in out["resilience"].rows:
            if row.policy == "proposed":
                excess.append(row.peak_temp_c - row.t_limit_c)
        # A hardening regression is a finding about the governor, not an
        # output failure: it is reported, and counted, but fails no unit.
        findings = [
            f"hardening regression {platform}/{plan}: "
            f"stock excess {stock:.2f} C vs proposed {proposed:.2f} C"
            for platform, plan, stock, proposed
            in out["resilience"].hardening_regressions()
        ]
        return {
            "failures": failures,
            "findings": findings,
            "digest": digest(outputs),
            "sim_s": sim_s,
            "facts": {
                "limit_excess_c": max(excess) if excess else 0.0,
                "hardening_regressions": len(findings),
                "migrations": sum(
                    len(r.governor_events) for r in results.values()
                    if r.policy == "proposed"
                ),
                "faults_injected": sum(len(r.faults_injected) for r in results.values()),
            },
        }


# ------------------------------------------------------------- calib


def _rel(fit: float, truth: float) -> float:
    return abs(fit - truth) / abs(truth) if truth != 0.0 else abs(fit - truth)


def param_errors(truth, fitted) -> list[float]:
    """Relative errors of every parameter the calibration contract checks
    (docs/CALIBRATION.md), between two compiled platform specs."""
    errs = []
    for t, f in list(zip(truth.clusters, fitted.clusters)) + [(truth.gpu, fitted.gpu)]:
        errs += [
            _rel(f.ceff_w_per_v2hz, t.ceff_w_per_v2hz),
            _rel(f.idle_power_w, t.idle_power_w),
            _rel(f.leakage.kappa_w_per_k2, t.leakage.kappa_w_per_k2),
            _rel(f.leakage.beta_k, t.leakage.beta_k),
        ]
        errs += [
            _rel(f.opps.voltage_for(hz), t.opps.voltage_for(hz))
            for hz in t.opps.frequencies_hz()
        ]
    errs += [
        _rel(fitted.memory.base_power_w, truth.memory.base_power_w),
        _rel(fitted.memory.activity_power_w, truth.memory.activity_power_w),
        _rel(fitted.board_power_w, truth.board_power_w),
    ]
    errs += [
        _rel(f.capacitance_j_per_k, t.capacitance_j_per_k)
        for t, f in zip(truth.thermal.nodes, fitted.thermal.nodes)
    ]
    links = {
        tuple(sorted((l.node_a, l.node_b))): l.conductance_w_per_k
        for l in truth.thermal.links
    }
    errs += [
        _rel(l.conductance_w_per_k, links[tuple(sorted((l.node_a, l.node_b)))])
        for l in fitted.thermal.links
    ]
    return errs


class Calib:
    """For every registered platform: excitation, every built-in
    degradation model, then a clean fit and robust fits."""

    def __init__(self, seed: int, tmp: str) -> None:
        self.seed = seed

    def setup(self) -> None:
        self.platforms = registry.platform_names()
        self.truth = {name: registry.get(name).compile() for name in self.platforms}

    def _pipeline(self, name: str) -> dict:
        t0 = time.perf_counter()
        trace = run_excitation(name, seed=self.seed)
        t1 = time.perf_counter()
        degraded = {
            model: BUILTIN_MODELS[model].apply(trace, seed=self.seed)
            for model in sorted(BUILTIN_MODELS)
        }
        t2 = time.perf_counter()
        clean = fit_platform(trace, robust="off")
        t3 = time.perf_counter()
        robust = {model: fit_platform(degraded[model], robust="on") for model in ROBUST_FIT_MODELS}
        t4 = time.perf_counter()
        stages = {
            "excite": (t0, t1), "degrade": (t1, t2),
            "fit_clean": (t2, t3), "fit_robust": (t3, t4),
        }
        return {"trace": trace, "clean": clean, "robust": robust, "stages": stages}

    def run(self) -> dict:
        units: list = []
        pipelines = {}
        for name in self.platforms:
            pipelines[name] = _timed_unit(units, name, lambda: self._pipeline(name))
        return {"units": units, "pipelines": pipelines}

    def check(self, out: dict) -> dict:
        failures = [f"{label}: {err}" for label, _, err in out["units"] if err]
        outputs = {}
        stage_s = {"excite": 0.0, "degrade": 0.0, "fit_clean": 0.0, "fit_robust": 0.0}
        clean_err, robust_err = [], []
        verdicts, findings = [], []
        sim_s = 0.0
        for name, pipe in out["pipelines"].items():
            if pipe is None:
                continue
            sim_s += pipe["trace"].duration_s()
            for stage, (a, b) in pipe["stages"].items():
                stage_s[stage] += CLOCK.seconds(a, b)
            reports = {"clean": pipe["clean"][1]}
            reports.update({m: fit[1] for m, fit in pipe["robust"].items()})
            outputs[name] = {label: report.to_json() for label, report in reports.items()}
            for report in reports.values():
                verdicts += list(report.verdicts().values())
            clean = param_errors(self.truth[name], pipe["clean"][0].compile())
            robust = param_errors(self.truth[name], pipe["robust"][CONTRACT_MODEL][0].compile())
            clean_err += clean
            robust_err += robust
            # Closed-loop contracts (docs/CALIBRATION.md): 5 % clean, 10 %
            # robust.  A miss is a finding about the estimators, not a failed
            # unit: the pipeline ran and its output is reported.
            if max(clean) > CLEAN_TOL:
                findings.append(f"{name}: clean fit off by {100 * max(clean):.1f} %")
            if max(robust) > ROBUST_TOL:
                findings.append(f"{name}: {CONTRACT_MODEL} fit off by {100 * max(robust):.1f} %")
            trace = pipe["trace"]
            for channel in trace.names():
                if channel.startswith("temp.") and not _finite(trace.series(channel)[1]):
                    failures.append(f"{name}: non-finite {channel}")
        n = max(1, len(out["pipelines"]))
        return {
            "failures": failures,
            "findings": findings,
            "digest": digest(outputs),
            "sim_s": sim_s,
            "facts": {
                "stage_s": {k: v / n for k, v in stage_s.items()},
                "fitted_ratio": verdicts.count("fitted") / len(verdicts) if verdicts else 0.0,
                "param_err_pct": 100.0 * max(robust_err) if robust_err else 0.0,
                "clean_param_err_pct": 100.0 * max(clean_err) if clean_err else 0.0,
                "migrations": 0,
                "faults_injected": 0,
            },
        }


WORKLOADS = {"paper": Paper, "chaos": Chaos, "calib": Calib}
