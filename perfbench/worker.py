"""One repetition of one workload in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand::

    python3 perfbench/worker.py --workload calib --seed 1 --mode run --tmp DIR

``--mode setup`` stops after set-up (imports, platform registry, spec
expansion); ``run`` also runs the timed body; ``trace`` runs it with the
layer wrappers of :mod:`tracing` installed.  Everything after the
worker's first line runs under the reference sampler of :mod:`hostclock`:
``setup_norm_s``, ``wall_s`` and every unit's seconds are host-normalised,
``raw_wall_s`` is the plain wall time.  The last line of standard output
is one JSON object; ``t_boot`` is a ``time.monotonic()`` reading,
comparable with the parent's on the same host.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import sys
import time

T_BOOT = time.monotonic()
T_BOOT_PC = time.perf_counter()

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from hostclock import CLOCK  # noqa: E402


def normalise(unit: tuple, scale: float) -> tuple:
    """``(label, host-normalised seconds, error)`` of a unit: a span is
    normalised on the clock, raw seconds by the repetition's own ratio of
    normalised to raw wall time."""
    if len(unit) == 4:
        label, a, b, error = unit
        return label, CLOCK.seconds(a, b), error
    label, seconds, error = unit
    return label, seconds * scale, error


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--tmp", required=True)
    args = parser.parse_args()

    CLOCK.start()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.tmp)
    workload.setup()
    tracer = None
    if args.mode == "trace":
        from tracing import LayerTracer

        tracer = LayerTracer()
        tracer.install()
    start = time.perf_counter()
    booted = {"t_boot": T_BOOT, "setup_norm_s": CLOCK.seconds(T_BOOT_PC, start)}
    if args.mode == "setup":
        CLOCK.stop()
        print(json.dumps(booted))
        return 0
    try:
        out = workload.run()
    finally:
        CLOCK.stop()
    end = time.perf_counter()
    wall_s = CLOCK.seconds(start, end)
    out["units"] = [normalise(unit, wall_s / (end - start)) for unit in out["units"]]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = tracer.snapshot() if tracer is not None else None
    checked = workload.check(out)
    record = {
        **booted,
        "wall_s": wall_s,
        "raw_wall_s": end - start,
        "host_slowness": CLOCK.slowness(),
        "units": out["units"],
        "rss_mb": rss_mb,
        "layers": layers,
        **checked,
    }
    print(json.dumps(record, allow_nan=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
