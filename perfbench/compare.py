"""Compare two benchmark result files, metric by metric.

Usage, from the repository root::

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records ``run.py`` appends (one per run, ``--out``).
For every workload and end-to-end metric it prints both sides' median and
quartiles over their runs, the ratio NEW/BASE, and a verdict under the
bound ``BENCHMARK.json`` fixes for the metric:

* ``worse`` — NEW's median is worse than BASE's by more than the bound;
* ``improved`` — NEW's median is better by more than BASE's own spread
  (inter-quartile distance over median), both sides have at least
  ``MIN_RUNS`` runs, and BASE's spread is within the bound — or every NEW
  run beats every BASE run;
* ``unresolved`` — BASE's spread is wider than the bound, or too few runs
  to call a gain;
* ``unchanged`` — otherwise.

Traced records, when both files have them, add one row per per-layer
metric with medians and ratio only: per-layer metrics have no bound.  So
does ``host_ref_ms``, each run's timing of a fixed Python loop: a ratio far
from 1 means the host, not the code, changed speed between the sides.
Last, for each workload, whether the outputs of the seeds both files ran
are byte-identical (same digests).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import quartiles, spread  # noqa: E402

#: Runs per side below which no gain is called.
MIN_RUNS = 3

#: Host-speed reading of each untraced run (``run.py``), printed with its
#: ratio so host drift between the two sides shows; it has no verdict.
HOST_REF = {"name": "host_ref_ms", "unit": "ms", "better": "lower"}


def load(path: str) -> tuple[dict, dict]:
    """``({(workload, trace): {metric: [value per run]}}, {(workload, seed):
    {output digest}})``; each run's host-speed reading is kept as metric
    ``host_ref_ms``."""
    series: dict = {}
    digests: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            values = series.setdefault((record["workload"], record["trace"]), {})
            for name, metric in record["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            values.setdefault("host_ref_ms", []).append(record["stamp"]["host_ref_ms"])
            digests.setdefault((record["workload"], record["seed"]), set()).update(
                record["digests"]
            )
    return series, digests


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    _, base_med, _ = quartiles(base)
    _, new_med, _ = quartiles(new)
    # Positive = NEW is worse, as a share of BASE's median.
    loss = sign * (new_med - base_med) / abs(base_med) if base_med else 0.0
    enough = min(len(base), len(new)) >= MIN_RUNS
    if enough and all(sign * (n - b) < 0.0 for n in new for b in base):
        return "improved"
    base_spread = spread(base)
    if base_spread > bound:
        return "unresolved"
    if loss > bound:
        return "worse"
    if loss < 0.0 and -loss > base_spread:
        return "improved" if enough else "unresolved"
    return "unchanged"


def fmt(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args()
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    (base, base_digests), (new, new_digests) = load(args.base), load(args.new)
    print(
        f"{'workload':<8} {'metric':<34} {'base median [q1, q3]':<34} "
        f"{'new median [q1, q3]':<34} {'ratio':>7}  verdict"
    )
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, metrics in ((0, spec["end_to_end"] + [HOST_REF]), (1, spec["per_layer"])):
            b, n = base.get((workload, trace)), new.get((workload, trace))
            if not b or not n:
                continue
            for metric in metrics:
                name = metric["name"]
                if name not in b or name not in n:
                    continue
                _, b_med, _ = quartiles(b[name])
                _, n_med, _ = quartiles(n[name])
                ratio = f"{n_med / b_med:7.3f}" if b_med else "    n/a"
                call = (
                    verdict(b[name], n[name], metric["better"], metric["bound"])
                    if "bound" in metric else "-"
                )
                print(
                    f"{workload:<8} {name:<34} {fmt(b[name]):<34} {fmt(n[name]):<34} "
                    f"{ratio}  {call}"
                )
    for workload in [w["name"] for w in spec["workloads"]]:
        seeds = sorted(
            seed for (w, seed) in base_digests.keys() & new_digests.keys() if w == workload
        )
        if seeds:
            differ = [s for s in seeds if base_digests[workload, s] != new_digests[workload, s]]
            print(
                f"{workload:<8} outputs: {len(seeds) - len(differ)} of {len(seeds)} "
                f"common seeds byte-identical" + (f"; differ on seeds {differ}" if differ else "")
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
