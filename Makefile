# Convenience targets mirroring the CI pipeline (.github/workflows/ci.yml).
# Everything runs from the source tree via PYTHONPATH, no install required.

PYTHON ?= python
export PYTHONPATH := src

CAMPAIGN_STORE ?= /tmp/repro-campaign-smoke
PLATFORM_STORE ?= /tmp/repro-platform-matrix
CHAOS_STORE ?= /tmp/repro-chaos-smoke
TELEMETRY_STORE ?= /tmp/repro-telemetry-smoke
CALIB_DIR ?= /tmp/repro-calib-smoke

LINT_CACHE ?= /tmp/repro-lint-cache.json

# perf-compare: the revision to compare the working tree against, the
# perfbench workload, runs per side, and where the BASE worktree and both
# result files go.  The run length is BENCHMARK.json's run_seconds.  A
# speed-up claim needs at least ten alternating pairs (perfbench/README.md),
# so that is the default.
BASE ?= HEAD
WORKLOAD ?= paper
RUNS ?= 10
PERF_DIR ?= /tmp/repro-perf-compare

BENCH_SMOKE_DIR ?= /tmp/repro-bench-smoke

.PHONY: lint lint-fast lint-full test check campaign-smoke chaos-smoke \
	telemetry-smoke validate-platforms calib-smoke calib-robust-smoke \
	engine-bench perf-compare bench-smoke

lint:
	$(PYTHON) -m repro lint

# Incremental + parallel: re-lints only files whose sha changed since the
# cached pass.  For day-to-day editing loops.
lint-fast:
	$(PYTHON) -m repro lint --cache $(LINT_CACHE) --jobs 4

# Cold and serial: what CI gates on, and what the lint-speed benchmark
# compares the cached pass against.
lint-full:
	$(PYTHON) -m repro lint --jobs 1

test:
	$(PYTHON) -m pytest -x -q

validate-platforms:
	$(PYTHON) -m repro platforms validate

# Run the tiny built-in campaign twice (the first pass simulates, the
# second must be served entirely from the content-addressed store), then
# sweep every registered platform — including the purely data-defined
# devices — through one short stock-policy run each.
campaign-smoke:
	rm -rf $(CAMPAIGN_STORE) $(PLATFORM_STORE)
	$(PYTHON) -m repro campaign run --preset smoke --store $(CAMPAIGN_STORE) --jobs 2
	$(PYTHON) -m repro campaign run --preset smoke --store $(CAMPAIGN_STORE) --jobs 2 --resume --format json \
	  | $(PYTHON) -c "import json,sys; s=json.load(sys.stdin)['summary']; assert s['cached']==s['total']>0, s; print(f\"campaign-smoke: {s['cached']}/{s['total']} cached\")"
	$(PYTHON) -m repro campaign run --preset platform-matrix --store $(PLATFORM_STORE) --jobs 2

# Run the full fault-injection grid (every built-in fault plan x policy x
# platform) and fail if any run crashes or the hardened governor overshoots
# the thermal limit by more than stock anywhere (docs/FAULTS.md).
chaos-smoke:
	rm -rf $(CHAOS_STORE)
	$(PYTHON) -m repro chaos --duration 12 --jobs 2 --store $(CHAOS_STORE)

# Exercise the cross-process telemetry pipeline end to end: run the tiny
# campaign with the deterministic watch dashboard and an SLO gate, then
# re-evaluate the stored fleet aggregate with `repro obs check` and gate
# the aggregation overhead against the campaign wall time.
telemetry-smoke:
	rm -rf $(TELEMETRY_STORE)
	$(PYTHON) -m repro campaign run --preset smoke --store $(TELEMETRY_STORE) \
	  --jobs 2 --watch --no-tty --slo chaos-hardening
	$(PYTHON) -m repro obs check --campaign smoke --store $(TELEMETRY_STORE) \
	  --slo chaos-hardening
	cd benchmarks && PYTHONPATH=$(CURDIR)/src \
	  $(PYTHON) -m pytest -x -q bench_telemetry_overhead.py

# Close the calibration loop at reduced scale: excite a registered board,
# fit a definition from the trace alone, and validate the fitted JSON as
# an out-of-tree platform (docs/CALIBRATION.md).
calib-smoke:
	rm -rf $(CALIB_DIR) && mkdir -p $(CALIB_DIR)
	$(PYTHON) -m repro platforms excite --platform odroid-xu3 \
	  --dwell-s 0.5 --soak-s 4 --cooldown-s 8 --max-opps 4 \
	  --out $(CALIB_DIR)/trace.json
	$(PYTHON) -m repro platforms fit --trace $(CALIB_DIR)/trace.json \
	  --name odroid-xu3-refit --out $(CALIB_DIR)/fitted.json --register
	$(PYTHON) -m repro platforms validate --file $(CALIB_DIR)/fitted.json

# Close the loop through a degraded capture: excite, apply the contract
# degradation model (millidegree quantization + record drops + spikes),
# fit robustly, validate the fitted JSON, and gate the robust fit's wall
# time against the clean path (docs/CALIBRATION.md).
calib-robust-smoke:
	rm -rf $(CALIB_DIR)-robust && mkdir -p $(CALIB_DIR)-robust
	$(PYTHON) -m repro platforms excite --platform odroid-xu3 \
	  --seed 1 --out $(CALIB_DIR)-robust/trace.json
	$(PYTHON) -m repro platforms degrade \
	  --trace $(CALIB_DIR)-robust/trace.json --model noisy-sysfs --seed 7 \
	  --out $(CALIB_DIR)-robust/degraded.json
	$(PYTHON) -m repro platforms fit \
	  --trace $(CALIB_DIR)-robust/degraded.json \
	  --name odroid-xu3-robust-refit \
	  --out $(CALIB_DIR)-robust/fitted.json --register
	$(PYTHON) -m repro platforms validate --file $(CALIB_DIR)-robust/fitted.json
	cd benchmarks && PYTHONPATH=$(CURDIR)/src \
	  $(PYTHON) -m pytest -x -q bench_calib_robust.py

# Time the stacked batch stepper against the scalar engine on a
# 64-scenario grid and assert byte-identical outputs plus the >=10x
# per-scenario throughput floor (docs/ENGINE.md).
engine-bench:
	cd benchmarks && PYTHONPATH=$(CURDIR)/src \
	  $(PYTHON) -m pytest -x -q bench_engine_speedup.py

# Compare the repository benchmark (perfbench/) at BASE against the working
# tree: check BASE out into a temporary git worktree, run both sides untraced
# with the same seeds (1..RUNS) for BENCHMARK.json's run_seconds, BASE first
# on odd seeds and the working tree first on even ones, then print
# perfbench/compare.py for the two result files.  Example:
#   make perf-compare BASE=main WORKLOAD=paper RUNS=10
perf-compare:
	rm -rf $(PERF_DIR) && mkdir -p $(PERF_DIR)
	git worktree prune
	git worktree add --detach $(PERF_DIR)/base $(BASE)
	trap 'git worktree remove --force $(PERF_DIR)/base' EXIT; \
	secs=$$($(PYTHON) -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])'); \
	bench() { (cd $$1 && $(PYTHON) perfbench/run.py --workload $(WORKLOAD) \
	  --seed $$seed --seconds $$secs --trace 0 --out $(PERF_DIR)/$$2.jsonl); }; \
	for seed in $$(seq 1 $(RUNS)); do \
	  if [ $$((seed % 2)) -eq 1 ]; then \
	    bench $(PERF_DIR)/base base && bench $(CURDIR) head || exit 1; \
	  else \
	    bench $(CURDIR) head && bench $(PERF_DIR)/base base || exit 1; \
	  fi; \
	done; \
	$(PYTHON) perfbench/compare.py $(PERF_DIR)/base.jsonl $(PERF_DIR)/head.jsonl

# Run every BENCHMARK.json workload once, traced, for its run_seconds, and
# fail unless perfbench reports the run correct: every unit passed, the
# output digests of all repetitions agree and the traced counts repeat.
bench-smoke:
	rm -rf $(BENCH_SMOKE_DIR) && mkdir -p $(BENCH_SMOKE_DIR)
	secs=$$($(PYTHON) -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])'); \
	for w in $$($(PYTHON) -c 'import json; print(*(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do \
	  $(PYTHON) perfbench/run.py --workload $$w --seed 1 --trace 1 --seconds $$secs \
	    --out $(BENCH_SMOKE_DIR)/$$w.jsonl | tail -n 1 \
	  | $(PYTHON) -c "import json,sys; r=json.loads(sys.stdin.read()); assert r['correct'], {k: r[k] for k in ('attempted', 'failed')}; print('bench-smoke: $$w correct')" \
	  || exit 1; \
	done

check: lint validate-platforms test campaign-smoke chaos-smoke telemetry-smoke calib-smoke calib-robust-smoke engine-bench bench-smoke
