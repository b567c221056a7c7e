PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test lint trace-smoke query-smoke updates-smoke \
	optimizer-smoke health-smoke match-smoke compose-smoke transgen-smoke \
	chase-smoke examples \
	bench-smoke bench-chase bench-match \
	bench bench-query bench-updates bench-optimizer \
	bench-json bench-check bench-check-smoke perfbench-smoke

# Tier-1: the whole unit/integration suite, after the static, tracing,
# query-engine, incremental-maintenance, optimizer, health, Match,
# Compose, chase, TransGen and end-to-end benchmark smoke gates and the
# example scripts.
test: lint trace-smoke query-smoke updates-smoke optimizer-smoke \
		health-smoke match-smoke compose-smoke chase-smoke transgen-smoke \
		perfbench-smoke examples
	$(PYTHON) -m pytest -x -q

# Every example script end to end (ETL pipeline, mediator, wrapper,
# certain answers, ...); a nonzero exit or a traceback fails.
examples:
	@for f in examples/*.py; do \
		$(PYTHON) $$f >/dev/null || { echo "examples: $$f failed"; exit 1; }; \
	done
	@echo "examples: all ok"

# Static checks: ruff with the pinned config in pyproject.toml.
# Skips gracefully when ruff is not installed (the CI image does not
# bake it in); never a silent pass when it is present.
lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks; \
	elif command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "lint: ruff not installed, skipping (config pinned in pyproject.toml)"; \
	fi

# Run the Figure-5 evolution script under tracing and assert the
# exported trace is non-empty and covers several operators.
trace-smoke:
	@$(PYTHON) -m repro trace examples/schema_evolution.py --quiet \
		--out .trace-smoke.jsonl >/dev/null
	@$(PYTHON) -c "import json,sys; \
spans=[json.loads(l) for l in open('.trace-smoke.jsonl')]; \
ops={s['name'] for s in spans if s['name'].startswith(('op.','engine.'))}; \
assert len(spans) >= 10, f'only {len(spans)} spans'; \
assert len(ops) >= 4, f'only {sorted(ops)}'; \
print(f'trace-smoke: {len(spans)} spans, {len(ops)} operators ok')"
	@rm -f .trace-smoke.jsonl

# Differential smoke for the query executor: runs the view-unfolding
# workload at the smallest size, asserting vectorized ≡ interpreted
# row parity, that the warm plan cache never recompiles, and that
# every EXPLAIN ANALYZE node matches the interpreter's row count.  No
# JSON rewrite.
query-smoke:
	$(PYTHON) benchmarks/bench_query_executor.py --smoke

# Parity gate for incremental maintenance: smallest size only, every
# batch equivalence-checked against a full re-exchange (tgd and egd
# lanes).  No JSON rewrite.
updates-smoke:
	$(PYTHON) benchmarks/bench_incremental_exchange.py --smoke

# Cost-based optimizer gate: differential oracle (heuristic ≡
# cost-based, on the vectorized engine and the interpreter) plus an
# end-to-end adaptive re-optimization at reduced sizes.  Timing bars
# are skipped in smoke mode; the full `make bench-optimizer` enforces
# them.  No JSON rewrite.
optimizer-smoke:
	$(PYTHON) benchmarks/bench_optimizer.py --smoke

# Health-monitor gate: `repro health` must exit 0 on a healthy
# workload and nonzero when a threshold is deliberately breached
# (slow_query_rate_max=-1 makes any observed query an alert).  Also:
# `repro querylog --json` prints only `query` journal events, each
# with a plan fingerprint, and a non-positive `--capacity` is a usage
# error (exit 2).
health-smoke:
	@$(PYTHON) -m repro health examples/schema_evolution.py --quiet \
		>/dev/null || (echo "health-smoke: healthy run alerted" && exit 1)
	@if $(PYTHON) -m repro health examples/schema_evolution.py --quiet \
		--threshold slow_query_rate_max=-1 \
		--threshold min_query_samples=1 >/dev/null; then \
		echo "health-smoke: breached threshold did not alert"; exit 1; \
	fi
	@$(PYTHON) -m repro querylog examples/schema_evolution.py --quiet \
		--json | $(PYTHON) -c "import json,sys; \
events=[json.loads(l) for l in sys.stdin if l.strip()]; \
assert events, 'querylog printed no events'; \
assert all(e['kind'] == 'query' and e['fingerprint'] for e in events), \
	'querylog printed a non-query event'; \
print(f'health-smoke: querylog printed {len(events)} query events')"
	@$(PYTHON) -m repro journal examples/schema_evolution.py --quiet \
		--capacity 0 >/dev/null 2>&1; code=$$?; if [ $$code -ne 2 ]; then \
		echo "health-smoke: --capacity 0 exited $$code, not 2"; exit 1; \
	fi
	@echo "health-smoke: exit codes ok"

# Match gate: the E1 quality table, which fails if any candidate moves
# from its pinned value, plus the scaling rows at 23 and 77 elements.
# No JSON rewrite.
match-smoke:
	$(PYTHON) benchmarks/bench_match_scaling.py --smoke

# Compose gate: the E2 table, which fails if a clause count leaves its
# pinned value (3 per chain, 2^n per width), at chains of 2 and 4 steps
# and widths up to 6.  No JSON rewrite.
compose-smoke:
	$(PYTHON) benchmarks/bench_compose_scaling.py --smoke

# Chase gate: every E3c lane at its smallest size, which fails if the
# semi-naive result or step count leaves the naive engine's, or if a
# one-atom-body dependency examines more triggers than it has rows to
# read (each row is read once per dependency; a count gate, not a
# timing gate).  No JSON rewrite.
chase-smoke:
	$(PYTHON) benchmarks/bench_chase_scaling.py --smoke

# TransGen gate: the E4 table (TPH/TPT/TPC at depths 1-3, every row
# roundtrip-verified), which fails if a query view's node count leaves
# its pinned value.  No JSON rewrite.
transgen-smoke:
	$(PYTHON) benchmarks/bench_roundtrip_strategies.py --smoke

# Fast perf sanity after tier-1: smallest size only, no JSON rewrite.
bench-smoke: test
	$(PYTHON) benchmarks/bench_chase_scaling.py --smoke

# Full query-executor benchmark: rewrites BENCH_query.json at three
# sizes (interpreted lane, vectorized cold and warm) and enforces the
# 10x vectorized vs interpreted acceptance bar at 4k rows.
#
# Re-baselining workflow after a legitimate perf change:
#   1. make bench-query            # rewrite BENCH_query.json in place
#   2. $(PYTHON) -m repro bench diff --fresh-dir .
#      (or `make bench-check`)     # confirm the new baseline diffs
#                                  # clean before committing it
bench-query:
	$(PYTHON) benchmarks/bench_query_executor.py

# Full chase trajectory: rewrites BENCH_chase.json at three sizes.
bench-chase:
	$(PYTHON) benchmarks/bench_chase_scaling.py

# Full Match run: rewrites BENCH_match.json, the E1 quality table (which
# fails if a candidate moves from its pinned value) and one Match at
# 23, 77, 239 and 509 elements, wall and CPU time.
bench-match:
	$(PYTHON) benchmarks/bench_match_scaling.py

# Incremental maintenance vs full re-exchange: rewrites
# BENCH_updates.json at three sizes plus the egd merge/rollback lane,
# enforcing the 5x acceptance bar at 4k rows.
bench-updates:
	$(PYTHON) benchmarks/bench_incremental_exchange.py

# Cost-based join ordering + adaptive re-optimization: rewrites
# BENCH_optimizer.json, enforcing the ≥2x skewed-suite win and the
# ≥2x re-optimization win as absolute floors (also judged by the
# regression watchdog via the payload's "floors" section).
bench-optimizer:
	$(PYTHON) benchmarks/bench_optimizer.py --out BENCH_optimizer.json

# The whole pytest-benchmark suite (slow), incremental maintenance
# included via benchmarks/bench_incremental_exchange.py.
bench:
	$(PYTHON) -m pytest benchmarks -q

# Regression watchdog: re-run the query/updates/observability suites
# into a temp dir and diff against the committed BENCH_*.json
# baselines (generous step-change thresholds; exit 1 on regression).
bench-check:
	$(PYTHON) benchmarks/regression.py check

# Fast watchdog variant for CI: smallest size only, report-only (the
# committed baselines were recorded on different hardware).
bench-check-smoke:
	$(PYTHON) benchmarks/regression.py check --smoke --report-only

# End-to-end benchmark smoke: each perfbench workload once for 1 s,
# traced.  run.py exits 0 even when requests fail, so the gate reads
# the last JSON line and fails unless it says "correct": true.  Guards
# the engine API the frozen benchmark imports.
perfbench-smoke:
	@for w in design exchange query maintain; do \
		$(PYTHON) perfbench/run.py --workload $$w --seed 1 --seconds 1 \
			--trace 1 | tail -n 1 | $(PYTHON) -c "import json,sys; \
r=json.loads(sys.stdin.read()); \
assert r['correct'] is True, f'$$w: {r[\"failed\"]} failed'; \
print(f'perfbench-smoke: $$w ok, {r[\"attempted\"]} requests')" \
			|| exit 1; \
	done

# Every benchmark's machine-readable BENCH_*.json via the harness.
bench-json:
	@for f in benchmarks/bench_*.py; do \
		echo "== $$f"; \
		$(PYTHON) $$f || exit 1; \
	done
