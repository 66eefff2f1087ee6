# Convenience targets for the Nepal reproduction.

# Recipes run under bash with pipefail so a failing command on the left
# of a pipe (pytest | tee, etc.) fails the target instead of vanishing
# behind the pipe's exit status.  -e aborts multi-command recipes on the
# first failure; -u catches unset-variable typos; -c is required by make.
SHELL := bash
.SHELLFLAGS := -eu -o pipefail -c

.PHONY: install test lint coverage ci stress bench bench-smoke perfbench-check observability replication sweep examples all

# Minimum line coverage enforced by `make coverage` and the CI test job.
COVERAGE_FLOOR ?= 80

install:
	pip install -e ".[dev]"

test:
	PYTHONPATH=src python -m pytest -x -q

# Skips with a warning when ruff is not installed (it is optional locally;
# the CI lint job always has it).
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check .; \
	else \
		echo "warning: ruff not installed; skipping lint (CI runs it)"; \
	fi

# Tier-1 suite under pytest-cov with the coverage floor.  Skips with a
# warning when pytest-cov is not installed (optional locally, like ruff;
# the CI test job always has it).
coverage:
	@if python -c "import pytest_cov" >/dev/null 2>&1; then \
		PYTHONPATH=src python -m pytest -x -q \
			--cov=repro --cov-report=term \
			--cov-report=xml:coverage.xml \
			--cov-fail-under=$(COVERAGE_FLOOR); \
	else \
		echo "warning: pytest-cov not installed; skipping coverage (CI runs it)"; \
	fi

# Mirror of .github/workflows/ci.yml: lint, the tier-1 suite, coverage.
ci: lint test coverage

# The end-to-end benchmark's own tests, then a short legacy-timetravel
# run: its answers are checked against a row-path twin at current, AT and
# range scopes, and the last output line must report "correct": true
# (mirrors the CI test job's perfbench step).
perfbench-check:
	python3 -m pytest perfbench/tests -q
	python3 perfbench/run.py --workload legacy-timetravel --seed 1 --seconds 2 \
		| tee /dev/stderr | tail -n 1 | grep -q '"correct": true'

# The concurrency suite CI repeats 20x under pytest-timeout.  Locally the
# timeout/repeat plugins are optional; this runs the suite once, plain.
stress:
	PYTHONPATH=src python -m pytest -q tests/concurrency

# The tracing / EXPLAIN ANALYZE / slow-query-log suite (mirrors CI's
# observability job).  Refresh the EXPLAIN goldens after an intentional
# format change with:
#   PYTHONPATH=src python -m pytest tests/observability --update-goldens
observability:
	PYTHONPATH=src python -m pytest -q tests/observability tests/concurrency/test_traced_serving.py

# The replication suite including the multi-process failover chaos
# matrix (mirrors CI's replication job).  Scenario reports land in
# replication-reports/ when NEPAL_REPLICATION_REPORT_DIR is set.
replication:
	PYTHONPATH=src python -m pytest -q tests/replication

bench:
	pytest benchmarks/ --benchmark-only

# Reduced-scale smoke of the Table 1 workload, the WAL-overhead ablation,
# the plan-cache / time-travel ablations, the concurrent-serving bench
# and the tracing-overhead bench, then the regression gate against
# benchmarks/baselines/ (mirrors CI's gating bench-smoke job).
bench-smoke:
	NEPAL_BENCH_INSTANCES=5 NEPAL_CHURN_DAYS=5 NEPAL_BENCH_SCALE=small \
		PYTHONPATH=src python -m pytest benchmarks/bench_table1.py -s --benchmark-disable -k snapshot
	NEPAL_WAL_OPS=600 \
		PYTHONPATH=src python -m pytest benchmarks/bench_wal_overhead.py -s --benchmark-disable
	NEPAL_BENCH_INSTANCES=5 NEPAL_CHURN_DAYS=5 NEPAL_BENCH_SCALE=small \
		PYTHONPATH=src python -m pytest benchmarks/bench_plan_cache.py::test_plan_cache_warm_vs_cold -s --benchmark-disable
	NEPAL_TT_ELEMENTS=1500 NEPAL_TT_DAYS=8 \
		PYTHONPATH=src python -m pytest benchmarks/bench_time_travel.py -s --benchmark-disable
	NEPAL_EXEC_ELEMENTS=1500 NEPAL_EXEC_DAYS=4 \
		PYTHONPATH=src python -m pytest benchmarks/bench_executor.py -s --benchmark-disable
	NEPAL_CC_SECONDS=0.5 \
		PYTHONPATH=src python -m pytest benchmarks/bench_concurrency.py -s --benchmark-disable
	NEPAL_TRACE_REPS=15 \
		PYTHONPATH=src python -m pytest benchmarks/bench_trace_overhead.py -s --benchmark-disable
	NEPAL_REP_RECORDS=600 NEPAL_REP_SECONDS=1.0 \
		PYTHONPATH=src python -m pytest benchmarks/bench_replication.py -s --benchmark-disable
	python benchmarks/check_regression.py --baseline-dir benchmarks/baselines \
		BENCH_plan_cache.json BENCH_timetravel.json BENCH_executor.json \
		BENCH_concurrency.json BENCH_trace_overhead.json BENCH_replication.json

# The paper-style comparison tables (Tables 1-2, ablations, storage).
sweep:
	pytest benchmarks/ -s --benchmark-disable

examples:
	python examples/quickstart.py
	python examples/troubleshooting.py
	python examples/service_quality.py
	python examples/federation.py
	python examples/language_tour.py

all: install test bench
