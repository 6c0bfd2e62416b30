# Developer entry points.  The offline-friendly install path is used
# throughout (no build isolation; this repo has no runtime dependencies).

PYTHON ?= python

.PHONY: install test lint fuzz bench report examples check clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

# Static analysis suite (docs/ANALYSIS.md); exits 1 on any finding.
lint:
	$(PYTHON) -m repro lint src/repro examples

# Differential fuzz sweep (docs/TESTING.md); FUZZ_ARGS adds/overrides flags.
fuzz:
	$(PYTHON) -m repro fuzz --seed 0 --iterations 400 --time-budget 30 $(FUZZ_ARGS)

# CI's benchmark regression gate (docs/CLI.md): exits 1 when an
# experiment's median is more than 2x its committed baseline.  The
# snapshot and the ledger stay in this checkout's (ignored) .repro/.
bench:
	mkdir -p .repro
	PYTHONPATH=src $(PYTHON) benchmarks/report.py \
		F1-conj F1-sing-general T-chain T-search T-classify \
		--json .repro/BENCH_current.json --ledger .repro/runs.jsonl \
		--baseline benchmarks/BENCH_baseline.json

report:
	cd benchmarks && $(PYTHON) report.py

examples:
	@for script in examples/*.py; do \
		echo "== $$script =="; \
		$(PYTHON) $$script || exit 1; \
	done

check: lint test bench

clean:
	rm -rf .pytest_cache build *.egg-info src/*.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
