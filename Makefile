# Convenience targets for the ENLD reproduction.

PYTHON ?= python3

.PHONY: install test bench report examples lint analyze typecheck \
	trace-smoke chaos-smoke clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-record:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-record:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

report:
	$(PYTHON) -m repro report --results benchmarks/results -o EXPERIMENTS.md

examples:
	@for f in examples/*.py; do echo "== $$f =="; \
		PYTHONPATH=src $(PYTHON) $$f || exit 1; done

lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; skipping (pip install -e '.[dev]')"; \
	fi

# The repo's own per-file AST invariant checker (RNG / stream-tag /
# atomic-write / tracer / wall-clock / guarded-by discipline).  Always
# available: it only needs the stdlib ast module.
analyze:
	PYTHONPATH=src $(PYTHON) -m repro lint src

# Strict typing gate on the typed core (repro.obs, repro.datalake,
# repro.core; scope configured in pyproject.toml).  Skips politely
# when mypy is not installed.
typecheck:
	@if $(PYTHON) -m mypy --version >/dev/null 2>&1; then \
		$(PYTHON) -m mypy --config-file pyproject.toml; \
	else \
		echo "mypy not installed; skipping (pip install mypy)"; \
	fi

trace-smoke:
	PYTHONPATH=src $(PYTHON) -m repro trace --quiet \
		-o trace_smoke.json \
		--baseline benchmarks/baselines/trace_smoke.json

chaos-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q \
		tests/test_resilience.py tests/test_checkpoint_resume.py \
		tests/test_updater.py tests/test_updater_chaos.py
	PYTHONPATH=src $(PYTHON) -m repro chaos --arrivals 5 --times 3 \
		--fail-stage iteration --fail-stage vote \
		--checkpoint-dir chaos_ckpt
	# Update-kill matrix: inject a fault into every model-update stage
	# (train / swap / publish); the run must degrade gracefully and the
	# resume round-trip must stay bit-identical, version lineage included.
	for stage in update_train update_swap update_publish; do \
		PYTHONPATH=src $(PYTHON) -m repro chaos --arrivals 4 --times 1 \
			--fail-stage $$stage --update-every 2 \
			--checkpoint-dir chaos_ckpt_$$stage || exit 1; \
	done
	# Shard-flush kill: a sharded-inventory checkpoint killed mid-flush
	# must leave the previous generation loadable bit-identically.
	PYTHONPATH=src $(PYTHON) -m repro chaos --arrivals 3 --times 1 \
		--fail-stage shard_flush --checkpoint-dir chaos_ckpt_shards

clean:
	rm -rf build dist *.egg-info src/*.egg-info chaos_ckpt chaos_ckpt_*
	find . -name __pycache__ -type d -exec rm -rf {} +
