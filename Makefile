# Convenience targets for the reproduction repository.

PYTHON ?= python

.PHONY: install test doctest docs-check bench bench-smoke examples report perf-gate trace-smoke trace-roundtrip fault-smoke ensemble-smoke metrics-smoke scenario-smoke service-smoke clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

doctest:
	$(PYTHON) -m pytest --doctest-modules \
	    src/repro/dynamics/rng.py \
	    src/repro/dynamics/batched.py \
	    src/repro/execution/backoff.py \
	    src/repro/execution/pool.py \
	    src/repro/execution/supervisor.py \
	    src/repro/storage.py

docs-check:
	$(PYTHON) scripts/check_docs.py

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-smoke:
	$(PYTHON) -m repro bench --smoke

examples:
	for script in examples/*.py; do echo "== $$script =="; $(PYTHON) $$script; done

report:
	$(PYTHON) -m repro report results/

perf-gate:
	$(PYTHON) scripts/perf_gate.py

trace-smoke:
	$(PYTHON) scripts/trace_smoke.py

trace-roundtrip:
	$(PYTHON) scripts/trace_roundtrip_smoke.py

fault-smoke:
	$(PYTHON) scripts/fault_smoke.py ensemble:after_replica:2
	$(PYTHON) scripts/fault_smoke.py ensemble:after_round:25
	$(PYTHON) scripts/fault_smoke.py checkpoint:after_tmp_write:3
	$(PYTHON) scripts/fault_smoke.py heartbeat:mid_write:30
	$(PYTHON) scripts/fault_smoke.py trace:mid_write:200
	$(PYTHON) scripts/fault_smoke.py --trace-format columnar trace:mid_write:6

ensemble-smoke:
	$(PYTHON) scripts/fault_smoke.py --parallel ensemble:after_round:25

scenario-smoke:
	$(PYTHON) scripts/scenario_smoke.py ensemble:after_round:25
	$(PYTHON) scripts/scenario_smoke.py checkpoint:after_tmp_write:3

metrics-smoke:
	$(PYTHON) scripts/metrics_smoke.py

service-smoke:
	$(PYTHON) scripts/service_smoke.py jobstore:mid_commit:2
	$(PYTHON) scripts/service_smoke.py service:mid_dispatch:1
	$(PYTHON) scripts/service_smoke.py jobstore:mid_compact:1
	$(PYTHON) scripts/service_smoke.py kill:mid_job

clean:
	rm -rf results/*.txt .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
