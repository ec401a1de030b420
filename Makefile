# Convenience targets for the ADN reproduction.

PYTHON ?= python3

.PHONY: install test bench perf-check faults chaos-soak overload offload graph graph-check sanitize analyze examples check-all lint typecheck loc

install:
	$(PYTHON) -m pip install -e .

test:
	$(PYTHON) -m pytest tests/ -q

lint:
	$(PYTHON) -m compileall -q src tests benchmarks examples
	@# a bare `del name` of a never-reused local is dead code we have
	@# been bitten by before; keep the tree free of it
	@! grep -rn --include='*.py' -E '^\s*del [a-z_]+$$' src/ \
	    || (echo 'dead `del` statements found in src/' && exit 1)
	PYTHONPATH=src $(PYTHON) -m repro lint $(wildcard examples/*.adn) \
	    --stdlib --fail-on error

typecheck:
	@# abstract type & effect checker over every example and the stdlib,
	@# then per-pass translation validation of every example's pipelines
	for f in $(wildcard examples/*.adn); do \
	    PYTHONPATH=src $(PYTHON) -m repro check $$f --types --stdlib \
	        || exit 1; \
	done
	for f in $(wildcard examples/*.adn); do \
	    PYTHONPATH=src $(PYTHON) -m repro compile --verify $$f >/dev/null \
	        || exit 1; \
	done

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q -s

perf-check:
	@# bit-identity gate for hot-path and front-end work: the wall-clock
	@# harness's self-tests, then one rep of each simulated and toolchain
	@# workload; run.py exits nonzero when a result's signature (simulated
	@# metrics, or lint/check/compile/graph output) differs from the one
	@# pinned in benchmarks/perf/expected.json. Simulated signatures
	@# depend on the seed (tool outputs do not), so the simulated
	@# workloads run again on the second pinned seed
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/perf/test_perf.py -q
	$(PYTHON) benchmarks/perf/run.py \
	    --only fig5-chain,bare-rpc,stateful-zipf,hotel-mesh,lint,typecheck,compile-verify,graph-check \
	    --reps 1 --seed 1
	$(PYTHON) benchmarks/perf/run.py \
	    --only fig5-chain,bare-rpc,stateful-zipf,hotel-mesh --reps 1 --seed 7

faults:
	@# the end-to-end crash-recovery scenario through the faults CLI
	@# demo (the fault soak and scenario tests run with `make test`)
	PYTHONPATH=src $(PYTHON) -m repro faults --rpcs 2000

chaos-soak:
	@# control-plane resilience: the seeded multi-fault chaos soak via
	@# the CLI (exits nonzero on any split-brain application) and the
	@# failover benchmark smoke; the unit suite runs with `make test`
	PYTHONPATH=src $(PYTHON) -m repro chaos --trials 4 --rpcs 600 \
	    --json chaos-soak.json
	PYTHONPATH=src $(PYTHON) -m pytest \
	    benchmarks/test_control_resilience.py -q -k smoke

overload:
	@# overload-control smoke: the goodput-sweep smoke benchmark
	@# (baseline collapse vs protected degradation) and the overload CLI
	@# demo; the unit suite runs with `make test`
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_overload.py -q -k smoke
	PYTHONPATH=src $(PYTHON) -m repro overload --duration 0.05

offload:
	@# NIC/switch offload smoke: the NIC-shed-vs-server-shed goodput
	@# benchmark (smoke endpoints) and the offload CLI demo; the
	@# split-chain/device unit suite runs with `make test`
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_offload.py -q -k smoke
	PYTHONPATH=src $(PYTHON) -m repro offload --duration 0.05

graph:
	@# service-graph layer: topology validation + lint (ADN405) over the
	@# shipped spec and both built-in graphs, and a small end-to-end mesh
	@# scenario via the CLI demo graph; the graph unit suites run with
	@# `make test`
	PYTHONPATH=src $(PYTHON) -m repro graph examples/bookinfo.graph.json \
	    --fail-on warning
	PYTHONPATH=src $(PYTHON) -m repro graph --demo hotel-mesh \
	    --fail-on warning --format json >/dev/null
	PYTHONPATH=src $(PYTHON) examples/bookinfo.py

graph-check:
	@# interprocedural analyzer (ADN600-ADN606, ADN700-ADN703): the
	@# shipped bookinfo spec and the hotel-mesh demo must be clean at
	@# warning level; the intentionally broken retry-storm and
	@# double-charge specs must FAIL; plus the analyzer-overhead
	@# microbenchmark (the analyzer unit suite runs with `make test`)
	PYTHONPATH=src $(PYTHON) -m repro graph examples/bookinfo.graph.json \
	    --check --no-place --fail-on warning
	PYTHONPATH=src $(PYTHON) -m repro graph --demo hotel-mesh --check \
	    --no-place --fail-on warning --format json >/dev/null
	@! PYTHONPATH=src $(PYTHON) -m repro graph \
	    examples/retry_storm.graph.json --check --no-place >/dev/null \
	    || (echo 'retry_storm.graph.json should have failed --check' \
	        && exit 1)
	@! PYTHONPATH=src $(PYTHON) -m repro graph \
	    examples/double_charge.graph.json --check --no-place >/dev/null \
	    || (echo 'double_charge.graph.json should have failed --check' \
	        && exit 1)
	PYTHONPATH=src $(PYTHON) -m pytest \
	    benchmarks/test_graph_analysis_overhead.py -q

sanitize:
	@# runtime shadow sanitizer: chaos trials with the sanitizer attached
	@# must stay within the overhead bound; the unit suite (clean meshes
	@# stay silent under faults, the double-charge example trips it)
	@# runs with `make test`
	PYTHONPATH=src $(PYTHON) -m pytest \
	    benchmarks/test_sanitizer_overhead.py -q

analyze: lint typecheck graph-check
	@# every static-analysis gate in one local run: style lint + ADN
	@# lint, abstract typecheck + translation validation, the
	@# interprocedural graph analyzer with its negative gates, and the
	@# effect-fold suite (CI runs each of these already)
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_effects.py -q

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/object_store.py
	$(PYTHON) examples/autoscaling.py
	$(PYTHON) examples/offload_planner.py
	$(PYTHON) examples/resilience.py
	$(PYTHON) examples/external_ingress.py
	$(PYTHON) examples/three_tier.py

check-all: test bench examples

loc:
	@# one line per tree, so a change's net src/ LOC reads off directly
	@for dir in src tests benchmarks examples; do \
	    printf '%-11s %7d\n' $$dir \
	        "$$(find $$dir -name '*.py' -exec cat {} + | wc -l)"; \
	done
