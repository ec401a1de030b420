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
	@# the seeded fault soak (small trial count) plus the end-to-end
	@# crash-recovery scenario and the faults CLI demo
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_chaos.py -q -k fault_soak
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_faults.py -q -k RecoveryScenario
	PYTHONPATH=src $(PYTHON) -m repro faults --rpcs 2000

chaos-soak:
	@# control-plane resilience: the resilience unit suite, the seeded
	@# multi-fault chaos soak via the CLI (exits nonzero on any
	@# split-brain application), and the failover benchmark smoke
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_resilience.py -q
	PYTHONPATH=src $(PYTHON) -m repro chaos --trials 4 --rpcs 600 \
	    --json chaos-soak.json
	PYTHONPATH=src $(PYTHON) -m pytest \
	    benchmarks/test_control_resilience.py -q -k smoke

overload:
	@# overload-control smoke: the unit suite, the goodput-sweep smoke
	@# benchmark (baseline collapse vs protected degradation), and the
	@# overload CLI demo
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_overload.py -q
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_overload.py -q -k smoke
	PYTHONPATH=src $(PYTHON) -m repro overload --duration 0.05

offload:
	@# NIC/switch offload smoke: the split-chain/device unit suite, the
	@# NIC-shed-vs-server-shed goodput benchmark (smoke endpoints), and
	@# the offload CLI demo
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_offload.py -q
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_offload.py -q -k smoke
	PYTHONPATH=src $(PYTHON) -m repro offload --duration 0.05

graph:
	@# service-graph layer: topology validation + lint (ADN405) over the
	@# shipped spec and both built-in graphs, the graph unit suites, and
	@# a small end-to-end mesh scenario via the CLI demo graph
	PYTHONPATH=src $(PYTHON) -m repro graph examples/bookinfo.graph.json \
	    --fail-on warning
	PYTHONPATH=src $(PYTHON) -m repro graph --demo hotel-mesh \
	    --fail-on warning --format json >/dev/null
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_graph.py \
	    tests/test_graph_runtime.py -q
	PYTHONPATH=src $(PYTHON) examples/bookinfo.py

graph-check:
	@# interprocedural analyzer (ADN600-ADN606): the shipped bookinfo
	@# spec and the hotel-mesh demo must be clean at warning level; the
	@# intentionally broken retry-storm spec must FAIL; plus the
	@# analyzer unit suite and the analyzer-overhead microbenchmark
	PYTHONPATH=src $(PYTHON) -m repro graph examples/bookinfo.graph.json \
	    --check --no-place --fail-on warning
	PYTHONPATH=src $(PYTHON) -m repro graph --demo hotel-mesh --check \
	    --no-place --fail-on warning --format json >/dev/null
	@! PYTHONPATH=src $(PYTHON) -m repro graph \
	    examples/retry_storm.graph.json --check --no-place >/dev/null \
	    || (echo 'retry_storm.graph.json should have failed --check' \
	        && exit 1)
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_graph_analysis.py -q
	PYTHONPATH=src $(PYTHON) -m pytest \
	    benchmarks/test_graph_analysis_overhead.py -q

sanitize:
	@# runtime shadow sanitizer: unit suite + chaos trials with the
	@# sanitizer attached (clean meshes must stay silent under faults;
	@# the double-charge example must trip it) + overhead bound
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_sanitizer.py -q
	PYTHONPATH=src $(PYTHON) -m pytest \
	    benchmarks/test_sanitizer_overhead.py -q

analyze: lint typecheck graph-check
	@# aggregate static-analysis gate: style lint + ADN lint, abstract
	@# typecheck + translation validation, the interprocedural graph
	@# analyzer, the effect-summary engine suite, and the negative
	@# gate — the intentionally broken double-charge spec must FAIL
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_effects.py -q
	@! PYTHONPATH=src $(PYTHON) -m repro graph \
	    examples/double_charge.graph.json --check --no-place >/dev/null \
	    || (echo 'double_charge.graph.json should have failed --check' \
	        && exit 1)

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
