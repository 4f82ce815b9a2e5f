# Convenience targets for the reproduction pipeline.
#
#   make test         tier-1 test suite (everything, the differential
#                     matrix included; CI runs this)
#   make test-fast    unit/property tiers only — skips the cross-kernel
#                     differential matrix for local turnaround
#                     (tests/README.md describes the tier structure)
#   make bench        full perf benchmark (writes benchmarks/out/BENCH_pipeline.json)
#   make bench-smoke  quick perf-regression gate: REPRO_ITERATIONS=10,
#                     fails on a >3x stage slowdown vs the recorded
#                     benchmarks/BENCH_pipeline.json (covers the compiled
#                     fast kernel's stage timings)
#   make bench-record re-record the smoke reference on this machine
#   make topo-smoke   gate the topology sweep: one small cell per family
#                     (fitted / torus / dragonfly / fattree2), each
#                     verified fast == reference kernel
#   make fault-smoke  gate the fault-injection sweep: one small faulted
#                     cell per family (plus the clean control rows),
#                     each verified fast == reference kernel under
#                     faults — including identical partitions
#   make cluster-smoke gate the multi-job cluster sweep: small job
#                     streams x placements x (fitted, torus), each cell
#                     verified fast == reference kernel bit-for-bit
#                     plus the per-job energy-sum invariant; then the same
#                     streams on a faulted (degrade + wake-timeout, never
#                     partitioning) torus and dragonfly, which pins the
#                     compiled faulted kernel to the live faulted walk on
#                     a shared fabric
#   make policy-smoke gate the power-policy registry: one small cell per
#                     policy family (gate / width / scale on the HCA
#                     class, plus trunk and switch management) on an
#                     oversubscribed fat tree and on a torus, each
#                     verified fast == reference kernel including the
#                     per-class savings rows; the torus's many-port
#                     switches pin the fast kernel's folded busy-end max
#                     against the reference kernel's per-port scan
#   make bench-ab BASE=<rev> WORKLOAD=<name> SEEDS="1 2 3" [TRACE=1]
#                     same-machine A/B of the perfbench benchmark: checks
#                     BASE out into a temporary git worktree, runs
#                     perfbench/run.py --trace 0 per seed on BASE and on
#                     this working tree, interleaved, and prints every
#                     end-to-end metric's per-side median (benchmarks/ab.py);
#                     fails if the two sides' exact counts differ.
#                     TRACE=1 adds one --trace 1 pair per seed and the
#                     per-layer head/base ratios
#   make service-smoke gate the simulation service end-to-end against a
#                     real daemon subprocess: cold == warm bit-for-bit
#                     (warm costs zero pipeline stages), 20 repeats over
#                     one client are hits on one connection, worker
#                     SIGKILL mid-request -> structured error + daemon
#                     survives, full admission queue -> SERVICE_BUSY shed
#                     while a cached query is still answered, SIGTERM
#                     drains queued work and exits 0

PY ?= python
export PYTHONPATH := src

.PHONY: test test-fast bench bench-smoke bench-record bench-ab \
	topo-smoke fault-smoke cluster-smoke policy-smoke service-smoke

WORKLOAD ?= paper-grid
SEEDS ?= 1 2 3
TRACE ?=

test:
	$(PY) -m pytest -x -q

test-fast:
	$(PY) -m pytest -x -q -m "not differential"

bench:
	$(PY) -m repro.cli bench

bench-smoke:
	REPRO_ITERATIONS=10 $(PY) -m repro.cli bench --smoke

bench-record:
	rm -f benchmarks/BENCH_pipeline.json
	REPRO_ITERATIONS=10 $(PY) -m repro.cli bench --smoke

bench-ab:
	@test -n "$(BASE)" || { echo 'usage: make bench-ab BASE=<rev>' \
		'WORKLOAD=<name> SEEDS="1 2 3"'; exit 2; }
	$(PY) benchmarks/ab.py --base $(BASE) --workload $(WORKLOAD) \
		--seeds $(SEEDS) $(if $(TRACE),--trace)

topo-smoke:
	$(PY) -m repro.cli topo-sweep --apps alya --nranks 8 \
		--iterations 6 --verify

fault-smoke:
	$(PY) -m repro.cli fault-sweep --apps alya --nranks 8 \
		--iterations 6 --verify

cluster-smoke:
	$(PY) -m repro.cli cluster-sweep --iterations 6 --verify
	$(PY) -m repro.cli cluster-sweep --iterations 6 --verify \
		--faults faults:seed=7,degrade=0.3,wake_timeout=0.2 \
		--topologies torus:k=4,n=2 dragonfly:a=4,p=2,h=2

policy-smoke:
	$(PY) -m repro.cli topo-sweep --apps alya --nranks 8 \
		--iterations 6 --topologies fattree2:leaf=4,ratio=2 torus:k=3,n=2 \
		--policies "policy:hca=gate" "policy:hca=width" \
		"policy:hca=scale" "policy:hca=gate,trunk=gate" \
		"policy:hca=gate,trunk=width:levels=3,switch=gate" \
		--verify

service-smoke:
	$(PY) -m repro.service.smoke
