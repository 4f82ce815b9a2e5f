# Convenience targets for the reproduction pipeline.
#
#   make test         tier-1 test suite (everything, the differential
#                     matrix included; CI runs this)
#   make test-fast    unit/property tiers only — skips the cross-kernel
#                     differential matrix for local turnaround
#                     (tests/README.md describes the tier structure)
#   make bench-smoke  one short perfbench run per workload (seed 1,
#                     --seconds 1, --trace 0); fails unless each run's
#                     last JSON line says "correct": true, i.e. every
#                     simulated output checked bit-identical and the
#                     exact work counts equal to perfbench/out/counts/
#                     (recorded by the first run of each workload)
#   make sweep-smoke  gate the single-job sweep, every cell verified
#                     fast == reference kernel (partitions included):
#                     one small cell per topology family (fitted / torus /
#                     dragonfly / fattree2) under no faults and under a
#                     moderate fault schedule; and one
#                     cell per power policy (gate / width / scale on the
#                     HCA class, plus trunk and switch management) on an
#                     oversubscribed fat tree and a torus, whose many-port
#                     switches pin the fast kernel's folded busy-end max
#                     against the reference kernel's per-port scan
#   make cluster-smoke gate the multi-job cluster sweep: small job
#                     streams x placements x (fitted, torus), each cell
#                     verified fast == reference kernel bit-for-bit
#                     plus the per-job energy-sum invariant; then the same
#                     streams on a faulted (degrade + wake-timeout, never
#                     partitioning) torus and dragonfly, which pins the
#                     compiled faulted kernel to the live faulted walk on
#                     a shared fabric
#                     (both smokes run the argument vectors listed in
#                     tests/golden/smoke_argv.txt; tests/test_smoke_goldens.py
#                     reruns them and diffs their stdout against the
#                     committed tests/golden/<target>.out)
#   make golden-update rewrite tests/golden/<target>.out from a fresh
#                     run of both smokes, and
#                     tests/golden/policy-comparison.out from
#                     examples/policy_comparison.py (name each moved line
#                     and why)
#   make examples     run every examples/*.py; fails on a non-zero exit
#   make bench-ab BASE=<rev> WORKLOAD="<name> [<name> ...]" SEEDS="1 2 3" [TRACE=1]
#                     same-machine A/B of the perfbench benchmark: exports
#                     BASE into a temporary directory (git archive), runs
#                     perfbench/run.py --trace 0 per seed and workload on
#                     BASE and on this working tree, interleaved, and
#                     prints every end-to-end metric's per-side median and
#                     quartiles, pair wins and verdict: gain / worse /
#                     unresolved / flat (benchmarks/ab.py); fails if the
#                     two sides' exact counts differ.
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

.PHONY: test test-fast bench-smoke bench-ab sweep-smoke cluster-smoke \
	golden-update examples service-smoke

WORKLOAD ?= paper-grid
SEEDS ?= 1 2 3
BENCH_WORKLOADS := paper-grid service-whatif cluster-faulted
# exits 0 only if the JSON line on stdin says "correct": true
export BENCH_CORRECT := import json, sys; sys.exit(json.load(sys.stdin)["correct"] is not True)
TRACE ?=
SMOKE_ARGV := tests/golden/smoke_argv.txt

test:
	$(PY) -m pytest -x -q

test-fast:
	$(PY) -m pytest -x -q -m "not differential"

bench-smoke:
	@for w in $(BENCH_WORKLOADS); do \
		out=$$($(PY) perfbench/run.py --workload $$w --seed 1 \
			--seconds 1 --trace 0); status=$$?; \
		printf '%s\n' "$$out"; \
		[ $$status -eq 0 ] && printf '%s\n' "$$out" | tail -n 1 \
			| $(PY) -c "$$BENCH_CORRECT" \
			|| { echo "bench-smoke: $$w is not correct" >&2; exit 1; }; \
	done

bench-ab:
	@test -n "$(BASE)" || { echo 'usage: make bench-ab BASE=<rev>' \
		'WORKLOAD="<name> ..." SEEDS="1 2 3"'; exit 2; }
	$(PY) benchmarks/ab.py --base $(BASE) --workload $(WORKLOAD) \
		--seeds $(SEEDS) $(if $(TRACE),--trace)

sweep-smoke cluster-smoke:
	@sed -n 's/^$@ //p' $(SMOKE_ARGV) | while read -r argv; do \
		echo "repro.cli $$argv" >&2; \
		$(PY) -m repro.cli $$argv < /dev/null || exit 1; \
	done

golden-update:
	@for t in sweep-smoke cluster-smoke; do \
		$(MAKE) -s --no-print-directory $$t > tests/golden/$$t.out \
			|| exit 1; \
	done
	@$(PY) examples/policy_comparison.py \
		> tests/golden/policy-comparison.out

examples:
	@for e in examples/*.py; do \
		echo "== $$e"; $(PY) $$e || { echo "examples: $$e failed" >&2; exit 1; }; \
	done

service-smoke:
	$(PY) -m repro.service.smoke
