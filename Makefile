GO ?= go

.PHONY: all build vet test check smoke topo-smoke snap-smoke daemon-smoke cover tables paper bench bench-check pprof clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# check is the tier-1 gate: everything must build, vet and pass.
check: build vet test

# smoke runs a tiny campaign grid end-to-end through cdnasweep:
# two architectures x two directions with very short windows.
smoke:
	$(GO) run ./cmd/cdnasweep -modes xen,cdna -dirs tx,rx \
		-warmup 0.02 -duration 0.05 -workers 0 -json /dev/null

# topo-smoke drives the multi-host fabric end to end through cdnasweep:
# two architectures at two rack sizes under incast and all-to-all with
# very short windows, then the same rack over multi-tier fabrics
# (leaf-spine and fat-tree) and an open-loop leaf-spine run driven from
# a checked-in flow trace. Wired into CI next to smoke.
topo-smoke:
	$(GO) run ./cmd/cdnasweep -modes xen,cdna -dirs tx -hosts 2,4 \
		-patterns incast,all2all -warmup 0.02 -duration 0.05 -workers 0 -json /dev/null
	$(GO) run ./cmd/cdnasweep -modes xen,cdna -dirs tx -hosts 4 \
		-patterns incast -fabrics leafspine,fattree \
		-warmup 0.02 -duration 0.05 -workers 0 -json /dev/null
	$(GO) run ./cmd/cdnasim -mode cdna -hosts 4 -pattern incast -fabric leafspine \
		-workload trace -tracefile internal/workload/testdata/smoke_trace.csv \
		-warmup 0.02 -duration 0.05 > /dev/null

# snap-smoke drives the checkpoint/restore layer end to end through
# cdnasweep: a fault-scenario grid (link flap, switch-port failure,
# whole-fabric blackout) warm-start forked from one shared warmup
# snapshot, with very short windows. Wired into CI next to topo-smoke.
snap-smoke:
	$(GO) run ./cmd/cdnasweep -modes xen,cdna -dirs tx -hosts 3 \
		-patterns incast -faults none,linkflap,portfail,blackout \
		-warmfork -warmup 0.02 -duration 0.05 -workers 0 -json /dev/null

# daemon-smoke drives the campaign service end to end: a sweep daemon
# is started, a small sweep runs remotely, the daemon is drained and
# restarted on the same durable store, and the same sweep runs again —
# the restarted run must be served ≥95% from the store and its JSON
# must be byte-identical to the first run's. Wired into CI next to
# snap-smoke.
daemon-smoke:
	@set -e; \
	dir=$$(mktemp -d /tmp/cdnadsmoke.XXXXXX); \
	trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o $$dir/cdnasweep ./cmd/cdnasweep; \
	run() { $$dir/cdnasweep -remote -socket $$dir/d.sock -progress=false \
		-modes xen,cdna -dirs tx,rx -warmup 0.02 -duration 0.05 "$$@"; }; \
	$$dir/cdnasweep -daemon -socket $$dir/d.sock -store $$dir/store & pid=$$!; \
	run -json $$dir/a.json; \
	run -drain; wait $$pid; \
	$$dir/cdnasweep -daemon -socket $$dir/d.sock -store $$dir/store & pid=$$!; \
	run -json $$dir/b.json -require-hit-rate 0.95; \
	run -drain; wait $$pid; \
	cmp $$dir/a.json $$dir/b.json; \
	echo "daemon-smoke ok: restarted run fully cached, byte-identical JSON"

# cover is the ratcheted coverage gate for the fabric-critical packages
# (the switch, the bridge/link layer it extends, the event core under
# them, and the snapshot envelope), the campaign service, and the
# physical page table every DMA check goes through. Floors only move
# up: raise them when coverage rises, never lower them to make a change
# pass. Current measured coverage is at or a few points above each
# floor.
cover:
	@set -e; \
	check() { \
		pct=$$($(GO) test -cover $$1 | grep -o 'coverage: [0-9.]*' | cut -d' ' -f2); \
		if [ -z "$$pct" ]; then echo "FAIL: no coverage reported for $$1"; exit 1; fi; \
		echo "$$1: $$pct% (floor $$2%)"; \
		ok=$$(awk -v p="$$pct" -v f="$$2" 'BEGIN{print (p+0 >= f+0) ? 1 : 0}'); \
		if [ "$$ok" != 1 ]; then echo "FAIL: $$1 coverage $$pct% below floor $$2%"; exit 1; fi; \
	}; \
	check ./internal/ether/ 90; \
	check ./internal/topo/ 92; \
	check ./internal/sim/ 92; \
	check ./internal/snap/ 90; \
	check ./internal/store/ 80; \
	check ./internal/daemon/ 72; \
	check ./internal/mem/ 92

# tables regenerates the paper's tables with short windows.
tables:
	$(GO) run ./cmd/cdnatables -quick

# paper reproduces the full evaluation as one parallel campaign.
paper:
	$(GO) run ./cmd/cdnasweep -preset paper -json results.json -csv results.csv

# bench measures the simulator itself (event-core micro-benchmarks +
# one end-to-end run) and records the perf trajectory in BENCH_sim.json.
# It runs twice — once with the reference heap queue (-tags simheap),
# once with the default hybrid near/far scheduler — so the committed
# artifact carries the hybrid vs. heap rows side by side. See
# EXPERIMENTS.md.
bench:
	$(GO) run -tags simheap ./cmd/cdnabench -out BENCH_heap.tmp.json
	$(GO) run ./cmd/cdnabench -ref BENCH_heap.tmp.json -out BENCH_sim.json
	rm -f BENCH_heap.tmp.json

# bench-check is the perf-regression gate: a short re-measurement
# compared against the committed BENCH_sim.json, failing on any
# ns/event metric more than BENCH_TOL percent worse (or any new
# steady-state allocation). The 15% default is meaningful on hardware
# comparable to the committed run's; CI overrides BENCH_TOL with a
# loose bound, because a shared runner being ~20% slower than the
# recording machine is normal variance, not a regression — there the
# gate catches order-of-magnitude slips and allocation creep.
BENCH_TOL ?= 15
bench-check:
	$(GO) run ./cmd/cdnabench -short -compare BENCH_sim.json -tol $(BENCH_TOL)

# pprof captures CPU and allocation profiles of the heaviest end-to-end
# scenario (4-host incast, sharded) into prof/. Inspect with
# `go tool pprof prof/cpu.out` / `go tool pprof prof/allocs.out`;
# EXPERIMENTS.md documents the workflow.
pprof:
	mkdir -p prof
	$(GO) run ./cmd/cdnasim -mode cdna -hosts 4 -pattern incast -shards 4 \
		-warmup 0.1 -duration 0.4 -cpuprofile prof/cpu.out -memprofile prof/allocs.out
	@echo "profiles written: prof/cpu.out prof/allocs.out"

clean:
	rm -f results.json results.csv BENCH_sim.json BENCH_heap.tmp.json
