GO ?= go

.PHONY: build test race race4 vet fmt bench bins conformance alloccheck fuzz replay churn verify arbiter chaos drain connscale clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race4 exercises the epoch-reclamation races (pin vs retire vs reclaim) with
# real parallelism; CI runs this as its own lane.
race4:
	GOMAXPROCS=4 $(GO) test -race -count=1 ./internal/store/...

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

conformance:
	$(GO) test -count=1 -run TestServerProtocolConformance -v ./internal/server/

# alloccheck runs the testing.AllocsPerRun gates that pin the hot-path
# allocation floors (GET hit = 0 through protocol+server+store with the value
# streamed zero-copy from an epoch-pinned arena view; GET miss = 0 — the
# lookup event's key rides a pooled per-shard buffer; SET, cross-class re-set
# and append/prepend = 0 — value chunks recycled through the slab arena, item
# records pooled per shard; a depth-1 round trip over a real socket, leasing
# and returning the batch buffers, = 0; set+delete churn <= 1; streaming
# client pipelined GET <= 1 amortized over a real socket). An accidental allocation on the
# mutation path fails the build, not a future benchmark run.
alloccheck:
	$(GO) test -count=1 -run 'TestAllocGate' -v ./internal/server/ ./internal/store/ ./internal/client/

# fuzz gives each protocol fuzz target a short budget; CI runs the seed
# corpus via plain `go test`.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzParser$$ -fuzztime=20s ./internal/protocol/
	$(GO) test -run=NONE -fuzz=FuzzParserPipelineSync -fuzztime=20s ./internal/protocol/

bench:
	$(GO) test -run=NONE -bench=BenchmarkStoreGetSet -benchmem ./internal/store/
	$(GO) test -run=NONE -bench=BenchmarkStoreReadMostly -benchmem ./internal/store/
	$(GO) test -run=NONE -bench=BenchmarkStoreWriteHeavy -benchmem ./internal/store/
	$(GO) test -run=NONE -bench=BenchmarkServerPipelined -benchmem ./internal/server/

bins:
	$(GO) build -o bin/cliffhangerd ./cmd/cliffhangerd
	$(GO) build -o bin/cliffbench ./cmd/cliffbench

# replay is the trace-replay smoke: boot cliffhangerd with the Memcachier
# tenant layout and drive it with the synthetic Memcachier trace for a couple
# of seconds (CI runs this after the unit suites).
replay: bins
	@set -e; \
	addr=127.0.0.1:13219; \
	tenants=$$(./bin/cliffbench -trace memcachier -print-tenants); \
	./bin/cliffhangerd -addr $$addr -tenants $$tenants & pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	sleep 1; \
	./bin/cliffbench -addr $$addr -trace memcachier -duration 2s -pipeline 8

# churn is the tenant-lifecycle smoke: boot cliffhangerd, then run the
# cliffbench churn scenario — tenant_create mid-run, a live 50% shrink of the
# loaded tenant, restore, tenant_delete — reporting per-phase hit rates. Any
# failed request or dropped connection against the primary tenant fails the
# run.
churn: bins
	@set -e; \
	addr=127.0.0.1:13221; \
	./bin/cliffhangerd -addr $$addr -tenants default:64 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	sleep 1; \
	./bin/cliffbench -addr $$addr -churn -duration 8s -conns 4 -keys 60000 -value 900 -tenant-mb 64 -churn-mb 32

# verify cross-checks wire-replay hit rates against internal/sim for the
# same seeded Memcachier trace (also covered by the Go test
# TestCrossCheckMemcachierSimVsWire).
verify: bins
	./bin/cliffbench -trace memcachier -verify -requests 100000 -scale 0.25

# arbiter is the memshare smoke: the default/cliffhanger/memshare
# head-to-head on the Memcachier trace with every app naively granted an
# equal partition. The gate fails unless memshare's wire aggregate beats the
# cliffhanger static split, every mode's sim-vs-wire agreement and
# conservation audit holding along the way; the store-level convergence and
# thrash proofs run under the race detector first.
arbiter: bins
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestArbiter|TestPlanArbiterMove' -v ./internal/store/
	./bin/cliffbench -trace memcachier -scale 0.25 -hitrate-json BENCH_hitrate.json -hitrate-gate

# chaos runs the fault-injection suite under the race detector with real
# parallelism: the connection governor, graceful drain and chaos proxy are
# driven through resets mid-payload, slow-loris dribbles, half-closed
# sockets, accept storms and panicking handlers, asserting no panics, no
# goroutine leaks, exact arena conservation and zero failed requests for the
# healthy cohort.
chaos:
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestChaos' ./internal/server/
	GOMAXPROCS=4 $(GO) test -race -count=1 ./internal/chaos/ ./internal/client/

# drain is the graceful-shutdown smoke: SIGTERM a live cliffhangerd while
# cliffbench hammers it through the chaos proxy. The daemon must exit 0
# (clean drain within -drain-timeout, every accepted in-flight request
# answered) and cliffbench must retire its workers gracefully.
drain: bins
	@set -e; \
	addr=127.0.0.1:13223; \
	./bin/cliffhangerd -addr $$addr -tenants default:64 -drain-timeout 10s & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	sleep 1; \
	./bin/cliffbench -addr $$addr -duration 30s -conns 4 -keys 20000 \
		-chaos 'latency=200us,chunk=64,reset-prob=0.00002' -tolerate-faults & bench=$$!; \
	sleep 3; \
	kill -TERM $$pid; \
	if wait $$pid; then echo "drain: daemon exited cleanly"; else \
		echo "drain: daemon failed to drain cleanly"; exit 1; fi; \
	wait $$bench || true

# connscale is the connection-scale smoke: hold CONNS mostly-idle
# connections against one daemon while a hot cohort measures p50/p99, and
# record the run in BENCH_conns.json. The gate requires zero failed requests
# and at most 17,526 resident bytes per connection: the 140,215 B an idle
# connection cost when it pinned two 64 KiB session buffers, cut 8x — which
# leasing those buffers only for the length of a batch exists to deliver.
CONNS ?= 10000
CONN_RATE ?= 2000
connscale: bins
	@set -e; \
	addr=127.0.0.1:13225; \
	./bin/cliffhangerd -addr $$addr -tenants default:64 -max-conns 0 -idle-timeout 10m & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	sleep 1; \
	./bin/cliffbench -addr $$addr -conns $(CONNS) -conn-rate $(CONN_RATE) -duration 3s -conns-json BENCH_conns.json -conns-gate

clean:
	rm -rf bin
