GO ?= go

.PHONY: all build vet test race bench fuzz docs smoke-cluster smoke-cache smoke-replica smoke-store metrics-smoke ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench runs the full paper-evaluation + serving benchmark suite and
# refreshes the committed perf trajectories: the crypto fast path
# (BENCH_crypto.json), the observability overhead bound (BENCH_obs.json),
# the edge-cache speedup record (BENCH_cache.json) and the distributed
# tier with the R-way replication sweep and kill drill
# (BENCH_cluster.json) — the files CI uploads and future PRs diff
# against.
bench:
	$(GO) test -run xxx -bench . -benchmem .
	$(GO) run ./cmd/vcbench -exp crypto -out BENCH_crypto.json
	$(GO) run ./cmd/vcbench -exp obs -out BENCH_obs.json
	$(GO) run ./cmd/vcbench -exp cache -out BENCH_cache.json
	$(GO) run ./cmd/vcbench -exp cluster -out BENCH_cluster.json

# bench-smoke is the CI-sized slice of bench: one iteration of the Go
# benchmarks and the crypto sweep at reduced scale.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x .
	$(GO) run ./cmd/vcbench -exp crypto -short -out BENCH_crypto.json

# fuzz smoke-tests the wire decoders — chunk, cache, node sub-stream,
# lease and shard-transfer frames, all on the one binary frame codec —
# plus the durable store's on-disk codecs (WAL records and epoch
# snapshot files).
fuzz:
	$(GO) test -run xxx -fuzz FuzzReadChunkFrame -fuzztime 30s ./internal/wire
	$(GO) test -run xxx -fuzz FuzzReadCacheFrame -fuzztime 30s ./internal/wire
	$(GO) test -run xxx -fuzz FuzzReadNodeFrame -fuzztime 30s ./internal/wire
	$(GO) test -run xxx -fuzz FuzzReadLeaseFrame -fuzztime 30s ./internal/wire
	$(GO) test -run xxx -fuzz FuzzReadShardTransfer -fuzztime 30s -fuzzminimizetime 5s ./internal/wire
	$(GO) test -run xxx -fuzz FuzzReadWALRecord -fuzztime 30s ./internal/store
	$(GO) test -run xxx -fuzz FuzzReadSnapshot -fuzztime 30s ./internal/store

# smoke-cluster launches 1 coordinator + 2 shard nodes as separate OS
# processes, streams a cross-node verified query and runs one online
# rebalance — the verbatim-tested README quickstart for the distributed
# tier (also run by CI).
smoke-cluster:
	sh scripts/cluster_smoke.sh

# smoke-replica launches 1 coordinator + 3 shard nodes at R=2 as
# separate OS processes, kills one node mid-traffic and proves every
# verified query still answers (zero failures) while the routing table
# demotes the dead node — the verbatim-tested README replication
# quickstart (also run by CI).
smoke-replica:
	sh scripts/replica_smoke.sh

# smoke-store launches the replicated cluster with every process backed
# by a -data-dir, SIGKILLs a node under live traffic and proves it
# rejoins from its own WAL with zero slices re-transferred and zero
# failed queries — the verbatim-tested README durability quickstart
# (also run by CI).
smoke-store:
	sh scripts/store_smoke.sh

# smoke-cache adds an untrusted edge-cache peer to the multi-process
# cluster, repeats a verified stream query until the tier serves a
# validated hit, and asserts the hit from both sides — the
# verbatim-tested README "Edge caching" quickstart (also run by CI).
smoke-cache:
	sh scripts/cache_smoke.sh

# metrics-smoke exercises every monitoring surface of a live vcserve:
# /metrics, /metrics.json, /debug/slowlog and pprof, on the query port
# and the standalone -debug-addr listener — the verbatim-tested form of
# docs/OPERATIONS.md § "Monitoring" (also run by CI).
metrics-smoke:
	sh scripts/metrics_smoke.sh

# docs checks formatting hygiene and that every example still builds, so
# the snippets README/DESIGN point at cannot rot.
docs:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "files need gofmt:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) build ./examples/...

ci: vet build race docs
