# Graphene libOS reproduction — build/test/bench entry points.

GO ?= go
PKGS := ./...
# The RPC hot path: host byte streams and the IPC coordination framework.
HOT_PKGS := ./internal/host/... ./internal/ipc/...

.PHONY: build test race vet bench bench-fig5 chaos chaos-shard chaos-ring chaos-fleet chaos-elastic cover fuzz all

all: build vet test

build:
	$(GO) build $(PKGS)

# -shuffle=on randomizes test order within each package so hidden
# inter-test state (shared registries, leftover leader processes) fails
# loudly instead of depending on source order.
test:
	$(GO) test -shuffle=on $(PKGS)

# Race-detect the concurrency-heavy packages (ring buffers, flush
# combining, sharded caches, SysV migration).
race:
	$(GO) test -race -count=1 $(HOT_PKGS)

vet:
	$(GO) vet $(PKGS)

# Chaos + invariant suites: leader-crash failover (chaos_test.go),
# partition/heal fencing (chaos_partition_test.go), and the host partition
# primitives, under the race detector. The randomized schedules use fixed
# seeds, so -count=3 repeats the same fault plans against fresh thread
# interleavings — flakes here mean a real ordering bug, not test noise.
chaos:
	$(GO) test -race -count=3 -run 'Chaos|Partition' ./internal/ipc/ ./internal/host/

# Sharded namespace plane under fault: the 4-shard chaos suites (kill
# one shard's coordinator, partition a shard subset, leader flap during
# cross-shard reclaim) plus the shard-routing determinism and rebalance
# properties, under the race detector. Same fixed-seed discipline as
# `make chaos`.
chaos-shard:
	$(GO) test -race -count=3 -run 'Shard' ./internal/ipc/

# Kernel-bypass ring datapath under fault: the host segment protocol
# (seal fences, revocation, concurrent produce/consume) and the ipc-layer
# chaos suites (owner killed mid-send, sandbox split revoking a parked
# recv, ownership migration while attached), under the race detector.
# Same fixed-seed discipline as `make chaos`.
chaos-ring:
	$(GO) test -race -count=3 -run 'Ring' ./internal/ipc/ ./internal/host/

# Self-healing prefork fleet under chaos: worker kills mid-request,
# network partitions around quarantined workers, sandbox secession, and
# the SLO acceptance run (sustained open-loop load with a worker killed
# every 250 ms), on all three personalities, under the race detector.
# The fleet master is threads + pipes + signals all the way down, so
# -count=3 reruns the same scenarios against fresh interleavings.
chaos-fleet:
	$(GO) test -race -count=3 -run 'TestFleet' ./internal/apps/

# Elastic fleet + hot-standby master: the fake-clock supervisor sim
# (backoff/breaker/quarantine timing policy, p2c placement properties,
# drain-before-retire, scaler decision determinism under fault plans —
# zero real sleeps), the live elastic/standby integration tests
# (scale-up/down on a real fleet, master killed at a fault point mid-load,
# takeover inside the election window), and the listener-handover
# conformance contract on all three personalities. -count=3 because the
# sim is deterministic by construction — any run-to-run diff is a real
# nondeterminism bug — and the live tests are interleaving-heavy.
chaos-elastic:
	$(GO) test -race -count=3 -run 'TestSim|TestFleetElastic|TestFleetStandby|TestFleetTakeover' ./internal/apps/
	$(GO) test -race -count=3 -run 'TestConformanceListener' ./internal/baseline/conformance/

# Coverage profile over every package; CI uploads coverage.out as an
# artifact. -covermode=atomic because the suites are concurrency-heavy.
cover:
	$(GO) test -shuffle=on -covermode=atomic -coverprofile=coverage.out $(PKGS)
	$(GO) tool cover -func=coverage.out | tail -n 1

# Short smoke run of the frame-codec, checkpoint-decode and section-codec
# fuzzers (the checked-in corpora under internal/ipc/testdata/fuzz and
# internal/liblinux/testdata/fuzz always run as part of `make test`).
fuzz:
	$(GO) test -run XXX -fuzz FuzzFrameCodec -fuzztime 30s ./internal/ipc/
	$(GO) test -run XXX -fuzz FuzzFrameDecode -fuzztime 30s ./internal/ipc/
	$(GO) test -run XXX -fuzz FuzzCheckpointDecode -fuzztime 30s ./internal/liblinux/
	$(GO) test -run XXX -fuzz FuzzSectionCodec -fuzztime 30s ./internal/liblinux/

# Microbenchmarks with allocation accounting for the hot path.
bench:
	$(GO) test -run XXX -bench . -benchmem $(HOT_PKGS)

# The paper's Figure 5 RPC ping-pong and related end-to-end benchmarks.
bench-fig5:
	$(GO) test -run XXX -bench 'BenchmarkFig5' -benchmem .
