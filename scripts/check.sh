#!/bin/sh
# The repository's test gate: formatting, static analysis, and the full
# test suite under the race detector. CI and pre-commit hooks should run
# exactly this script so local and automated checks never drift.
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./..."
go test -race ./...

# Fault-tolerance focus: rerun the fault/retry/failover tests by name so
# a resilience regression is called out explicitly instead of hiding in
# the full-suite output above.
echo "==> go test -race -run 'Faults|Retry|Reconnect|NeverSent|FateUnknown|Breaker|Chaos|Rollback|Hang|CapabilityRenewal' (fault-tolerance focus)"
go test -race \
    -run 'Faults|Retry|Reconnect|NeverSent|FateUnknown|Breaker|Chaos|Rollback|Hang|CapabilityRenewal' \
    ./internal/rpc ./internal/client ./internal/cheops ./internal/blockdev

# Crash-consistency focus: re-run the DESIGN.md §7 durability tests by
# name — journal framing/commit/replay, CrashDisk semantics, layout's
# onode/refcount journal replay and superblock decoding, the needle
# compaction barrier (TestCompactionSurvivesCrash), the quota
# accounting check that the live per-write settlement matches the
# mount-time census (TestQuotaAccountingExact*), and a short-mode
# crash sweep — so a recovery regression is called out explicitly. The
# sweep runs the shipping configuration with background compaction, so
# one run samples one set of goroutine interleavings; the full
# 1000+-point sweep runs in the suite above and, three times under
# -race with -v, in CI's dedicated crash-sweep job.
echo "==> go test -race -short -run 'Crash|Journal|Torn|Recover|Checkpoint|Commit|QuotaAccountingExact|Superblock' (crash-consistency focus)"
go test -race -short \
    -run 'Crash|Journal|Torn|Recover|Checkpoint|Commit|QuotaAccountingExact|Superblock' \
    ./internal/journal ./internal/blockdev ./internal/layout ./internal/needle ./internal/object

# Chaos smoke: the kill/restart soak from DESIGN.md §6-§7 must pass end
# to end — the victim drive is killed mid-run (server down, volatile
# cache dropped), restarted through journal recovery, marked stale, and
# rebuilt; every op still verifies, and the run asserts the
# retry/failover/breaker counters AND journal.replays advanced.
echo "==> go run ./cmd/nasdbench -workload chaos -chaos-duration 2s -json ."
go run ./cmd/nasdbench -workload chaos -chaos-duration 2s -json . > /dev/null
test -s BENCH_chaos.json

# Benchmark smoke: every benchmark must still run (one iteration each);
# regressions in benchmark-only code paths surface here, not in CI
# archaeology. -benchmem keeps allocs/op visible so the zero-copy data
# path's allocation discipline is checked on every run, not just when
# someone remembers to ask for it.
echo "==> go test -run '^$' -bench . -benchtime 1x -benchmem ./..."
go test -run '^$' -bench . -benchtime 1x -benchmem ./...

# Repo benchmark checks: perfbench is a nested module, so the root
# `go test ./...` above neither builds nor tests it. Vet and test it
# here (a deletion in the root module that breaks perfbench's build
# fails at this step), then run a short traced stream workload — the
# bulk write/read path with its Table-1 split and lock table — whose
# summary line must report every byte verified.
echo "==> (cd perfbench && go vet ./... && go test ./...)"
(cd perfbench && go vet ./... && go test ./...)
echo "==> bash perfbench/run.sh --workload stream --seed 1 --seconds 2 --trace 1"
stream_out=$(bash perfbench/run.sh --workload stream --seed 1 --seconds 2 --trace 1)
echo "$stream_out" | tail -n 1 | grep -q '"correct":true' || { echo "perfbench stream smoke: last line does not report \"correct\":true" >&2; exit 1; }

# QoS smoke: the multi-tenant overload scenario must hold its
# starvation bound end to end — a ~10x open-loop aggressor flood
# through the qos plane (admission queue, token buckets, WDRR,
# deadline shedding) may not push the victim tenant's p99 past 3x its
# solo baseline, the victim must see zero failures, and every
# rejection must be the typed retry-later reply. The workload itself
# asserts all of that and exits nonzero on breach; BENCH_qos.json
# rides the same CI artifact upload as the other bench results.
echo "==> go run ./cmd/nasdbench -workload qos -qos-duration 1s -qos-clients 300 -json ."
go run ./cmd/nasdbench -workload qos -qos-duration 1s -qos-clients 300 -json . > /dev/null
test -s BENCH_qos.json
grep -q '"starvation_assert_ok": 1' BENCH_qos.json || { echo "qos smoke: starvation assertion not recorded as passing" >&2; exit 1; }

# Backend comparison smoke: the classic-vs-needle small-object run must
# complete on both engines and emit its side-by-side result (recipe and
# measured numbers in EXPERIMENTS.md).
echo "==> go run ./cmd/nasdbench -workload smallobj -smallobj-objects 2000 -json ."
go run ./cmd/nasdbench -workload smallobj -smallobj-objects 2000 -json . > /dev/null
test -s BENCH_smallobj.json

# Fleet observability smoke: two live daemons, one aggregated snapshot.
# `nasdctl fleet -json` must poll both drives' stats ops and emit the
# merged FleetSnapshot (per-drive rows + merged counters/histograms/
# events); CI uploads FLEET_smoke.json alongside the bench artifacts.
echo "==> nasdctl fleet -json against a 2-drive harness"
go build -o /tmp/nasd-check-nasdd ./cmd/nasdd
go build -o /tmp/nasd-check-nasdctl ./cmd/nasdctl
/tmp/nasd-check-nasdd -listen 127.0.0.1:17071 -id 1 -insecure -blocks 4096 &
d1=$!
/tmp/nasd-check-nasdd -listen 127.0.0.1:17072 -id 2 -insecure -blocks 4096 &
d2=$!
trap 'kill $d1 $d2 2>/dev/null || true' EXIT
fleet_ok=0
for i in 1 2 3 4 5 6 7 8 9 10; do
    if /tmp/nasd-check-nasdctl -insecure -addr 127.0.0.1:17071,127.0.0.1:17072 \
        -timeout 5s fleet -json > FLEET_smoke.json 2>/dev/null; then
        fleet_ok=1
        break
    fi
    sleep 1
done
kill $d1 $d2 2>/dev/null || true
trap - EXIT
[ "$fleet_ok" = 1 ] || { echo "fleet smoke: nasdctl fleet never succeeded" >&2; exit 1; }
test -s FLEET_smoke.json
grep -q '"merged"' FLEET_smoke.json || { echo "fleet smoke: snapshot has no merged section" >&2; exit 1; }

echo "OK"
