package client

import (
	"bytes"
	"strconv"
	"testing"

	"nasd/internal/capability"
	"nasd/internal/drive"
	"nasd/internal/telemetry"
)

// TestTelemetryEndToEnd drives a secure client/drive pair and checks
// the whole observability story: per-op drive counters with the
// digest/object split, RPC-plane counters sharing the registry, cache
// hit counters, trace-ID propagation from client context to the
// drive's request log, and the stats RPC that carries it all back.
func TestTelemetryEndToEnd(t *testing.T) {
	r := newRig(t, true)
	r.mkpart(t, 1, 0)

	cc := r.mint(t, 1, 0, 0, capability.CreateObj)
	obj, err := r.cli.Create(testCtx, &cc, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("telemetry"), 512)
	wc := r.mint(t, 1, obj, 1, capability.Write)
	if err := r.cli.Write(testCtx, &wc, 1, obj, 0, data); err != nil {
		t.Fatal(err)
	}

	ctx, reqID := telemetry.WithRequestID(testCtx)
	rc := r.mint(t, 1, obj, 1, capability.Read)
	before, err := r.cli.ServerStats(testCtx, drive.StatsArgs{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // second read is a guaranteed cache hit
		got, err := r.cli.Read(ctx, &rc, 1, obj, 0, len(data))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("read returned wrong data")
		}
	}

	sr, err := r.cli.ServerStats(testCtx, drive.StatsArgs{TraceN: 64})
	if err != nil {
		t.Fatal(err)
	}
	m := sr.Metrics
	if m.Counters["drive.op.read.calls"] < 2 {
		t.Fatalf("drive.op.read.calls = %d, want >= 2", m.Counters["drive.op.read.calls"])
	}
	if m.Counters["drive.op.read.digest_ns"] == 0 {
		t.Fatal("secure reads must accrue digest time")
	}
	if m.Counters["drive.op.read.bytes_out"] < uint64(2*len(data)) {
		t.Fatalf("drive.op.read.bytes_out = %d", m.Counters["drive.op.read.bytes_out"])
	}
	if h := m.Histograms["drive.op.read.svc_ns"]; h.Count < 2 || h.Sum <= 0 {
		t.Fatalf("drive.op.read.svc_ns: %+v", h)
	}
	// The RPC server shares the registry and names ops via drive.Op.
	if m.Counters["rpc.server.op.read.calls"] < 2 {
		t.Fatalf("rpc.server.op.read.calls = %d, want >= 2", m.Counters["rpc.server.op.read.calls"])
	}
	// Cache hits incremented across the two reads of the same blocks.
	if m.Gauges["drive.cache.hits"] <= before.Metrics.Gauges["drive.cache.hits"] {
		t.Fatalf("cache hits did not increase: %d -> %d",
			before.Metrics.Gauges["drive.cache.hits"], m.Gauges["drive.cache.hits"])
	}

	// The context request ID crossed the wire into the drive's request
	// log: its handler spans carry the trace ID and the served bytes.
	found := 0
	for _, r := range sr.Requests {
		if r.TraceID == reqID {
			found++
			if r.Name != "drive.read" || r.Note("status") != "ok" || r.Note("bytes_out") != strconv.Itoa(len(data)) {
				t.Fatalf("traced request = %+v, want an ok drive.read of %d bytes", r, len(data))
			}
		}
	}
	if found != 2 {
		t.Fatalf("found %d traced reads with request ID %d, want 2", found, reqID)
	}

	// Client-side registry carries the RPC client family.
	cs := r.cli.Metrics().Snapshot()
	if cs.Counters["rpc.client.calls"] == 0 {
		t.Fatal("client registry recorded no RPC calls")
	}
	if cs.Counters["rpc.client.bytes_sent"] == 0 || cs.Counters["rpc.client.bytes_recv"] == 0 {
		t.Fatalf("client byte counters never moved: %+v", cs.Counters)
	}
	if n := cs.Gauges["rpc.client.inflight"]; n != 0 {
		t.Fatalf("rpc.client.inflight = %d after all calls returned", n)
	}
}
