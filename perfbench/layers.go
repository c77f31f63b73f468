package main

import (
	"fmt"

	"nasd/internal/capability"
)

// Tenants of the tenants workload, as client-span classes.
const (
	classVictim uint8 = iota
	classAggressor
)

var tenantNames = map[uint8]string{classVictim: "victim", classAggressor: "aggressor"}

// tenantPart is each tenant's partition.
var tenantPart = map[uint8]uint16{classVictim: 1, classAggressor: 2}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// perLayer lists the metrics a traced run reports. Every workload
// reports all of them; a layer a workload does not exercise reads 0,
// and so does a percentile whose op had too few samples for it.
var perLayer = func() []metricDef {
	out := []metricDef{{"client.retries", "count"}, {"client.backpressure_waits", "count"}}
	for _, op := range clientOpNames {
		out = append(out, metricDef{"rpc.self_p50_us." + op, "us"}, metricDef{"rpc.self_p99_us." + op, "us"})
	}
	out = append(out, metricDef{"rpc.server.rejected", "count"})
	for _, c := range []uint8{classVictim, classAggressor} {
		t := tenantNames[c]
		out = append(out, metricDef{"qos.wait_p99_us." + t, "us"}, metricDef{"qos.shed." + t, "count"},
			metricDef{"qos.rejected." + t, "count"}, metricDef{"qos.throttled." + t, "count"})
	}
	for _, op := range clientOpNames {
		out = append(out, metricDef{"drive.self_p50_us." + op, "us"}, metricDef{"drive.self_p99_us." + op, "us"})
	}
	return append(out, []metricDef{
		{"drive.digest_share", "ratio"},
		{"crypt.digest_cache.hit_ratio", "ratio"},
		{"object.lock.contended_ratio", "ratio"},
		{"object.lock.wait_p99_us", "us"},
		{"cache.hit_ratio", "ratio"},
		{"journal.appends_per_commit", "ratio"},
		{"journal.commits_per_user_MB", "1/MB"},
		{"needle.compactions", "count"},
		{"needle.media_per_read", "ratio"},
		{"blockdev.reads_per_op", "ratio"},
		{"blockdev.writes_per_op", "ratio"},
		{"blockdev.write_amp", "ratio"},
		{"blockdev.flushes", "count"},
		{"blockdev.busy_share", "ratio"},
		{"blockdev.unattributed_share", "ratio"},
		{"bufpool.miss_ratio", "ratio"},
		{"go.alloc_bytes_per_op", "B"},
		{"go.gc_per_s", "1/s"},
		{"go.cpu_us_per_op", "us"},
		{"gen.lag_p99_us", "us"},
		{"trace.overhead", "ratio"},
		{"table1.rpc_share", "ratio"},
		{"table1.qos_share", "ratio"},
		{"table1.drive_share", "ratio"},
		{"table1.device_share", "ratio"},
		{"table1.unexplained_share", "ratio"},
		// End-to-end metrics that do not repeat well enough to gate.
		{"e2e.read_p99_ms", "ms"},
		{"e2e.write_p99_ms", "ms"},
		{"e2e.read_MBps", "MB/s"},
		{"e2e.space_amp", "ratio"},
		{"e2e.max_rate_ops", "ops/s"},
		{"e2e.victim_p99_ratio", "x"},
	}...)
}()

// usage is what the workload's clients did in the timed window, the
// base of every per-op ratio.
type usage struct {
	ops        int64   // logical operations completed
	userWriteB int64   // payload bytes the clients wrote
	lagP99us   float64 // open-loop generator lag p99 (0 for closed loops)
}

// layerMetrics computes the per-layer metrics of a traced window.
func layerMetrics(w *window, rep *traceReport, u usage) map[string]float64 {
	m := map[string]float64{
		"client.retries":            w.cli("client.retries"),
		"client.backpressure_waits": w.cli("client.backpressure_waits"),
		"rpc.server.rejected":       w.srv("rpc.server.rejected"),
		"gen.lag_p99_us":            u.lagP99us,
	}
	pct := func(sorted []int64, q float64) float64 {
		if !tailOK(len(sorted), q) {
			return 0
		}
		return us(quantile(sorted, q))
	}
	for op := clientOp(0); op < numClientOps; op++ {
		m["rpc.self_p50_us."+op.String()] = pct(rep.rpcSelf[op], 0.50)
		m["rpc.self_p99_us."+op.String()] = pct(rep.rpcSelf[op], 0.99)
		m["drive.self_p50_us."+op.String()] = pct(rep.driveSelf[op], 0.50)
		m["drive.self_p99_us."+op.String()] = pct(rep.driveSelf[op], 0.99)
	}
	for c, t := range tenantNames {
		m["qos.wait_p99_us."+t] = pct(rep.qosWait[c], 0.99)
		prefix := "drive." + capability.TenantKey(tenantPart[c]) + ".qos."
		m["qos.shed."+t] = w.srv(prefix + "shed")
		m["qos.rejected."+t] = w.srv(prefix + "rejected")
		m["qos.throttled."+t] = w.srv(prefix + "throttled")
	}
	var digest, svc float64
	for _, op := range []string{"read", "write", "getattr", "create", "remove"} {
		digest += w.srv(fmt.Sprintf("drive.op.%s.digest_ns", op))
		h := w.srvHist(fmt.Sprintf("drive.op.%s.svc_ns", op))
		svc += float64(h.Sum)
	}
	m["drive.digest_share"] = ratio(digest, svc)
	hits := w.srv("crypt.digest_cache.hits")
	m["crypt.digest_cache.hit_ratio"] = ratio(hits, hits+w.srv("crypt.digest_cache.misses"))
	m["object.lock.contended_ratio"] = ratio(w.srv("object.lock.contended"), w.srv("object.lock.acquire"))
	lw := w.srvHist("object.lock.wait_ns")
	if tailOK(int(lw.Count), 0.99) {
		m["object.lock.wait_p99_us"] = us(lw.Quantile(0.99))
	}
	ch := w.srv("drive.cache.hits")
	m["cache.hit_ratio"] = ratio(ch, ch+w.srv("drive.cache.misses"))
	m["journal.appends_per_commit"] = ratio(w.srv("journal.appends"), w.srv("journal.commits"))
	m["journal.commits_per_user_MB"] = ratio(w.srv("journal.commits"), float64(u.userWriteB)/(1<<20))
	m["needle.compactions"] = w.srv("needle.compactions")
	m["needle.media_per_read"] = ratio(w.srv("needle.read_block_ios"), w.srv("needle.reads"))
	m["blockdev.reads_per_op"] = ratio(float64(rep.devReads), float64(u.ops))
	m["blockdev.writes_per_op"] = ratio(float64(rep.devWrites), float64(u.ops))
	m["blockdev.write_amp"] = ratio(float64(rep.devWriteB), float64(u.userWriteB))
	m["blockdev.flushes"] = float64(rep.devFlushes)
	m["blockdev.busy_share"] = ratio(float64(rep.devBusy), float64(rep.windowNS))
	m["blockdev.unattributed_share"] = rep.unattributed
	m["bufpool.miss_ratio"] = ratio(w.srv("bufpool.misses"), w.srv("bufpool.gets"))
	m["go.alloc_bytes_per_op"] = ratio(float64(w.mem1.TotalAlloc-w.mem0.TotalAlloc), float64(u.ops))
	m["go.gc_per_s"] = float64(w.mem1.NumGC-w.mem0.NumGC) / w.seconds()
	m["go.cpu_us_per_op"] = ratio(us(int64(w.cpu1-w.cpu0)), float64(u.ops))
	t := &rep.total
	m["table1.rpc_share"] = t.share(t.rpc)
	m["table1.qos_share"] = t.share(t.qos)
	m["table1.drive_share"] = t.share(t.drv)
	m["table1.device_share"] = t.share(t.dev)
	m["table1.unexplained_share"] = t.share(t.gap)
	return m
}
