package main

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nasd/internal/blockdev"
	"nasd/internal/drive"
	"nasd/internal/rpc"
	"nasd/internal/telemetry"
)

// The traced run times the layer boundaries the benchmark can reach
// from outside the program: each public client call, server entry (an
// rpc.Handler composed through rpc.NewServer), the drive handler under
// the qos plane, and every device call (a blockdev.Device wrapper under
// the drive). A request's spans share the trace ID that rpc.Request
// carries, stamped from the context each client call is given. Spans
// stay in memory until the run ends.

type spanKind uint8

const (
	kindClient spanKind = iota
	kindEntry
	kindDrive
	kindDevice
	numKinds
)

// clientOp names a public client call.
type clientOp uint16

const (
	opRead clientOp = iota
	opWrite
	opGetAttr
	opCreate
	opRemove
	numClientOps
)

var clientOpNames = [numClientOps]string{"read", "write", "getattr", "create", "remove"}

func (o clientOp) String() string { return clientOpNames[o] }

// driveOps are the drive ops the per-layer metrics report, by the
// names the client calls use.
var driveOps = map[drive.Op]clientOp{
	drive.OpReadObject:   opRead,
	drive.OpWriteObject:  opWrite,
	drive.OpGetAttr:      opGetAttr,
	drive.OpCreateObject: opCreate,
	drive.OpRemoveObject: opRemove,
}

// Device span ops.
const (
	devRead uint16 = iota
	devWrite
	devFlush
)

// span is one timed interval, in nanoseconds since the tracer's origin.
type span struct {
	trace      uint64
	start, end int64
	op         uint16
	class      uint8 // client spans: the caller's class (tenant)
	bytes      int32 // device spans: bytes moved
}

func (s span) dur() int64 { return s.end - s.start }

// tracer records spans while on. A nil tracer records nothing; the
// untraced run passes nil.
type tracer struct {
	origin time.Time
	on     atomic.Bool
	onAt   int64
	offAt  int64

	mu    sync.Mutex
	spans [numKinds][]span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// start begins recording (the timed window opens).
func (t *tracer) start() {
	if t == nil {
		return
	}
	t.onAt = t.now()
	t.on.Store(true)
}

// stop ends recording (the timed window closes).
func (t *tracer) stop() {
	if t == nil {
		return
	}
	t.on.Store(false)
	t.offAt = t.now()
}

func (t *tracer) add(k spanKind, s span) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.spans[k] = append(t.spans[k], s)
	t.mu.Unlock()
}

// call runs one public client call under a fresh request ID, which the
// client stamps into rpc.Request.Trace, and records its client span
// when traced. The request ID is stamped in untraced runs too, so both
// runs drive the program identically.
func (t *tracer) call(ctx context.Context, op clientOp, class uint8, f func(ctx context.Context) error) error {
	id := telemetry.NextRequestID()
	ctx = telemetry.WithExplicitRequestID(ctx, id)
	if t == nil {
		return f(ctx)
	}
	start := t.now()
	err := f(ctx)
	t.add(kindClient, span{trace: id, start: start, end: t.now(), op: uint16(op), class: class})
	return err
}

// entryHandler times server entry: everything from the rpc worker
// handing the request over until the reply is built. Without a qos
// plane the drive is the entry handler, so the span is also the drive
// span.
type entryHandler struct {
	t       *tracer
	next    rpc.Handler
	isDrive bool
}

func (t *tracer) entryHandler(next rpc.Handler, isDrive bool) rpc.Handler {
	return &entryHandler{t: t, next: next, isDrive: isDrive}
}

func (h *entryHandler) Handle(req *rpc.Request) *rpc.Reply {
	id, op := req.Trace.TraceID, req.Proc
	start := h.t.now()
	rep := h.next.Handle(req)
	s := span{trace: id, start: start, end: h.t.now(), op: op}
	h.t.add(kindEntry, s)
	if h.isDrive {
		h.t.add(kindDrive, s)
	}
	return rep
}

// driveHandler times the drive under the qos plane.
type driveHandler struct {
	t    *tracer
	next rpc.Handler
}

func (t *tracer) driveHandler(next rpc.Handler) rpc.Handler { return &driveHandler{t: t, next: next} }

func (h *driveHandler) Handle(req *rpc.Request) *rpc.Reply {
	id, op := req.Trace.TraceID, req.Proc
	start := h.t.now()
	rep := h.next.Handle(req)
	h.t.add(kindDrive, span{trace: id, start: start, end: h.t.now(), op: op})
	return rep
}

// traceDev times every device call. It forwards range I/O, so the
// store keeps its multi-block path under the wrapper.
type traceDev struct {
	t   *tracer
	dev blockdev.Device
}

func (t *tracer) device(dev blockdev.Device) blockdev.Device { return &traceDev{t: t, dev: dev} }

func (d *traceDev) BlockSize() int { return d.dev.BlockSize() }
func (d *traceDev) Blocks() int64  { return d.dev.Blocks() }

func (d *traceDev) io(op uint16, n int, f func() error) error {
	start := d.t.now()
	err := f()
	d.t.add(kindDevice, span{start: start, end: d.t.now(), op: op, bytes: int32(n)})
	return err
}

func (d *traceDev) ReadBlock(i int64, buf []byte) error {
	return d.io(devRead, len(buf), func() error { return d.dev.ReadBlock(i, buf) })
}

func (d *traceDev) WriteBlock(i int64, data []byte) error {
	return d.io(devWrite, len(data), func() error { return d.dev.WriteBlock(i, data) })
}

func (d *traceDev) ReadBlocks(start int64, buf []byte) error {
	return d.io(devRead, len(buf), func() error { return blockdev.ReadBlocks(d.dev, start, buf) })
}

func (d *traceDev) WriteBlocks(start int64, data []byte) error {
	return d.io(devWrite, len(data), func() error { return blockdev.WriteBlocks(d.dev, start, data) })
}

func (d *traceDev) Flush() error { return d.io(devFlush, 0, d.dev.Flush) }

var _ blockdev.BlockRanger = (*traceDev)(nil)

// ---- analysis ---------------------------------------------------------

type ival struct{ s, e int64 }

// union sorts iv and merges overlapping intervals.
func union(iv []ival) []ival {
	if len(iv) == 0 {
		return nil
	}
	slices.SortFunc(iv, func(a, b ival) int { return cmp.Compare(a.s, b.s) })
	out := iv[:1]
	for _, x := range iv[1:] {
		last := &out[len(out)-1]
		if x.s <= last.e {
			last.e = max(last.e, x.e)
			continue
		}
		out = append(out, x)
	}
	return out
}

func length(iv []ival) int64 {
	var n int64
	for _, x := range iv {
		n += x.e - x.s
	}
	return n
}

// overlap returns how much of the disjoint sorted set a the disjoint
// sorted set b covers; b may be large.
func overlap(a, b []ival) int64 {
	var n int64
	for _, x := range a {
		i := sort.Search(len(b), func(i int) bool { return b[i].e > x.s })
		for ; i < len(b) && b[i].s < x.e; i++ {
			n += min(x.e, b[i].e) - max(x.s, b[i].s)
		}
	}
	return n
}

// t1Row is one row of the Table-1-shaped split of client latency.
type t1Row struct {
	calls                           int
	client, rpc, qos, drv, dev, gap int64
}

func (r *t1Row) add(o t1Row) {
	r.calls += o.calls
	r.client += o.client
	r.rpc += o.rpc
	r.qos += o.qos
	r.drv += o.drv
	r.dev += o.dev
	r.gap += o.gap
}

func (r *t1Row) share(x int64) float64 { return ratio(float64(x), float64(r.client)) }

// traceReport is what the traced run's spans say about each layer.
type traceReport struct {
	windowNS     int64
	rpcSelf      [numClientOps][]int64 // per client call
	driveSelf    [numClientOps][]int64 // per drive request
	qosWait      map[uint8][]int64     // per admitted request, by class
	table        map[string]*t1Row     // by client op, and tenant under qos
	total        t1Row
	devBusy      int64 // union of device spans
	devSum       int64 // sum of device span durations
	devCharged   int64 // sum of charged device span durations
	devReads     int64
	devWrites    int64
	devReadB     int64
	devWriteB    int64
	devFlushes   int64
	unattributed float64
}

// analyze charges device time to drive requests and splits each client
// call's latency into layers. A device span is charged to a drive span
// only when that drive span is the only one open for the device span's
// whole duration; everything else (overlapping requests, and background
// compaction, write-behind and checkpoints) stays unattributed.
func (t *tracer) analyze(qos bool) *traceReport {
	t.mu.Lock()
	defer t.mu.Unlock()
	rep := &traceReport{windowNS: t.offAt - t.onAt, qosWait: map[uint8][]int64{}, table: map[string]*t1Row{}}
	drives := t.spans[kindDrive]
	slices.SortFunc(drives, func(a, b span) int { return cmp.Compare(a.start, b.start) })
	starts := make([]int64, len(drives))
	ends := make([]int64, len(drives))
	argEnd := make([]int32, len(drives)) // index of the latest-ending span among drives[:i+1]
	for i, d := range drives {
		starts[i], ends[i] = d.start, d.end
		argEnd[i] = int32(i)
		if i > 0 && drives[argEnd[i-1]].end > d.end {
			argEnd[i] = argEnd[i-1]
		}
	}
	slices.Sort(ends)
	charged := make([]int64, len(drives))
	chargedIv := map[int32][]ival{}
	devIv := make([]ival, 0, len(t.spans[kindDevice]))
	for _, v := range t.spans[kindDevice] {
		devIv = append(devIv, ival{v.start, v.end})
		rep.devSum += v.dur()
		switch v.op {
		case devRead:
			rep.devReads++
			rep.devReadB += int64(v.bytes)
		case devWrite:
			rep.devWrites++
			rep.devWriteB += int64(v.bytes)
		case devFlush:
			rep.devFlushes++
		}
		nStart := sort.Search(len(starts), func(i int) bool { return starts[i] > v.end })
		nGone := sort.Search(len(ends), func(i int) bool { return ends[i] >= v.start })
		if nStart-nGone != 1 {
			continue
		}
		di := argEnd[nStart-1]
		if d := drives[di]; d.start <= v.start && d.end >= v.end {
			charged[di] += v.dur()
			chargedIv[di] = append(chargedIv[di], ival{v.start, v.end})
			rep.devCharged += v.dur()
		}
	}
	devU := union(devIv)
	rep.devBusy = length(devU)
	rep.unattributed = ratio(float64(rep.devSum-rep.devCharged), float64(rep.devSum))

	type group struct{ entries, drives []int32 }
	byTrace := map[uint64]*group{}
	get := func(id uint64) *group {
		g := byTrace[id]
		if g == nil {
			g = &group{}
			byTrace[id] = g
		}
		return g
	}
	for i, d := range drives {
		get(d.trace).drives = append(get(d.trace).drives, int32(i))
		if op, ok := driveOps[drive.Op(d.op)]; ok {
			rep.driveSelf[op] = append(rep.driveSelf[op], d.dur()-charged[i])
		}
	}
	entries := t.spans[kindEntry]
	for i, e := range entries {
		get(e.trace).entries = append(get(e.trace).entries, int32(i))
	}
	class := map[uint64]uint8{}
	for _, c := range t.spans[kindClient] {
		class[c.trace] = c.class
		g := byTrace[c.trace]
		if g == nil {
			g = &group{}
		}
		var eIv, dIv, aIv []ival
		for _, i := range g.entries {
			if e := entries[i]; e.end > c.start && e.start < c.end {
				eIv = append(eIv, ival{max(e.start, c.start), min(e.end, c.end)})
			}
		}
		for _, i := range g.drives {
			if d := drives[i]; d.end > c.start && d.start < c.end {
				dIv = append(dIv, ival{max(d.start, c.start), min(d.end, c.end)})
				aIv = append(aIv, chargedIv[i]...)
			}
		}
		eU, dU, aU := union(eIv), union(dIv), union(aIv)
		busy := overlap(dU, devU)
		row := t1Row{
			calls:  1,
			client: c.dur(),
			rpc:    c.dur() - length(eU),
			qos:    length(eU) - length(dU),
			drv:    length(dU) - busy,
			dev:    length(aU),
			gap:    busy - length(aU),
		}
		rep.rpcSelf[c.op] = append(rep.rpcSelf[c.op], row.rpc)
		key := clientOp(c.op).String()
		if qos {
			key += "/" + tenantNames[c.class]
		}
		if rep.table[key] == nil {
			rep.table[key] = &t1Row{}
		}
		rep.table[key].add(row)
		rep.total.add(row)
	}
	if qos {
		for _, e := range entries {
			g := byTrace[e.trace]
			if g == nil {
				continue
			}
			for _, i := range g.drives {
				if d := drives[i]; d.start >= e.start && d.end <= e.end {
					rep.qosWait[class[e.trace]] = append(rep.qosWait[class[e.trace]], e.dur()-d.dur())
					break
				}
			}
		}
	}
	for i := range rep.rpcSelf {
		slices.Sort(rep.rpcSelf[i])
		slices.Sort(rep.driveSelf[i])
	}
	for _, w := range rep.qosWait {
		slices.Sort(w)
	}
	return rep
}

// tableOK reports whether the layer shares sum to client latency to
// within the unattributed device share: the only client time the split
// cannot place is device time inside a request that was not charged to
// it.
func (rep *traceReport) tableOK() bool {
	return rep.total.share(rep.total.gap) <= rep.unattributed+0.005
}

// writeTable prints the Table-1-shaped split of client latency.
func (rep *traceReport) writeTable(w io.Writer, name string) {
	fmt.Fprintf(w, "Table 1 split of client latency (%s, traced run):\n", name)
	fmt.Fprintf(w, "  %-16s %8s %11s %7s %7s %7s %7s %7s\n", "op", "calls", "client_us", "rpc", "qos", "drive", "device", "unexpl")
	row := func(label string, r t1Row) {
		if r.calls == 0 {
			return
		}
		fmt.Fprintf(w, "  %-16s %8d %11.1f %6.1f%% %6.1f%% %6.1f%% %6.1f%% %6.1f%%\n", label, r.calls,
			us(r.client)/float64(r.calls), 100*r.share(r.rpc), 100*r.share(r.qos), 100*r.share(r.drv),
			100*r.share(r.dev), 100*r.share(r.gap))
	}
	keys := make([]string, 0, len(rep.table))
	for k := range rep.table {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		row(k, *rep.table[k])
	}
	row("all", rep.total)
	verdict := "ok"
	if !rep.tableOK() {
		verdict = "VIOLATED"
	}
	fmt.Fprintf(w, "  shares sum to client latency within the unattributed device share (%.1f%%): %s\n",
		100*rep.unattributed, verdict)
}
