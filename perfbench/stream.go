package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"nasd/internal/capability"
	"nasd/internal/client"
	"nasd/internal/object"
)

// The stream workload is Figure 6's bulk path: two closed-loop workers,
// each with its own connection and its own object, write 1 MiB requests
// with WritePipelined at rotating offsets over a 32 MiB working set (8x
// the 4 MiB block cache), then read the same offsets back with
// ReadPipelined, checking every byte, in rounds of a write phase and a
// read phase. Nothing throttles the device, so
// the numbers are the program's own cost.
const (
	streamWorkers = 2
	streamReq     = 1 << 20
	streamSlots   = 32 // 1 MiB slots per worker
	streamPart    = 1
	// streamRounds alternates write and read phases through the window,
	// so each phase samples the whole run and a burst of load from
	// elsewhere on the host moves one round's figures, not the median.
	streamRounds = 4
	// streamWriteShare is the part of each round spent writing; writes
	// run about ten times slower than reads, so they get the larger part
	// to collect as many samples.
	streamWriteShare = 0.75
)

type streamWorker struct {
	cli        *client.Drive
	wpos, rpos int // next slot to write and to read
	obj        uint64
	cap        *capability.Capability
	passes     [streamSlots]int  // how often each slot was written
	bad        [streamSlots]bool // a write to the slot failed: its content is unknown
	buf        []byte
}

// next returns the slot at *pos and advances it, rotating over the
// working set.
func (w *streamWorker) next(pos *int) int {
	slot := *pos
	*pos = (slot + 1) % streamSlots
	return slot
}

func (w *streamWorker) key(seed int64, id, slot int) uint64 {
	return mix(uint64(seed), 1, uint64(id), uint64(slot), uint64(w.passes[slot]))
}

type streamState struct {
	r       *rig
	workers []*streamWorker
}

func streamSetup(e *env) (*streamState, error) {
	r, err := newRig(rigConfig{blocks: 48 << 10}, e.seed, e.tr)
	if err != nil {
		return nil, err
	}
	st := &streamState{r: r}
	ctx := context.Background()
	admin, err := r.dial()
	if err != nil {
		return nil, err
	}
	if err := r.createPartition(ctx, admin, streamPart, object.BackendClassic); err != nil {
		return nil, err
	}
	create, err := r.mint(streamPart, 0, 0, capability.CreateObj)
	if err != nil {
		return nil, err
	}
	for i := 0; i < streamWorkers; i++ {
		cli, err := r.dial()
		if err != nil {
			return nil, err
		}
		obj, err := cli.Create(ctx, create, streamPart)
		if err != nil {
			return nil, fmt.Errorf("create: %w", err)
		}
		c, err := r.mint(streamPart, obj, 1, capability.Read|capability.Write)
		if err != nil {
			return nil, err
		}
		st.workers = append(st.workers, &streamWorker{cli: cli, obj: obj, cap: c, buf: make([]byte, streamReq)})
	}
	// Populate: every slot once. Warm-up: read it all back once.
	err = st.each(func(id int, w *streamWorker) error {
		for slot := 0; slot < streamSlots; slot++ {
			if err := st.write(ctx, e, id, w, slot); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := admin.Flush(ctx); err != nil {
		return nil, err
	}
	err = st.each(func(id int, w *streamWorker) error {
		for slot := 0; slot < streamSlots; slot++ {
			if ok, err := st.read(ctx, e, id, w, slot); err != nil || !ok {
				return fmt.Errorf("warm-up read of slot %d: ok=%v err=%v", slot, ok, err)
			}
		}
		return nil
	})
	return st, err
}

// each runs f for every worker concurrently and returns the first error.
func (st *streamState) each(f func(id int, w *streamWorker) error) error {
	errs := make([]error, len(st.workers))
	var wg sync.WaitGroup
	for i, w := range st.workers {
		wg.Add(1)
		go func(i int, w *streamWorker) {
			defer wg.Done()
			errs[i] = f(i, w)
		}(i, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (st *streamState) write(ctx context.Context, e *env, id int, w *streamWorker, slot int) error {
	w.passes[slot]++
	e.pat.fill(w.buf, w.key(e.seed, id, slot))
	err := e.tr.call(ctx, opWrite, 0, func(ctx context.Context) error {
		return w.cli.WritePipelined(ctx, w.cap, streamPart, w.obj, uint64(slot)*streamReq, w.buf)
	})
	if err != nil {
		w.bad[slot] = true
	}
	return err
}

// read reads slot back and reports whether it holds the bytes last
// written there.
func (st *streamState) read(ctx context.Context, e *env, id int, w *streamWorker, slot int) (bool, error) {
	var got []byte
	err := e.tr.call(ctx, opRead, 0, func(ctx context.Context) error {
		var err error
		got, err = w.cli.ReadPipelined(ctx, w.cap, streamPart, w.obj, uint64(slot)*streamReq, streamReq)
		return err
	})
	if err != nil {
		return false, err
	}
	return w.bad[slot] || e.pat.check(got, w.key(e.seed, id, slot), streamReq), nil
}

func runStream(e *env) (*outcome, error) {
	st, setupS, err := setupRepeated(e, func() (*streamState, error) { return streamSetup(e) },
		func(st *streamState) { st.r.stop() })
	if err != nil {
		return nil, err
	}
	defer st.r.stop()
	o := &outcome{setupS: setupS}
	ctx := context.Background()
	var wlat, rlat latencies
	var mu sync.Mutex
	countOp := func(err error, ok bool) {
		mu.Lock()
		o.attempted++
		if err != nil || !ok {
			o.failed++
			if o.failed <= 5 {
				fmt.Fprintf(e.out, "  FAIL: ok=%v err=%v\n", ok, err)
			}
		}
		mu.Unlock()
	}

	w := openWindow(st.r.reg, st.r.cliReg)
	e.tr.start()
	round := time.Duration(e.seconds * float64(time.Second) / streamRounds)
	writeDur := time.Duration(float64(round) * streamWriteShare)
	var writeS, readS float64
	var roundP50, roundRate []float64
	for r := 0; r < streamRounds; r++ {
		var rr latencies
		t0 := time.Now()
		stop := t0.Add(writeDur)
		n0 := len(wlat.ns)
		_ = st.each(func(id int, wk *streamWorker) error {
			for time.Now().Before(stop) {
				start := time.Now()
				err := st.write(ctx, e, id, wk, wk.next(&wk.wpos))
				wlat.add(time.Since(start))
				countOp(err, true)
			}
			return nil
		})
		if err := st.workers[0].cli.Flush(ctx); err != nil {
			countOp(err, false)
		}
		ws := time.Since(t0).Seconds()
		writeS += ws
		roundRate = append(roundRate, float64(len(wlat.ns)-n0)/ws)

		t1 := time.Now()
		stop = t1.Add(round - writeDur)
		_ = st.each(func(id int, wk *streamWorker) error {
			for time.Now().Before(stop) {
				start := time.Now()
				ok, err := st.read(ctx, e, id, wk, wk.next(&wk.rpos))
				rlat.add(time.Since(start))
				rr.add(time.Since(start))
				countOp(err, ok)
			}
			return nil
		})
		readS += time.Since(t1).Seconds()
		roundP50 = append(roundP50, ms(quantile(rr.sorted(), 0.50)))
	}
	e.tr.stop()
	w.close()

	// Reopen the media as a restarted daemon and check every slot.
	if err := st.r.reopen(nil); err != nil {
		return nil, err
	}
	for i, wk := range st.workers {
		cli, err := st.r.dial()
		if err != nil {
			return nil, err
		}
		wk.cli = cli
		for slot := 0; slot < streamSlots; slot++ {
			ok, err := st.read(ctx, e, i, wk, slot)
			countOp(err, ok)
		}
	}

	ws, rs := wlat.sorted(), rlat.sorted()
	nw, nr := len(ws), len(rs)
	o.readP50 = median(roundP50)
	o.opsPerS = median(roundRate)
	o.heapPeakMB = float64(w.heapPeakByte) / 1e6
	mbps := func(n int, s float64) float64 { return float64(n) * streamReq / 1e6 / s }
	o.report = []named{
		{"write_MBps", "MB/s", mbps(nw, writeS), nw},
		{"read_MBps", "MB/s", mbps(nr, readS), nr},
		{"write_p50_ms", "ms", ms(quantile(ws, 0.50)), nw},
		{"write_p99_ms", "ms", ms(quantile(ws, 0.99)), nw},
		{"read_p50_ms", "ms", o.readP50, nr},
		{"read_p99_ms", "ms", ms(quantile(rs, 0.99)), nr},
	}
	o.demoted = map[string]float64{
		"e2e.read_p99_ms":  p99ms(rs),
		"e2e.write_p99_ms": p99ms(ws),
		"e2e.read_MBps":    mbps(nr, readS),
	}
	if !tailOK(nw, 0.99) || !tailOK(nr, 0.99) {
		fmt.Fprintf(e.out, "  WARNING: fewer than %d samples beyond a p99 (writes %d, reads %d): lengthen --seconds\n", minTailSamples, nw, nr)
	}
	if e.tr != nil {
		o.table = e.tr.analyze(false)
		o.layers = layerMetrics(w, o.table, usage{ops: int64(nw + nr), userWriteB: int64(nw) * streamReq})
	}
	return o, nil
}
