package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"nasd/internal/capability"
	"nasd/internal/client"
	"nasd/internal/object"
)

// The tenants workload is the one that goes through the qos plane, the
// rpc pending cap and the client's retry-after path. The drive is
// composed as `nasdd -qos -qos-weights 1=4,2=1 -rpc-queue 16` composes
// it, with two partitions, over a blockdev.Throttle spindle so the
// media is the contended resource. A victim tenant (partition 1) runs
// one closed-loop worker of 4 KiB reads on its own connection, first
// alone and then while an aggressor tenant (partition 2) sends 64 KiB
// reads open-loop on a second connection at twice the spindle's
// capacity. The spindle's service times (a 64 KiB read holds it about
// 1 ms) make contended waits span several of the 1 ms sleep quanta its
// pacer can resolve.
const (
	victimObjBytes = 16 << 20 // 4x the block cache
	aggObjBytes    = 32 << 20
	victimReq      = 4 << 10
	aggReq         = 64 << 10
	spindleBps     = 96e6
	spindlePerOp   = 100 * time.Microsecond
	// aggRate is the aggressor's offered load, twice the spindle's
	// capacity for its reads (about 470 per second).
	aggRate = 940
	// soloShare is the part of the window the victim runs alone.
	soloShare = 0.3
	// aggMaxOutstanding covers the aggressor's requests waiting out
	// retry-after hints, so the generator keeps to its schedule, and
	// stays under the drive's nonce window (256 reordered requests per
	// client).
	aggMaxOutstanding = 200
)

type tenantsState struct {
	r         *rig
	victim    *client.Drive
	aggressor *client.Drive
	objs      map[uint8]uint64
	caps      map[uint8]*capability.Capability
}

// objKey names the payload of 1 MiB slot slot of tenant c's object.
func objKey(seed int64, c uint8, slot int) uint64 {
	return mix(uint64(seed), 3, uint64(c), uint64(slot))
}

func tenantsSetup(e *env) (*tenantsState, error) {
	// Populate with the media unthrottled, then restart the drive on
	// the spindle: populating through the spindle model would take
	// seconds of modelled media time that measure nothing.
	r, err := newRig(rigConfig{
		blocks:   32 << 10,
		qos:      true,
		weights:  map[string]int64{capability.TenantKey(1): 4, capability.TenantKey(2): 1},
		rpcQueue: 16,
	}, e.seed, nil)
	if err != nil {
		return nil, err
	}
	s := &tenantsState{r: r, objs: map[uint8]uint64{}, caps: map[uint8]*capability.Capability{}}
	if s.victim, err = r.dial(); err != nil {
		return nil, err
	}
	ctx := context.Background()
	buf := make([]byte, 1<<20)
	for c, size := range map[uint8]int{classVictim: victimObjBytes, classAggressor: aggObjBytes} {
		part := tenantPart[c]
		if err := r.createPartition(ctx, s.victim, part, object.BackendClassic); err != nil {
			return nil, err
		}
		create, err := r.mint(part, 0, 0, capability.CreateObj)
		if err != nil {
			return nil, err
		}
		if s.objs[c], err = s.victim.Create(ctx, create, part); err != nil {
			return nil, err
		}
		if s.caps[c], err = r.mint(part, s.objs[c], 1, capability.Read|capability.Write); err != nil {
			return nil, err
		}
		for slot := 0; slot < size>>20; slot++ {
			e.pat.fill(buf, objKey(e.seed, c, slot))
			if err := s.victim.WritePipelined(ctx, s.caps[c], part, s.objs[c], uint64(slot)<<20, buf); err != nil {
				return nil, fmt.Errorf("populate: %w", err)
			}
		}
	}
	if err := s.victim.Flush(ctx); err != nil {
		return nil, err
	}
	r.cfg.spindle = &spindle{bytesPerSec: spindleBps, perOp: spindlePerOp}
	if err := r.reopen(e.tr); err != nil {
		return nil, err
	}
	retry := client.WithRetry(client.RetryPolicy{})
	if s.victim, err = r.dial(retry); err != nil {
		return nil, err
	}
	if s.aggressor, err = r.dial(retry); err != nil {
		return nil, err
	}
	// Warm-up: a short stretch of each tenant's reads.
	rng := rand.New(rand.NewPCG(uint64(e.seed), 98))
	for i := 0; i < 200; i++ {
		if err := s.read(ctx, e, classVictim, offset(rng, classVictim)); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if err := s.read(ctx, e, classAggressor, offset(rng, classAggressor)); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, nil
}

// offset picks tenant c's next read offset, aligned to its request size.
func offset(rng *rand.Rand, c uint8) int {
	if c == classAggressor {
		return rng.IntN(aggObjBytes/aggReq) * aggReq
	}
	return rng.IntN(victimObjBytes/victimReq) * victimReq
}

// read reads one request of tenant c at off and checks the bytes.
func (s *tenantsState) read(ctx context.Context, e *env, c uint8, off int) error {
	cli, size := s.victim, victimReq
	if c == classAggressor {
		cli, size = s.aggressor, aggReq
	}
	var got []byte
	err := e.tr.call(ctx, opRead, c, func(ctx context.Context) error {
		var err error
		got, err = cli.Read(ctx, s.caps[c], tenantPart[c], s.objs[c], uint64(off), size)
		return err
	})
	if err != nil {
		return err
	}
	if !e.pat.checkAt(got, objKey(e.seed, c, off>>20), off&(1<<20-1)) || len(got) != size {
		return fmt.Errorf("%s read at %d: %w", tenantNames[c], off, errMismatch)
	}
	return nil
}

// victimLoop runs the victim's closed loop until stop and returns its
// latencies.
func (s *tenantsState) victimLoop(e *env, rng *rand.Rand, stop time.Time, fail func(error)) (*latencies, int64) {
	var lat latencies
	var n int64
	ctx := context.Background()
	for time.Now().Before(stop) {
		start := time.Now()
		err := s.read(ctx, e, classVictim, offset(rng, classVictim))
		n++
		if err != nil {
			fail(fmt.Errorf("victim: %w", err))
			continue
		}
		lat.add(time.Since(start))
	}
	return &lat, n
}

func runTenants(e *env) (*outcome, error) {
	s, setupS, err := setupRepeated(e, func() (*tenantsState, error) { return tenantsSetup(e) },
		func(s *tenantsState) { s.r.stop() })
	if err != nil {
		return nil, err
	}
	defer s.r.stop()
	o := &outcome{setupS: setupS}
	var mu sync.Mutex
	fail := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		o.failed++
		if o.failed <= 5 {
			fmt.Fprintf(e.out, "  FAIL: %v\n", err)
		}
	}
	vrng := rand.New(rand.NewPCG(uint64(e.seed), 11))
	total := time.Duration(e.seconds * float64(time.Second))
	soloDur := time.Duration(float64(total) * soloShare)

	w := openWindow(s.r.reg, s.r.cliReg)
	e.tr.start()
	solo, nSolo := s.victimLoop(e, vrng, time.Now().Add(soloDur), fail)

	contDur := total - soloDur
	arng := rand.New(rand.NewPCG(uint64(e.seed), 12))
	sched := poissonSchedule(arng, aggRate, contDur)
	offs := make([]int, len(sched))
	for i := range offs {
		offs[i] = offset(arng, classAggressor)
	}
	var cont *latencies
	var nCont int64
	start := time.Now()
	var vwg sync.WaitGroup
	vwg.Add(1)
	go func() {
		defer vwg.Done()
		cont, nCont = s.victimLoop(e, vrng, start.Add(contDur), fail)
	}()
	arr := runOpenLoop(start, sched, aggMaxOutstanding, func(i int) error {
		return s.read(context.Background(), e, classAggressor, offs[i])
	})
	vwg.Wait()
	contS := time.Since(start).Seconds()
	e.tr.stop()
	w.close()

	var aggOK, refused int64
	for _, a := range arr {
		switch {
		case a.err == nil:
			aggOK++
		case errors.Is(a.err, client.ErrOverloaded):
			refused++
		default:
			fail(fmt.Errorf("aggressor: %w", a.err))
		}
	}
	o.attempted = nSolo + nCont + int64(len(arr))

	// Reopen the media as a restarted daemon and check both objects.
	if err := s.r.reopen(nil); err != nil {
		return nil, err
	}
	if s.victim, err = s.r.dial(); err != nil {
		return nil, err
	}
	ctx := context.Background()
	for c, size := range map[uint8]int{classVictim: victimObjBytes, classAggressor: aggObjBytes} {
		for slot := 0; slot < size>>20; slot++ {
			o.attempted++
			got, err := s.victim.ReadPipelined(ctx, s.caps[c], tenantPart[c], s.objs[c], uint64(slot)<<20, 1<<20)
			if err != nil || !e.pat.check(got, objKey(e.seed, c, slot), 1<<20) {
				fail(fmt.Errorf("after reopen: %s slot %d: err=%v", tenantNames[c], slot, err))
			}
		}
	}

	ss, cs := solo.sorted(), cont.sorted()
	lag := us(lagP99(arr))
	o.readP50 = ms(quantile(cs, 0.50))
	victimRatio := ratio(float64(quantile(cs, 0.99)), float64(quantile(ss, 0.99)))
	o.opsPerS = float64(aggOK) / contS
	o.heapPeakMB = float64(w.heapPeakByte) / 1e6
	o.report = []named{
		{"victim_solo_p99_ms", "ms", ms(quantile(ss, 0.99)), len(ss)},
		{"victim_p50_ms", "ms", o.readP50, len(cs)},
		{"victim_p99_ms", "ms", ms(quantile(cs, 0.99)), len(cs)},
		{"victim_p99_ratio", "x", victimRatio, 0},
		{"aggressor_ops", "ops/s", o.opsPerS, 0},
		{"aggressor_offered", "ops/s", float64(len(arr)) / contS, 0},
		{"aggressor_refused", "count", float64(refused), 0},
		{"gen.lag_p99_us", "us", lag, len(arr)},
	}
	o.demoted = map[string]float64{
		"e2e.read_p99_ms":      p99ms(cs),
		"e2e.victim_p99_ratio": victimRatio,
	}
	if !tailOK(len(ss), 0.99) || !tailOK(len(cs), 0.99) {
		fmt.Fprintf(e.out, "  WARNING: fewer than %d samples beyond a p99 (solo %d, contended %d): lengthen --seconds\n", minTailSamples, len(ss), len(cs))
	}
	if e.tr != nil {
		o.table = e.tr.analyze(true)
		o.layers = layerMetrics(w, o.table, usage{ops: int64(len(ss)+len(cs)) + aggOK, lagP99us: lag})
	}
	return o, nil
}
