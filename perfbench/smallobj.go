package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"time"

	"nasd/internal/capability"
	"nasd/internal/client"
	"nasd/internal/crypt"
	"nasd/internal/object"
	"nasd/internal/rpc"
)

// The smallobj workload is the Haystack photo-store regime on a needle
// partition: 4096 objects of 4 KiB (16 MiB, 4x the block cache) served
// to open-loop Poisson arrivals on two connections at a fixed ladder of
// rates. 90% of arrivals GET a Zipf(1.1)-chosen object (GetAttr plus
// Read, newest objects hottest), 5% PUT a new object (Create plus a
// 4 KiB Write) and 5% DELETE the oldest live object, which keeps the
// needle compactor cycling inside the timed window. Fixed per-request
// costs dominate: rpc messages, capability checks and the needle index.
// Needle reads do not go through the block cache, so every GET reads the
// media however hot its object is.
const (
	smallPart    = 1
	smallObjects = 4096
	smallSize    = 4096
	smallConns   = 2
	// smallMaxOutstanding bounds the requests in flight; beyond it the
	// generator falls behind, which shows as lag. It stays well under
	// the drive's nonce window (256 reordered requests per client), past
	// which a connection's requests are rejected as replays.
	smallMaxOutstanding = 64
	// smallLimit is the GET p99 a ladder rate must meet to count
	// towards max_rate_ops: about 4x the single-client p99.
	smallLimit = time.Millisecond
)

// smallLadder is the fixed ladder of arrival rates (ops/s). The first
// is the reference rate, well below the knee, where latencies are
// reported. The run visits it before each of the other rates, in
// order, so its samples span the whole window; its visits share
// smallRefShare of the window and the other rates split the rest. The
// top rate stays where a stall of a few tens of milliseconds cannot
// reorder a connection's requests past the drive's nonce window; two
// vCPUs saturate near 11000 ops/s.
var smallLadder = []float64{2000, 3000, 4000, 5000, 6000}

const smallRefShare = 0.45

// Operation mix, in percent; the rest are DELETEs. PUTs and DELETEs
// balance, so the population stays near its initial size while the
// deletes keep the needle compactor cycling.
const (
	pctGet = 90
	pctPut = 5
)

type sobjState uint8

const (
	sPending sobjState = iota // PUT not yet acknowledged
	sLive
	sDeleting
	sDeleted
)

type sobj struct {
	idx     int // payload index
	id      uint64
	cap     *capability.Capability
	state   sobjState
	readers int // GETs in flight
}

type smallState struct {
	r    *rig
	clis [smallConns]*client.Drive
	// create is the partition-scope capability PUTs create under.
	create *capability.Capability

	mu   sync.Mutex
	objs []*sobj // every object ever created, in creation order
	live []*sobj // live objects, oldest first
}

func (s *smallState) key(seed int64, idx int) uint64 { return mix(uint64(seed), 2, uint64(idx)) }

// arrivalOp is one scheduled operation of the mix.
type arrivalOp struct {
	kind byte // 'g', 'p', 'd'
	rank uint64
}

func smallSetup(e *env) (*smallState, error) {
	r, err := newRig(rigConfig{blocks: 64 << 10}, e.seed, e.tr)
	if err != nil {
		return nil, err
	}
	s := &smallState{r: r}
	ctx := context.Background()
	for i := range s.clis {
		if s.clis[i], err = r.dial(); err != nil {
			return nil, err
		}
	}
	if err := r.createPartition(ctx, s.clis[0], smallPart, object.BackendNeedle); err != nil {
		return nil, err
	}
	if s.create, err = r.mint(smallPart, 0, 0, capability.CreateObj); err != nil {
		return nil, err
	}
	// Populate from both connections.
	var wg sync.WaitGroup
	errs := make([]error, smallConns)
	for c := 0; c < smallConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < smallObjects && errs[c] == nil; i += smallConns {
				errs[c] = s.put(ctx, e, c)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("populate: %w", err)
		}
	}
	if err := s.clis[0].Flush(ctx); err != nil {
		return nil, err
	}
	// Warm-up: one second of the mix at the reference rate.
	res := s.ladderStep(e, rand.New(rand.NewPCG(uint64(e.seed), 99)), smallLadder[0], time.Second)
	for _, a := range res.arrivals {
		if a.err != nil {
			return nil, fmt.Errorf("warm-up: %w", a.err)
		}
	}
	return s, nil
}

// put creates one object and writes its payload; it becomes live (and
// GETs can choose it) once the write is acknowledged.
func (s *smallState) put(ctx context.Context, e *env, c int) error {
	s.mu.Lock()
	o := &sobj{idx: len(s.objs)}
	s.objs = append(s.objs, o)
	s.mu.Unlock()
	err := e.tr.call(ctx, opCreate, 0, func(ctx context.Context) error {
		var err error
		o.id, err = s.clis[c].Create(ctx, s.create, smallPart)
		return err
	})
	if err != nil {
		return fmt.Errorf("create: %w", err)
	}
	if o.cap, err = s.r.mint(smallPart, o.id, 1, capability.Read|capability.Write|capability.GetAttr|capability.Remove); err != nil {
		return err
	}
	buf := make([]byte, smallSize)
	e.pat.fill(buf, s.key(e.seed, o.idx))
	err = e.tr.call(ctx, opWrite, 0, func(ctx context.Context) error {
		return s.clis[c].Write(ctx, o.cap, smallPart, o.id, 0, buf)
	})
	if err != nil {
		return fmt.Errorf("write: %w", err)
	}
	s.mu.Lock()
	o.state = sLive
	s.live = append(s.live, o)
	s.mu.Unlock()
	return nil
}

var errMismatch = errors.New("read returned wrong bytes")

// get reads the object of Zipf rank rank (0 = newest live object) and
// checks its size and bytes.
func (s *smallState) get(ctx context.Context, e *env, c int, rank uint64) error {
	s.mu.Lock()
	if len(s.live) == 0 {
		s.mu.Unlock()
		return errors.New("no live objects")
	}
	o := s.live[len(s.live)-1-int(rank%uint64(len(s.live)))]
	o.readers++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		o.readers--
		s.mu.Unlock()
	}()
	return s.check(ctx, e, c, o)
}

func (s *smallState) check(ctx context.Context, e *env, c int, o *sobj) error {
	var size uint64
	err := e.tr.call(ctx, opGetAttr, 0, func(ctx context.Context) error {
		a, err := s.clis[c].GetAttr(ctx, o.cap, smallPart, o.id)
		size = a.Size
		return err
	})
	if err != nil {
		return fmt.Errorf("getattr %d: %w", o.id, err)
	}
	var got []byte
	err = e.tr.call(ctx, opRead, 0, func(ctx context.Context) error {
		var err error
		got, err = s.clis[c].Read(ctx, o.cap, smallPart, o.id, 0, smallSize)
		return err
	})
	if err != nil {
		return fmt.Errorf("read %d: %w", o.id, err)
	}
	if size != smallSize || !e.pat.check(got, s.key(e.seed, o.idx), smallSize) {
		return fmt.Errorf("object %d: size %d: %w", o.id, size, errMismatch)
	}
	return nil
}

// del removes the oldest live object no GET is reading.
func (s *smallState) del(ctx context.Context, e *env, c int) error {
	s.mu.Lock()
	var o *sobj
	for i, cand := range s.live {
		if cand.readers == 0 {
			o = cand
			s.live = append(s.live[:i:i], s.live[i+1:]...)
			break
		}
	}
	if o == nil {
		s.mu.Unlock()
		return errors.New("no idle live object to delete")
	}
	o.state = sDeleting
	s.mu.Unlock()
	err := e.tr.call(ctx, opRemove, 0, func(ctx context.Context) error {
		return s.clis[c].Remove(ctx, o.cap, smallPart, o.id)
	})
	if err != nil {
		return fmt.Errorf("remove %d: %w", o.id, err)
	}
	s.mu.Lock()
	o.state = sDeleted
	s.mu.Unlock()
	return nil
}

// stepResult is one ladder rate's arrivals, with each one's kind.
type stepResult struct {
	rate     float64
	ops      []arrivalOp
	arrivals []arrival
}

// ladderStep runs the mix open-loop at rate for dur.
func (s *smallState) ladderStep(e *env, rng *rand.Rand, rate float64, dur time.Duration) stepResult {
	sched := poissonSchedule(rng, rate, dur)
	zipf := rand.NewZipf(rng, 1.1, 1, smallObjects-1)
	ops := make([]arrivalOp, len(sched))
	for i := range ops {
		switch p := rng.IntN(100); {
		case p < pctGet:
			ops[i] = arrivalOp{kind: 'g', rank: zipf.Uint64()}
		case p < pctGet+pctPut:
			ops[i] = arrivalOp{kind: 'p'}
		default:
			ops[i] = arrivalOp{kind: 'd'}
		}
	}
	ctx := context.Background()
	arr := runOpenLoop(time.Now(), sched, smallMaxOutstanding, func(i int) error {
		c := i % smallConns
		switch ops[i].kind {
		case 'g':
			return s.get(ctx, e, c, ops[i].rank)
		case 'p':
			return s.put(ctx, e, c)
		default:
			return s.del(ctx, e, c)
		}
	})
	return stepResult{rate: rate, ops: ops, arrivals: arr}
}

// throughput is the step's completions per second, from the step's
// start to its last completion.
func (st stepResult) throughput() float64 {
	var last time.Duration
	for _, a := range st.arrivals {
		last = max(last, a.done)
	}
	return float64(len(st.arrivals)) / last.Seconds()
}

// latencyOf returns the sorted latencies of the step's arrivals of kind.
func (st stepResult) latencyOf(kind byte) []int64 {
	var l latencies
	for i, a := range st.arrivals {
		if st.ops[i].kind == kind && a.err == nil {
			l.add(a.latency())
		}
	}
	return l.sorted()
}

// latencyOf pools the latencies of kind over every step at rate.
func latencyOf(steps []stepResult, rate float64, kind byte) []int64 {
	var out []int64
	for _, st := range steps {
		if st.rate == rate {
			out = append(out, st.latencyOf(kind)...)
		}
	}
	slices.Sort(out)
	return out
}

// backlogGrew reports whether completions fell behind arrivals.
func (st stepResult) backlogGrew() bool { return st.throughput() < 0.98*st.rate }

func runSmallObj(e *env) (*outcome, error) {
	s, setupS, err := setupRepeated(e, func() (*smallState, error) { return smallSetup(e) },
		func(s *smallState) { s.r.stop() })
	if err != nil {
		return nil, err
	}
	defer s.r.stop()
	o := &outcome{setupS: setupS}
	fail := func(err error) {
		o.failed++
		if o.failed <= 5 {
			fmt.Fprintf(e.out, "  FAIL: %v\n", err)
		}
	}
	rng := rand.New(rand.NewPCG(uint64(e.seed), 7))
	w := openWindow(s.r.reg, s.r.cliReg)
	e.tr.start()
	total := time.Duration(e.seconds * float64(time.Second))
	visits := len(smallLadder) - 1
	var steps []stepResult
	for _, rate := range smallLadder[1:] {
		steps = append(steps,
			s.ladderStep(e, rng, smallLadder[0], time.Duration(float64(total)*smallRefShare/float64(visits))),
			s.ladderStep(e, rng, rate, time.Duration(float64(total)*(1-smallRefShare)/float64(visits))))
	}
	e.tr.stop()
	w.close()
	var all []arrival
	for _, st := range steps {
		all = append(all, st.arrivals...)
	}
	for _, a := range all {
		if a.err != nil {
			fail(a.err)
		}
	}
	ops := int64(len(all))
	o.attempted = ops
	ctx := context.Background()
	if err := s.clis[0].Flush(ctx); err != nil {
		fail(err)
	}
	part, err := s.clis[0].GetPartition(ctx, crypt.KeyID{Type: crypt.MasterKey}, s.r.master, smallPart)
	if err != nil {
		return nil, err
	}

	// Reopen the media as a restarted daemon: every acknowledged live
	// object must read back, and every deleted one must be gone.
	if err := s.r.reopen(nil); err != nil {
		return nil, err
	}
	for i := range s.clis {
		if s.clis[i], err = s.r.dial(); err != nil {
			return nil, err
		}
	}
	var live, deleted int
	for i, ob := range s.objs {
		switch ob.state {
		case sLive:
			live++
			o.attempted++
			if err := s.check(ctx, e, i%smallConns, ob); err != nil {
				fail(fmt.Errorf("after reopen: %w", err))
			}
		case sDeleted:
			deleted++
			o.attempted++
			_, err := s.clis[i%smallConns].GetAttr(ctx, ob.cap, smallPart, ob.id)
			var re *client.RemoteError
			if !errors.As(err, &re) || re.Status != rpc.StatusNoObject {
				fail(fmt.Errorf("deleted object %d after reopen: %v", ob.id, err))
			}
		}
	}

	var refP50 []float64
	for _, st := range steps {
		if st.rate == smallLadder[0] {
			refP50 = append(refP50, ms(quantile(st.latencyOf('g'), 0.50)))
		}
	}
	gets, puts := latencyOf(steps, smallLadder[0], 'g'), latencyOf(steps, smallLadder[0], 'p')
	o.readP50 = median(refP50)
	maxRate, ladder := smallMaxRate(steps)
	spaceAmp := ratio(float64(part.UsedBlocks)*blockBytes, float64(live*smallSize))
	o.opsPerS = steps[len(steps)-1].throughput()
	lag := us(lagP99(all))
	o.heapPeakMB = float64(w.heapPeakByte) / 1e6
	o.report = append([]named{
		{"get_p50_us", "us", 1000 * o.readP50, len(gets)},
		{"get_p99_us", "us", us(quantile(gets, 0.99)), len(gets)},
		{"put_p99_us", "us", us(quantile(puts, 0.99)), len(puts)},
		{"max_rate_ops", "ops/s", maxRate, 0},
		{"top_rate_done_ops", "ops/s", o.opsPerS, 0},
		{"space_amp", "ratio", spaceAmp, 0},
		{"gen.lag_p99_us", "us", lag, len(all)},
		{"live_objects", "count", float64(live), 0},
		{"deleted_objects", "count", float64(deleted), 0},
	}, ladder...)
	o.demoted = map[string]float64{
		"e2e.read_p99_ms":  p99ms(gets),
		"e2e.write_p99_ms": p99ms(puts),
		"e2e.space_amp":    spaceAmp,
		"e2e.max_rate_ops": maxRate,
	}
	if !tailOK(len(gets), 0.99) || !tailOK(len(puts), 0.99) {
		fmt.Fprintf(e.out, "  WARNING: fewer than %d samples beyond a p99 (gets %d, puts %d): lengthen --seconds\n", minTailSamples, len(gets), len(puts))
	}
	if e.tr != nil {
		var writeB int64
		for _, st := range steps {
			for i, a := range st.arrivals {
				if st.ops[i].kind == 'p' && a.err == nil {
					writeB += smallSize
				}
			}
		}
		o.table = e.tr.analyze(false)
		o.layers = layerMetrics(w, o.table, usage{ops: ops, userWriteB: writeB, lagP99us: lag})
	}
	return o, nil
}

// smallMaxRate returns max_rate_ops, the highest ladder rate whose GET
// p99 meets smallLimit without a growing backlog (0 when none does),
// and the per-rate report lines.
func smallMaxRate(steps []stepResult) (float64, []named) {
	var lines []named
	best := 0.0
	for _, rate := range smallLadder {
		gets := latencyOf(steps, rate, 'g')
		p99 := quantile(gets, 0.99)
		ok := p99 <= int64(smallLimit)
		var arr []arrival
		for _, st := range steps {
			if st.rate == rate {
				ok = ok && !st.backlogGrew()
				arr = append(arr, st.arrivals...)
			}
		}
		if ok {
			best = rate
		}
		lines = append(lines,
			named{fmt.Sprintf("ladder_%.0f.get_p50_us", rate), "us", us(quantile(gets, 0.5)), len(gets)},
			named{fmt.Sprintf("ladder_%.0f.get_p99_us", rate), "us", us(p99), len(gets)},
			named{fmt.Sprintf("ladder_%.0f.lag_p99_us", rate), "us", us(lagP99(arr)), len(arr)})
	}
	return best, lines
}
