package cheops

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"nasd/internal/capability"
	"nasd/internal/client"
	"nasd/internal/telemetry"
)

// maxBackpressureWaits bounds how many hinted waits one leg absorbs
// before the overload is surfaced to the caller. Each wait is the
// drive's own retry-after estimate, so a handful of rounds rides out a
// burst; a drive still shedding after that is saturated, and the
// caller's deadline — not more pacing — should decide what happens.
const maxBackpressureWaits = 8

// pacedLeg runs one fan-out leg with backpressure pacing: when the
// drive sheds the request (client.ErrOverloaded, i.e. StatusRetryLater
// — demonstrably never executed), the leg waits the drive's
// retry-after hint and reissues, slowing this stripe lane instead of
// erroring it. Any other outcome returns immediately. The wait is
// scoped to the caller's ctx, so deadlines cut pacing short.
func (o *Object) pacedLeg(ctx context.Context, attempt func() error) error {
	for waits := 0; ; waits++ {
		err := attempt()
		if err == nil || !errors.Is(err, client.ErrOverloaded) ||
			waits >= maxBackpressureWaits || ctx.Err() != nil {
			return err
		}
		wait := 5 * time.Millisecond
		var re *client.RemoteError
		if errors.As(err, &re) && re.RetryAfter > 0 {
			wait = re.RetryAfter
		}
		o.mgr.tel.backpressureWaits.Inc()
		t := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			t.Stop()
			return err
		case <-t.C:
		}
	}
}

// Object is a client-side handle on an open Cheops logical object: the
// descriptor plus the component capability set. All data movement
// happens here, on the client, drive-direct. The handle is
// self-healing in two ways: expired capabilities are renewed from the
// manager transparently, and legs that fail (or are refused by a
// drive's breaker) fall over to the layout's redundancy mid-operation.
type Object struct {
	mgr    *Manager
	drives []*client.Drive // indexed like the manager's drive table
	desc   Descriptor
	rights capability.Rights
	capMu  sync.RWMutex
	caps   []capability.Capability
}

// OpenObject opens a logical object for I/O. drives must be the
// caller's own connections, indexed like the manager's drive table.
func OpenObject(mgr *Manager, drives []*client.Drive, logical uint64, rights capability.Rights) (*Object, error) {
	desc, caps, err := mgr.Open(logical, rights)
	if err != nil {
		return nil, err
	}
	return &Object{mgr: mgr, drives: drives, desc: desc, rights: rights, caps: caps}, nil
}

// cap returns a copy of component i's capability.
func (o *Object) cap(i int) capability.Capability {
	o.capMu.RLock()
	defer o.capMu.RUnlock()
	return o.caps[i]
}

// renewCaps trades the manager a fresh capability set for this object.
// If the layout changed since the handle opened (a repair moved a
// component), the new capabilities would name objects this handle does
// not address, so the caller gets ErrStaleLayout and must re-open.
func (o *Object) renewCaps() error {
	desc, caps, err := o.mgr.Open(o.desc.Logical, o.rights)
	if err != nil {
		return err
	}
	for i, c := range desc.Components {
		if o.desc.Components[i] != c {
			return ErrStaleLayout
		}
	}
	o.capMu.Lock()
	o.caps = caps
	o.capMu.Unlock()
	o.mgr.tel.capRenewals.Inc()
	return nil
}

// withCap runs fn under component i's capability, renewing the set
// once when the drive reports expiry (capabilities are minted with a
// bounded lifetime; a long-lived handle outlives them by design).
func (o *Object) withCap(i int, fn func(cp *capability.Capability) error) error {
	cp := o.cap(i)
	err := fn(&cp)
	if err != nil && errors.Is(err, client.ErrCapabilityExpired) {
		if rerr := o.renewCaps(); rerr != nil {
			return rerr
		}
		cp = o.cap(i)
		err = fn(&cp)
	}
	return err
}

// readDirect reads one component byte range on its own drive.
func (o *Object) readDirect(ctx context.Context, comp int, off uint64, n int) ([]byte, error) {
	c := o.desc.Components[comp]
	var data []byte
	err := o.withCap(comp, func(cp *capability.Capability) error {
		var e error
		data, e = o.drives[c.Drive].ReadPipelined(ctx, cp, o.mgr.part, c.Object, off, n)
		return e
	})
	return data, err
}

// writeLeg writes one component range, honoring the lane's health
// state: a lane awaiting repair (or a stale handle's repaired lane) is
// refused locally, a drive with an open breaker is refused without
// traffic, and the outcome of a real attempt feeds the breaker.
func (o *Object) writeLeg(ctx context.Context, comp int, off uint64, data []byte) error {
	c := o.desc.Components[comp]
	if o.mgr.laneUnserviceable(o.desc.Logical, comp, c.Object) {
		return errPendingRepair
	}
	if !o.mgr.allowDrive(c.Drive) {
		return errBreakerOpen
	}
	// Each paced attempt gets a fresh per-leg timeout: the hinted waits
	// between attempts run on the caller's budget, not the leg's.
	err := o.pacedLeg(ctx, func() error {
		lctx, cancel := o.mgr.legCtx(ctx)
		defer cancel()
		aerr := o.withCap(comp, func(cp *capability.Capability) error {
			return o.drives[c.Drive].WritePipelined(lctx, cp, o.mgr.part, c.Object, off, data)
		})
		o.mgr.reportDrive(c.Drive, aerr)
		return aerr
	})
	return err
}

// Desc returns the layout descriptor.
func (o *Object) Desc() Descriptor { return o.desc }

// Size returns the logical size known to the manager at open time.
func (o *Object) Size() uint64 { return o.desc.Size }

// locate maps a logical byte offset to (component index, component
// offset, bytes until the lane changes, stripe number).
func (o *Object) locate(off int64) (comp int, compOff int64, runLen int64, stripe int64) {
	unit := o.desc.StripeUnit
	switch o.desc.Pattern {
	case Mirror1:
		return 0, off, 1 << 62, 0
	case Stripe0:
		u := off / unit
		within := off % unit
		w := int64(o.desc.Width())
		comp = int(u % w)
		compOff = (u/w)*unit + within
		return comp, compOff, unit - within, u / w
	case RAID5:
		dw := int64(o.desc.DataWidth())
		u := off / unit
		within := off % unit
		stripe = u / dw
		lane := u % dw
		parity := o.parityIndex(stripe)
		comp = int(lane)
		if comp >= parity {
			comp++
		}
		compOff = stripe*unit + within
		return comp, compOff, unit - within, stripe
	}
	panic("cheops: unknown pattern")
}

// parityIndex returns the component holding parity for a stripe
// (rotating right-asymmetric layout).
func (o *Object) parityIndex(stripe int64) int {
	return int(stripe % int64(o.desc.Width()))
}

// ReadAt reads n bytes at logical offset off, fanning the per-lane
// spans out to all component drives concurrently (each span is itself
// pipelined when large). For redundant layouts it reconstructs around a
// single failed component (degraded read).
func (o *Object) ReadAt(ctx context.Context, off uint64, n int) ([]byte, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]byte, n)
	type span struct {
		comp    int
		compOff int64
		outOff  int
		n       int
		stripe  int64
	}
	var spans []span
	for done := 0; done < n; {
		comp, compOff, run, stripe := o.locate(int64(off) + int64(done))
		chunk := n - done
		if int64(chunk) > run {
			chunk = int(run)
		}
		spans = append(spans, span{comp, compOff, done, chunk, stripe})
		done += chunk
	}
	o.mgr.tel.readFanout.Observe(int64(len(spans)))
	ctx, rsp := o.mgr.spans.StartSpan(ctx, "cheops.read")
	rsp.Annotate("fanout", strconv.Itoa(len(spans)))
	rsp.Annotate("bytes", strconv.Itoa(n))
	defer rsp.End()
	var wg sync.WaitGroup
	errs := make([]error, len(spans))
	for i, sp := range spans {
		wg.Add(1)
		go func(i int, sp span) {
			defer wg.Done()
			// One child span per fan-out leg: parallel legs render as
			// overlapping bars, making the stripe's straggler visible.
			lctx, lsp := o.mgr.spans.StartSpan(ctx, "cheops.read.leg")
			lsp.Annotate("drive", strconv.Itoa(o.desc.Components[sp.comp].Drive))
			lsp.Annotate("off", strconv.FormatInt(sp.compOff, 10))
			lsp.Annotate("len", strconv.Itoa(sp.n))
			defer lsp.End()
			data, err := o.readComponent(lctx, sp.comp, uint64(sp.compOff), sp.n, sp.stripe)
			if err != nil {
				lsp.Annotate("error", err.Error())
				errs[i] = err
				return
			}
			copy(out[sp.outOff:sp.outOff+sp.n], data)
		}(i, sp)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// readComponent reads from one component, falling back to
// reconstruction when the component fails and the layout is redundant.
// The fall-over happens mid-operation: a lane that times out, errors,
// is refused by its drive's breaker, or holds stale data (awaiting
// repair) is served from the surviving redundancy without failing the
// caller's read.
func (o *Object) readComponent(ctx context.Context, comp int, off uint64, n int, stripe int64) ([]byte, error) {
	c := o.desc.Components[comp]
	var err error
	switch {
	case o.mgr.laneUnserviceable(o.desc.Logical, comp, c.Object):
		// A degraded write skipped this lane (or the manager already
		// rebuilt it elsewhere): its contents are stale even if the
		// drive answers, so the read must come from reconstruction.
		err = errPendingRepair
	case !o.mgr.allowDrive(c.Drive):
		err = errBreakerOpen
	default:
		var data []byte
		err = o.pacedLeg(ctx, func() error {
			lctx, cancel := o.mgr.legCtx(ctx)
			defer cancel()
			var aerr error
			data, aerr = o.readDirect(lctx, comp, off, n)
			o.mgr.reportDrive(c.Drive, aerr)
			return aerr
		})
		if err == nil {
			return pad(data, n), nil
		}
	}
	if errors.Is(err, client.ErrOverloaded) {
		// Backpressure outlasting the pacing loop is saturation, not
		// component failure: the data on the lane is intact and the
		// drive is alive. Reconstructing around it would fan a single
		// overloaded drive's load out to its healthy stripe-mates —
		// overload begets more traffic — so surface the retryable
		// error instead of going degraded.
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, err // don't mask a canceled read as a drive failure
	}
	if o.desc.Pattern == Mirror1 || o.desc.Pattern == RAID5 {
		o.mgr.tel.degradedReads.Inc()
		o.mgr.tel.failovers.Inc()
		if o.mgr.noteDegradedRead(o.desc.Logical, comp) {
			o.mgr.tel.events.Emitf(telemetry.SevWarn, "cheops", "degraded_read",
				"logical=%d comp=%d now served by reconstruction: %v", o.desc.Logical, comp, err)
		}
		var dsp *telemetry.Span
		ctx, dsp = o.mgr.spans.StartSpan(ctx, "cheops.degraded_read")
		dsp.Annotate("failed_comp", strconv.Itoa(comp))
		dsp.Annotate("cause", err.Error())
		defer dsp.End()
	}
	switch o.desc.Pattern {
	case Mirror1:
		for alt := range o.desc.Components {
			if alt == comp {
				continue
			}
			ac := o.desc.Components[alt]
			if o.mgr.laneUnserviceable(o.desc.Logical, alt, ac.Object) || !o.mgr.allowDrive(ac.Drive) {
				continue
			}
			data, aerr := o.readDirect(ctx, alt, off, n)
			o.mgr.reportDrive(ac.Drive, aerr)
			if aerr == nil {
				return pad(data, n), nil
			}
		}
		return nil, fmt.Errorf("%w: all mirrors failed: %v", ErrDegraded, err)
	case RAID5:
		// Reconstruct: xor of every other component at the same offsets,
		// reading all survivors in parallel. Survivors bypass the
		// breaker — reconstruction is the last resort, so the drives
		// are tried even when suspect — but a stale lane is a hard
		// stop: xor cannot disentangle two inconsistent lanes.
		parts := make([][]byte, len(o.desc.Components))
		if rerr := eachDrive(len(o.desc.Components), func(i int) error {
			if i == comp {
				return nil
			}
			ci := o.desc.Components[i]
			if o.mgr.laneUnserviceable(o.desc.Logical, i, ci.Object) {
				return fmt.Errorf("%w: survivor %d also awaits repair", ErrDegraded, i)
			}
			p, e := o.readDirect(ctx, i, off, n)
			o.mgr.reportDrive(ci.Drive, e)
			if e != nil {
				return e
			}
			parts[i] = pad(p, n)
			return nil
		}); rerr != nil {
			return nil, fmt.Errorf("%w: second failure during reconstruction: %v (first: %v)", ErrDegraded, rerr, err)
		}
		acc := make([]byte, n)
		for _, p := range parts {
			for j := range p {
				acc[j] ^= p[j]
			}
		}
		return acc, nil
	default:
		return nil, err
	}
}

func pad(b []byte, n int) []byte {
	if len(b) >= n {
		return b[:n]
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// WriteAt writes data at logical offset off and reports the new size to
// the manager. Per-lane spans go to all component drives concurrently.
func (o *Object) WriteAt(ctx context.Context, off uint64, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	ctx, wsp := o.mgr.spans.StartSpan(ctx, "cheops.write")
	wsp.Annotate("bytes", strconv.Itoa(len(data)))
	defer wsp.End()
	var err error
	switch o.desc.Pattern {
	case Mirror1:
		err = o.writeMirror(ctx, off, data)
	case Stripe0:
		err = o.writeStripe0(ctx, off, data)
	case RAID5:
		err = o.writeRAID5(ctx, off, data)
	default:
		err = ErrBadLayout
	}
	if err != nil {
		return err
	}
	end := off + uint64(len(data))
	if end > o.desc.Size {
		o.desc.Size = end
		return o.mgr.UpdateSize(ctx, o.desc.Logical, end)
	}
	return nil
}

// writeMirror writes all replicas in parallel. A replica that fails
// (or is refused by its breaker) degrades the write rather than
// failing it: the data is durable on the surviving replicas and the
// skipped one enters the repair ledger so ReplaceComponent can rebuild
// it later.
func (o *Object) writeMirror(ctx context.Context, off uint64, data []byte) error {
	o.mgr.tel.writeFanout.Observe(int64(len(o.desc.Components)))
	var wg sync.WaitGroup
	errs := make([]error, len(o.desc.Components))
	for i, c := range o.desc.Components {
		wg.Add(1)
		go func(i int, c Component) {
			defer wg.Done()
			lctx, lsp := o.mgr.spans.StartSpan(ctx, "cheops.write.leg")
			lsp.Annotate("drive", strconv.Itoa(c.Drive))
			defer lsp.End()
			errs[i] = o.writeLeg(lctx, i, off, data)
			if errs[i] != nil {
				lsp.Annotate("error", errs[i].Error())
			}
		}(i, c)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err // the caller's cancellation, not drive failures
	}
	ok := 0
	var firstErr error
	allOverload := true
	for _, e := range errs {
		if e == nil {
			ok++
			allOverload = false
		} else {
			if firstErr == nil {
				firstErr = e
			}
			if !errors.Is(e, client.ErrOverloaded) {
				allOverload = false
			}
		}
	}
	if ok == 0 {
		if allOverload {
			// Every replica shed after pacing: nothing was written, the
			// mirrors are still mutually consistent, and the rejection
			// is typed retryable. Surfacing it (instead of ErrDegraded)
			// keeps shed traffic out of the repair ledger entirely.
			return firstErr
		}
		return fmt.Errorf("%w: every mirror write failed: %v", ErrDegraded, firstErr)
	}
	for i, e := range errs {
		if e != nil {
			// A lane skipped while its siblings committed is stale no
			// matter why it was skipped — even residual overload after
			// the pacing loop must enter the ledger, or the replica
			// would serve old bytes later. The breaker still never sees
			// it (reportDrive classified the reply as alive).
			o.mgr.noteDegradedWrite(o.desc.Logical, i, e)
		}
	}
	return nil
}

func (o *Object) writeStripe0(ctx context.Context, off uint64, data []byte) error {
	type span struct {
		comp    int
		compOff int64
		start   int
		n       int
	}
	var spans []span
	for done := 0; done < len(data); {
		comp, compOff, run, _ := o.locate(int64(off) + int64(done))
		chunk := len(data) - done
		if int64(chunk) > run {
			chunk = int(run)
		}
		spans = append(spans, span{comp, compOff, done, chunk})
		done += chunk
	}
	o.mgr.tel.writeFanout.Observe(int64(len(spans)))
	var wg sync.WaitGroup
	errs := make([]error, len(spans))
	for i, sp := range spans {
		wg.Add(1)
		go func(i int, sp span) {
			defer wg.Done()
			c := o.desc.Components[sp.comp]
			lctx, lsp := o.mgr.spans.StartSpan(ctx, "cheops.write.leg")
			lsp.Annotate("drive", strconv.Itoa(c.Drive))
			lsp.Annotate("off", strconv.FormatInt(sp.compOff, 10))
			lsp.Annotate("len", strconv.Itoa(sp.n))
			defer lsp.End()
			// Stripe0 has no redundancy to degrade into: a failed leg
			// fails the write, but still feeds the drive's breaker.
			errs[i] = o.writeLeg(lctx, sp.comp, uint64(sp.compOff), data[sp.start:sp.start+sp.n])
		}(i, sp)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// writeRAID5 performs parity-consistent writes one stripe unit at a
// time using read-modify-write (small-write) updates, serialized per
// stripe through the manager's lock service.
func (o *Object) writeRAID5(ctx context.Context, off uint64, data []byte) error {
	for done := 0; done < len(data); {
		comp, compOff, run, stripe := o.locate(int64(off) + int64(done))
		chunk := len(data) - done
		if int64(chunk) > run {
			chunk = int(run)
		}
		if err := o.rmwRAID5(ctx, comp, uint64(compOff), stripe, data[done:done+chunk]); err != nil {
			return err
		}
		done += chunk
	}
	return nil
}

func (o *Object) rmwRAID5(ctx context.Context, comp int, compOff uint64, stripe int64, chunk []byte) error {
	o.mgr.tel.rmwWrites.Inc()
	ctx, rsp := o.mgr.spans.StartSpan(ctx, "cheops.rmw")
	rsp.Annotate("stripe", strconv.FormatInt(stripe, 10))
	defer rsp.End()
	o.mgr.LockStripe(o.desc.Logical, stripe)
	defer o.mgr.UnlockStripe(o.desc.Logical, stripe)

	parity := o.parityIndex(stripe)
	n := len(chunk)

	// Read old data and old parity in parallel (missing regions read as
	// zeros) — the two drives seek concurrently, halving the small-write
	// pre-read latency. The pre-reads go through readComponent, so a
	// failed or stale lane is served by reconstruction: xor of the
	// other lanes recovers a data lane and parity alike, which is what
	// keeps RMW possible with one bad component.
	var oldData, oldPar []byte
	if err := eachDrive(2, func(i int) error {
		if i == 0 {
			d, err := o.readComponent(ctx, comp, compOff, n, stripe)
			if err != nil {
				return err
			}
			oldData = d
			return nil
		}
		p, err := o.readComponent(ctx, parity, compOff, n, stripe)
		if err != nil {
			return err
		}
		oldPar = p
		return nil
	}); err != nil {
		return err
	}

	newPar := make([]byte, n)
	for i := 0; i < n; i++ {
		newPar[i] = oldPar[i] ^ oldData[i] ^ chunk[i]
	}
	// Data and parity land in parallel too; the stripe lock keeps the
	// pair atomic with respect to other writers of this stripe. One
	// failed leg degrades the write instead of failing it: with
	// newPar = oldPar ^ oldData ^ chunk, reconstruction of a skipped
	// data lane from the surviving lanes yields exactly chunk, so the
	// stripe stays logically consistent while the skipped component
	// waits in the repair ledger. Both legs failing loses the update.
	werrs := make([]error, 2)
	_ = eachDrive(2, func(i int) error {
		if i == 0 {
			werrs[0] = o.writeLeg(ctx, comp, compOff, chunk)
		} else {
			werrs[1] = o.writeLeg(ctx, parity, compOff, newPar)
		}
		return nil
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	if werrs[0] != nil && werrs[1] != nil {
		if errors.Is(werrs[0], client.ErrOverloaded) && errors.Is(werrs[1], client.ErrOverloaded) {
			// Both legs shed after pacing: neither data nor parity was
			// touched, so the stripe still holds its old, consistent
			// contents. Surface the typed retryable error — no ledger
			// entry, no lost-update ErrDegraded.
			return werrs[0]
		}
		return fmt.Errorf("%w: stripe %d data and parity writes both failed: %v", ErrDegraded, stripe, werrs[0])
	}
	for i, e := range werrs {
		if e != nil {
			idx := comp
			if i == 1 {
				idx = parity
			}
			o.mgr.noteDegradedWrite(o.desc.Logical, idx, e)
		}
	}
	return nil
}
