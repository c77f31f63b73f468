// Package sim provides a deterministic discrete-event simulation kernel.
//
// Processes are ordinary functions running on goroutines, but the kernel
// guarantees that exactly one process executes at a time and that events
// fire in strict timestamp order (ties broken by scheduling sequence), so
// a simulation is fully reproducible.
//
// The kernel is the substrate for the hardware models in internal/hw and
// for every experiment harness that regenerates a figure or table from
// the NASD paper: the paper's results are consequences of 1998 hardware
// balance (slow SCSI buses, OC-3 ATM, heavyweight RPC stacks), which we
// recreate in simulated time rather than on modern wall clocks.
package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// Env is a simulation environment: a virtual clock plus an event queue.
// Create one with NewEnv, start processes with Go, then call Run.
type Env struct {
	now     time.Duration
	queue   eventQueue
	seq     uint64
	current *Proc
	yield   chan struct{}
	procs   int
	stopped bool
}

// NewEnv returns a new simulation environment. The clock starts at zero.
func NewEnv() *Env {
	return &Env{yield: make(chan struct{})}
}

// Now returns the current simulated time.
func (e *Env) Now() time.Duration { return e.now }

type event struct {
	at   time.Duration
	seq  uint64
	proc *Proc
}

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any     { old := *q; n := len(old); ev := old[n-1]; *q = old[:n-1]; return ev }
func (e *Env) schedule(p *Proc, at time.Duration) {
	e.seq++
	heap.Push(&e.queue, event{at: at, seq: e.seq, proc: p})
}

// Proc is a handle on a simulation process. A Proc is passed to the
// process function and must only be used by that function's goroutine.
type Proc struct {
	env    *Env
	resume chan struct{}
	done   bool
}

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current simulated time.
func (p *Proc) Now() time.Duration { return p.env.now }

// Go starts fn as a new process at the current simulated time. It may be
// called before Run or from within a running process.
func (e *Env) Go(name string, fn func(*Proc)) *Proc {
	return e.GoAt(e.now, name, fn)
}

// GoAt starts fn as a new process at simulated time at (which must not be
// in the past).
func (e *Env) GoAt(at time.Duration, name string, fn func(*Proc)) *Proc {
	if at < e.now {
		panic(fmt.Sprintf("sim: GoAt(%v) of %q in the past (now %v)", at, name, e.now))
	}
	p := &Proc{env: e, resume: make(chan struct{})}
	e.procs++
	go func() {
		<-p.resume
		fn(p)
		p.done = true
		e.procs--
		e.yield <- struct{}{}
	}()
	e.schedule(p, at)
	return p
}

// Wait suspends the process for simulated duration d.
func (p *Proc) Wait(d time.Duration) {
	if d < 0 {
		panic("sim: negative Wait")
	}
	e := p.env
	e.schedule(p, e.now+d)
	p.park()
}

// park returns control to the scheduler and blocks until resumed.
func (p *Proc) park() {
	p.env.yield <- struct{}{}
	<-p.resume
}

// suspend blocks the process without scheduling a wakeup; something else
// (an Event fire or resource grant) must call e.schedule for it.
func (p *Proc) suspend() { p.park() }

// Run executes events until the queue is empty or Stop is called.
// It returns the final simulated time.
func (e *Env) Run() time.Duration { return e.RunUntil(-1) }

// RunUntil executes events with timestamps <= limit (no limit if
// negative) and returns the simulated time when it stops. Processes
// blocked forever (e.g. on an Event that never fires) do not keep the
// simulation alive.
func (e *Env) RunUntil(limit time.Duration) time.Duration {
	for len(e.queue) > 0 && !e.stopped {
		ev := heap.Pop(&e.queue).(event)
		if limit >= 0 && ev.at > limit {
			heap.Push(&e.queue, ev)
			e.now = limit
			return e.now
		}
		if ev.at < e.now {
			panic("sim: time went backwards")
		}
		e.now = ev.at
		e.current = ev.proc
		ev.proc.resume <- struct{}{}
		<-e.yield
		e.current = nil
	}
	e.stopped = false
	return e.now
}

// Stop halts Run after the currently executing process yields. Call it
// from within a process.
func (e *Env) Stop() { e.stopped = true }

// Event is a one-shot synchronization point carrying an optional value.
// Any number of processes may Wait on it; Fire wakes them all at the
// current simulated time.
type Event struct {
	env     *Env
	fired   bool
	value   any
	waiters []*Proc
}

// NewEvent returns an unfired event bound to e.
func (e *Env) NewEvent() *Event { return &Event{env: e} }

// Fired reports whether the event has fired.
func (ev *Event) Fired() bool { return ev.fired }

// Fire marks the event fired with value v and schedules all waiters at
// the current simulated time. Firing twice panics.
func (ev *Event) Fire(v any) {
	if ev.fired {
		panic("sim: Event fired twice")
	}
	ev.fired = true
	ev.value = v
	for _, p := range ev.waiters {
		ev.env.schedule(p, ev.env.now)
	}
	ev.waiters = nil
}

// Wait blocks the process until the event fires and returns its value.
// If the event already fired it returns immediately.
func (ev *Event) Wait(p *Proc) any {
	if ev.fired {
		return ev.value
	}
	ev.waiters = append(ev.waiters, p)
	p.suspend()
	return ev.value
}

// WaitAll blocks until every event in evs has fired.
func WaitAll(p *Proc, evs ...*Event) {
	for _, ev := range evs {
		ev.Wait(p)
	}
}
