package sim

import "time"

// Resource is a FIFO server pool with fixed capacity. Processes Acquire a
// unit, hold it for some simulated time, and Release it. Utilization is
// tracked so experiments can report idle percentages (Figure 7 of the
// paper reports client and drive CPU idle).
type Resource struct {
	env      *Env
	name     string
	capacity int
	inUse    int
	waiters  []*Proc

	busy      time.Duration // integral of inUse over time
	lastStamp time.Duration
}

// NewResource returns a resource with the given capacity (number of
// units that can be held simultaneously).
func (e *Env) NewResource(name string, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{env: e, name: name, capacity: capacity}
}

func (r *Resource) stamp() {
	now := r.env.now
	r.busy += time.Duration(r.inUse) * (now - r.lastStamp)
	r.lastStamp = now
}

// Acquire blocks until a unit is available and takes it.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.capacity && len(r.waiters) == 0 {
		r.stamp()
		r.inUse++
		return
	}
	r.waiters = append(r.waiters, p)
	p.suspend()
	// The releaser already stamped and incremented inUse on our behalf.
}

// TryAcquire takes a unit if one is immediately available.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.capacity && len(r.waiters) == 0 {
		r.stamp()
		r.inUse++
		return true
	}
	return false
}

// Release returns a unit. If processes are waiting, the oldest waiter is
// granted the unit and scheduled at the current time.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release without Acquire on " + r.name)
	}
	r.stamp()
	r.inUse--
	if len(r.waiters) > 0 {
		p := r.waiters[0]
		r.waiters = r.waiters[1:]
		r.stamp()
		r.inUse++
		r.env.schedule(p, r.env.now)
	}
}

// Use acquires a unit, holds it for d, and releases it.
func (r *Resource) Use(p *Proc, d time.Duration) {
	r.Acquire(p)
	p.Wait(d)
	r.Release()
}

// Utilization returns the mean fraction of capacity in use between time
// zero and now. It is 0 if no time has elapsed.
func (r *Resource) Utilization() float64 {
	r.stamp()
	now := r.env.now
	if now == 0 {
		return 0
	}
	return float64(r.busy) / (float64(now) * float64(r.capacity))
}

// Queue is an unbounded FIFO of values with blocking receive, useful for
// modelling request queues between simulated components.
type Queue struct {
	env     *Env
	items   []any
	waiters []*Proc
}

// NewQueue returns an empty queue bound to e.
func (e *Env) NewQueue() *Queue { return &Queue{env: e} }

// Len returns the number of queued items.
func (q *Queue) Len() int { return len(q.items) }

// Put appends v and wakes one waiting receiver, if any.
func (q *Queue) Put(v any) {
	q.items = append(q.items, v)
	if len(q.waiters) > 0 {
		p := q.waiters[0]
		q.waiters = q.waiters[1:]
		q.env.schedule(p, q.env.now)
	}
}

// Get removes and returns the oldest item, blocking while the queue is
// empty.
func (q *Queue) Get(p *Proc) any {
	for len(q.items) == 0 {
		q.waiters = append(q.waiters, p)
		p.suspend()
	}
	v := q.items[0]
	q.items = q.items[1:]
	return v
}
