package main

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// The open-loop generator models independent users: arrivals follow a
// seeded Poisson schedule fixed before the run, and a slow system does
// not slow the schedule down. Each request is timed from when it was
// due, not from when it was sent, so a stall charges its wait to every
// request that was due during it (no coordinated omission). One
// generator goroutine dispatches every arrival; at most maxOutstanding
// requests run at once, and when that many are stuck the generator
// itself falls behind, which shows as generator lag.

// poissonSchedule returns arrival offsets of a Poisson process of the
// given rate (per second) over dur.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	mean := float64(time.Second) / rate
	for t := time.Duration(rng.ExpFloat64() * mean); t < dur; t += time.Duration(rng.ExpFloat64() * mean) {
		out = append(out, t)
	}
	return out
}

// arrival is one scheduled request's timing, as offsets from the
// schedule's start.
type arrival struct {
	due  time.Duration // when the schedule said to send it
	sent time.Duration // when the generator dispatched it
	done time.Duration // when it completed
	err  error
}

// latency is the request's latency measured from its due time.
func (a arrival) latency() time.Duration { return a.done - a.due }

// lag is how late the generator dispatched the request.
func (a arrival) lag() time.Duration { return a.sent - a.due }

// runOpenLoop dispatches send(i) at start+sched[i] for every i, each on
// its own goroutine with at most maxOutstanding running, and returns
// once all have completed.
func runOpenLoop(start time.Time, sched []time.Duration, maxOutstanding int, send func(i int) error) []arrival {
	out := make([]arrival, len(sched))
	sem := make(chan struct{}, maxOutstanding)
	var wg sync.WaitGroup
	// The generator sleeps with nanosleep on its own thread: the Go
	// timer wheel rounds sub-millisecond sleeps up to about 1 ms on an
	// idle runtime, which would add that much lag to every arrival.
	runtime.LockOSThread()
	for i, at := range sched {
		sleepUntil(start.Add(at))
		sem <- struct{}{}
		out[i].due = at
		out[i].sent = time.Since(start)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := send(i)
			out[i].done = time.Since(start)
			out[i].err = err
			<-sem
		}(i)
	}
	runtime.UnlockOSThread()
	wg.Wait()
	return out
}

// lagP99 returns the generator's p99 lag over arr, the gen.lag_p99_us
// metric in nanoseconds.
func lagP99(arr []arrival) int64 {
	var l latencies
	for _, a := range arr {
		l.add(a.lag())
	}
	return quantile(l.sorted(), 0.99)
}

// sleepUntil blocks the calling thread until t.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}
