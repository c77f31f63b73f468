package sim

import (
	"testing"
	"time"
)

func TestClockAdvances(t *testing.T) {
	e := NewEnv()
	var seen []time.Duration
	e.Go("a", func(p *Proc) {
		p.Wait(10 * time.Millisecond)
		seen = append(seen, p.Now())
		p.Wait(5 * time.Millisecond)
		seen = append(seen, p.Now())
	})
	end := e.Run()
	if end != 15*time.Millisecond {
		t.Fatalf("end time = %v, want 15ms", end)
	}
	if len(seen) != 2 || seen[0] != 10*time.Millisecond || seen[1] != 15*time.Millisecond {
		t.Fatalf("seen = %v", seen)
	}
}

func TestEventOrderingDeterministic(t *testing.T) {
	run := func() []string {
		e := NewEnv()
		var order []string
		for _, n := range []string{"a", "b", "c"} {
			n := n
			e.Go(n, func(p *Proc) {
				p.Wait(time.Millisecond) // all wake at the same instant
				order = append(order, n)
			})
		}
		e.Run()
		return order
	}
	first := run()
	for i := 0; i < 5; i++ {
		got := run()
		for j := range first {
			if got[j] != first[j] {
				t.Fatalf("nondeterministic order: %v vs %v", got, first)
			}
		}
	}
	// Ties break in spawn order.
	want := []string{"a", "b", "c"}
	for i, n := range want {
		if first[i] != n {
			t.Fatalf("order = %v, want %v", first, want)
		}
	}
}

func TestGoAtPastPanics(t *testing.T) {
	e := NewEnv()
	e.Go("a", func(p *Proc) {
		p.Wait(time.Second)
		defer func() {
			if recover() == nil {
				t.Error("GoAt in the past did not panic")
			}
		}()
		e.GoAt(0, "late", func(*Proc) {})
	})
	e.Run()
}

func TestRunUntil(t *testing.T) {
	e := NewEnv()
	ticks := 0
	e.Go("ticker", func(p *Proc) {
		for {
			p.Wait(time.Second)
			ticks++
		}
	})
	end := e.RunUntil(4500 * time.Millisecond)
	if end != 4500*time.Millisecond {
		t.Fatalf("end = %v", end)
	}
	if ticks != 4 {
		t.Fatalf("ticks = %d, want 4", ticks)
	}
	// Continue running: the pending event must survive.
	end = e.RunUntil(6 * time.Second)
	if ticks != 6 {
		t.Fatalf("after resume ticks = %d, want 6", ticks)
	}
	if end != 6*time.Second {
		t.Fatalf("end = %v", end)
	}
}

func TestStop(t *testing.T) {
	e := NewEnv()
	n := 0
	e.Go("a", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Wait(time.Millisecond)
			n++
			if n == 3 {
				e.Stop()
			}
		}
	})
	e.Run()
	if n != 3 {
		t.Fatalf("n = %d, want 3", n)
	}
}

func TestEventFireWakesAllWaiters(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	woken := 0
	for i := 0; i < 3; i++ {
		e.Go("w", func(p *Proc) {
			v := ev.Wait(p)
			if v.(int) != 7 {
				t.Errorf("value = %v", v)
			}
			woken++
		})
	}
	e.Go("firer", func(p *Proc) {
		p.Wait(time.Second)
		ev.Fire(7)
	})
	e.Run()
	if woken != 3 {
		t.Fatalf("woken = %d", woken)
	}
	if !ev.Fired() {
		t.Fatal("event not marked fired")
	}
}

func TestEventWaitAfterFire(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	e.Go("a", func(p *Proc) {
		ev.Fire("x")
		if got := ev.Wait(p); got != "x" {
			t.Errorf("got %v", got)
		}
	})
	e.Run()
}

func TestEventDoubleFirePanics(t *testing.T) {
	e := NewEnv()
	e.Go("a", func(p *Proc) {
		ev := e.NewEvent()
		ev.Fire(nil)
		defer func() {
			if recover() == nil {
				t.Error("double fire did not panic")
			}
		}()
		ev.Fire(nil)
	})
	e.Run()
}

func TestResourceMutualExclusion(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("cpu", 1)
	var holds [][2]time.Duration
	for i := 0; i < 3; i++ {
		e.Go("u", func(p *Proc) {
			r.Acquire(p)
			start := p.Now()
			p.Wait(10 * time.Millisecond)
			holds = append(holds, [2]time.Duration{start, p.Now()})
			r.Release()
		})
	}
	e.Run()
	if len(holds) != 3 {
		t.Fatalf("holds = %v", holds)
	}
	for i := 1; i < len(holds); i++ {
		if holds[i][0] < holds[i-1][1] {
			t.Fatalf("overlapping holds: %v", holds)
		}
	}
	if got := holds[2][1]; got != 30*time.Millisecond {
		t.Fatalf("last release at %v, want 30ms", got)
	}
}

func TestResourceFIFO(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("disk", 1)
	var order []int
	e.Go("holder", func(p *Proc) {
		r.Acquire(p)
		p.Wait(time.Second)
		r.Release()
	})
	for i := 1; i <= 3; i++ {
		i := i
		e.GoAt(time.Duration(i)*time.Millisecond, "w", func(p *Proc) {
			r.Acquire(p)
			order = append(order, i)
			r.Release()
		})
	}
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestResourceCapacity(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("bus", 2)
	done := 0
	for i := 0; i < 4; i++ {
		e.Go("u", func(p *Proc) {
			r.Use(p, 10*time.Millisecond)
			done++
		})
	}
	end := e.Run()
	if done != 4 {
		t.Fatalf("done = %d", done)
	}
	if end != 20*time.Millisecond {
		t.Fatalf("end = %v, want 20ms (two batches of two)", end)
	}
}

func TestResourceUtilization(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("cpu", 1)
	e.Go("u", func(p *Proc) {
		r.Use(p, 250*time.Millisecond)
		p.Wait(750 * time.Millisecond)
	})
	e.Run()
	if u := r.Utilization(); u < 0.249 || u > 0.251 {
		t.Fatalf("utilization = %v, want 0.25", u)
	}
}

func TestResourceTryAcquire(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("x", 1)
	e.Go("a", func(p *Proc) {
		if !r.TryAcquire() {
			t.Error("first TryAcquire failed")
		}
		if r.TryAcquire() {
			t.Error("second TryAcquire succeeded")
		}
		r.Release()
		if !r.TryAcquire() {
			t.Error("TryAcquire after release failed")
		}
		r.Release()
	})
	e.Run()
}

func TestReleaseWithoutAcquirePanics(t *testing.T) {
	e := NewEnv()
	e.Go("a", func(p *Proc) {
		r := e.NewResource("x", 1)
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		r.Release()
	})
	e.Run()
}

func TestQueueBlocksUntilPut(t *testing.T) {
	e := NewEnv()
	q := e.NewQueue()
	var got any
	var when time.Duration
	e.Go("consumer", func(p *Proc) {
		got = q.Get(p)
		when = p.Now()
	})
	e.Go("producer", func(p *Proc) {
		p.Wait(5 * time.Millisecond)
		q.Put("hello")
	})
	e.Run()
	if got != "hello" || when != 5*time.Millisecond {
		t.Fatalf("got %v at %v", got, when)
	}
}

func TestQueueFIFOOrder(t *testing.T) {
	e := NewEnv()
	q := e.NewQueue()
	var got []int
	e.Go("c", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Get(p).(int))
		}
	})
	e.Go("p", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			q.Put(i)
			p.Wait(time.Millisecond)
		}
	})
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestSpawnFromProcess(t *testing.T) {
	e := NewEnv()
	var childTime time.Duration
	e.Go("parent", func(p *Proc) {
		p.Wait(time.Second)
		e.Go("child", func(c *Proc) {
			c.Wait(time.Second)
			childTime = c.Now()
		})
	})
	e.Run()
	if childTime != 2*time.Second {
		t.Fatalf("child finished at %v", childTime)
	}
}

func TestWaitAll(t *testing.T) {
	e := NewEnv()
	ev1, ev2 := e.NewEvent(), e.NewEvent()
	var done time.Duration
	e.Go("waiter", func(p *Proc) {
		WaitAll(p, ev1, ev2)
		done = p.Now()
	})
	e.Go("f1", func(p *Proc) { p.Wait(time.Second); ev1.Fire(nil) })
	e.Go("f2", func(p *Proc) { p.Wait(3 * time.Second); ev2.Fire(nil) })
	e.Run()
	if done != 3*time.Second {
		t.Fatalf("done at %v", done)
	}
}

func TestTallyStats(t *testing.T) {
	var ta Tally
	for _, v := range []float64{1, 2, 3, 4} {
		ta.Add(v)
	}
	if ta.N() != 4 || ta.Sum() != 10 || ta.Mean() != 2.5 || ta.Min() != 1 || ta.Max() != 4 {
		t.Fatalf("tally stats wrong: %+v", ta)
	}
	if sd := ta.StdDev(); sd < 1.11 || sd > 1.12 {
		t.Fatalf("stddev = %v", sd)
	}
}

func TestCounterRate(t *testing.T) {
	var c Counter
	c.Add(1000)
	c.Add(1000)
	if c.Total() != 2000 {
		t.Fatalf("total = %d", c.Total())
	}
	if r := c.RatePerSec(2 * time.Second); r != 1000 {
		t.Fatalf("rate = %v", r)
	}
	if r := c.RatePerSec(0); r != 0 {
		t.Fatalf("rate at zero elapsed = %v", r)
	}
}

func TestEmptyTallySafe(t *testing.T) {
	var ta Tally
	if ta.Mean() != 0 || ta.StdDev() != 0 || ta.Min() != 0 || ta.Max() != 0 {
		t.Fatal("empty tally not zeroed")
	}
}

func TestNegativeWaitPanics(t *testing.T) {
	e := NewEnv()
	e.Go("a", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		p.Wait(-time.Second)
	})
	e.Run()
}
