package main

import (
	"context"
	"math/rand/v2"
	"sync/atomic"
	"testing"
	"time"

	"nasd/internal/rpc"
)

// TestStallIsNotOmitted injects a stall into the handler behind a real
// rpc server and checks that the open-loop generator charges it to
// every request that was due while it lasted, and that the stall shows
// in the generator's lag.
func TestStallIsNotOmitted(t *testing.T) {
	const (
		stallFrom = 100 * time.Millisecond
		stallTo   = 200 * time.Millisecond
	)
	var start atomic.Pointer[time.Time]
	srv := rpc.NewServer(rpc.HandlerFunc(func(req *rpc.Request) *rpc.Reply {
		if s := start.Load(); s != nil {
			if el := time.Since(*s); el >= stallFrom && el < stallTo {
				time.Sleep(stallTo - el)
			}
		}
		return &rpc.Reply{Status: rpc.StatusOK}
	}))
	l, err := rpc.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(l)
	}()
	defer func() {
		srv.Close()
		<-served
	}()
	conn, err := rpc.DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cli := rpc.NewClient(conn)
	defer cli.Close()

	sched := poissonSchedule(rand.New(rand.NewPCG(1, 2)), 1000, 300*time.Millisecond)
	t0 := time.Now()
	start.Store(&t0)
	arr := runOpenLoop(t0, sched, 8, func(i int) error {
		_, err := cli.Call(context.Background(), &rpc.Request{Proc: 1})
		return err
	})
	during := 0
	for _, a := range arr {
		if a.err != nil {
			t.Fatalf("call: %v", a.err)
		}
		if a.due >= stallFrom && a.due < stallTo {
			during++
			// Measured from its due time, a request due during the stall
			// waits at least until the stall ends.
			if want := stallTo - a.due - time.Millisecond; a.latency() < want {
				t.Errorf("request due at %v: latency %v, want at least %v", a.due, a.latency(), want)
			}
		}
	}
	if during < 50 {
		t.Fatalf("only %d requests were due during the stall", during)
	}
	// The stall fills the outstanding bound, so the generator itself
	// falls behind by tens of milliseconds.
	if lag := time.Duration(lagP99(arr)); lag < 20*time.Millisecond {
		t.Errorf("gen.lag_p99 = %v, want the stall to show (>= 20ms)", lag)
	}
}
