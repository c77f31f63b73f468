package main

import (
	"context"
	"io"
	"testing"

	"nasd/internal/capability"
	"nasd/internal/object"
)

// oneWorker runs a fixed single-client sequence of serial requests
// over both storage engines (64 KiB writes and reads on a classic
// partition; puts, gets and deletes on a needle partition) and returns
// the media's read and write counts. The requests are serial because
// pipelined fragments race for the cache, which makes media counts vary
// from run to run with or without wrappers.
func oneWorker(t *testing.T, cfg rigConfig, tr *tracer) (reads, writes int64) {
	t.Helper()
	e := &env{seed: 1, pat: newPatterns(1), out: io.Discard, tr: tr}
	r, err := newRig(cfg, e.seed, tr)
	if err != nil {
		t.Fatal(err)
	}
	tr.start()
	ctx := context.Background()
	cli, err := r.dial()
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(r.createPartition(ctx, cli, 1, object.BackendClassic))
	must(r.createPartition(ctx, cli, 2, object.BackendNeedle))
	create, err := r.mint(1, 0, 0, capability.CreateObj)
	must(err)
	obj, err := cli.Create(ctx, create, 1)
	must(err)
	c, err := r.mint(1, obj, 1, capability.Read|capability.Write)
	must(err)
	const chunk = 64 << 10
	buf := make([]byte, chunk)
	for i := 0; i < 256; i++ {
		e.pat.fill(buf, uint64(i))
		must(cli.Write(ctx, c, 1, obj, uint64(i)*chunk, buf))
	}
	must(cli.Flush(ctx))
	for i := 0; i < 256; i++ {
		got, err := cli.Read(ctx, c, 1, obj, uint64(i)*chunk, chunk)
		must(err)
		if !e.pat.check(got, uint64(i), chunk) {
			t.Fatalf("chunk %d: wrong bytes", i)
		}
	}
	s := &smallState{r: r}
	s.clis[0], s.clis[1] = cli, cli
	s.create, err = r.mint(smallPart, 0, 0, capability.CreateObj)
	must(err)
	for i := 0; i < 64; i++ {
		must(s.put(ctx, e, 0))
	}
	for i := 0; i < 64; i++ {
		must(s.get(ctx, e, 0, uint64(i*7)))
	}
	for i := 0; i < 16; i++ {
		must(s.del(ctx, e, 0))
	}
	must(cli.Flush(ctx))
	tr.stop()
	r.stop()
	return r.mem.Stats()
}

// TestTracedRunIsTransparent checks that the traced run's wrappers
// (server entry, the drive under qos, and the device) leave the
// program's media traffic unchanged, so the traced run measures the
// same program as the untraced one.
func TestTracedRunIsTransparent(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  rigConfig
	}{
		{"plain", rigConfig{blocks: 16 << 10}},
		{"qos", rigConfig{blocks: 16 << 10, qos: true, rpcQueue: 16}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r0, w0 := oneWorker(t, tc.cfg, nil)
			if r, w := oneWorker(t, tc.cfg, nil); r != r0 || w != w0 {
				t.Fatalf("untraced runs differ: %d/%d then %d/%d device reads/writes", r0, w0, r, w)
			}
			tr := newTracer()
			r1, w1 := oneWorker(t, tc.cfg, tr)
			if r0 != r1 || w0 != w1 {
				t.Fatalf("device reads/writes: untraced %d/%d, traced %d/%d", r0, w0, r1, w1)
			}
			if len(tr.spans[kindDevice]) == 0 || len(tr.spans[kindDrive]) == 0 || len(tr.spans[kindClient]) == 0 {
				t.Fatalf("traced run recorded no spans: %d device, %d drive, %d client",
					len(tr.spans[kindDevice]), len(tr.spans[kindDrive]), len(tr.spans[kindClient]))
			}
		})
	}
}
