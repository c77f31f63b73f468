package nasd_test

// Allocation regression tests for the data path. These pin the
// steady-state allocs/op of the hottest paths — the codec round-trip,
// the end-to-end cached drive read and a drive write fragment — so a
// change that quietly reintroduces per-request copies or drops a
// buffer back to the GC fails here, not in benchmark archaeology.

import (
	"context"
	"testing"

	"nasd/internal/bufpool"
	"nasd/internal/crypt"
	"nasd/internal/rpc"
)

// TestCodecRoundTripAllocs pins the plain encode+decode round-trip.
// EncodeRequest allocates the frame and DecodeMessage the message
// struct; everything else must alias.
func TestCodecRoundTripAllocs(t *testing.T) {
	req := &rpc.Request{
		Proc: 1, Cap: make([]byte, 59), Args: make([]byte, 26),
		Data: make([]byte, 8192), Nonce: crypt.Nonce{Client: 1, Counter: 7},
	}
	avg := testing.AllocsPerRun(200, func() {
		wire := rpc.EncodeRequest(req)
		if _, err := rpc.DecodeMessage(wire); err != nil {
			t.Fatal(err)
		}
	})
	// Measured 4 at the time of writing (header grow + frame + Request
	// + decoder); the bound leaves headroom for harness noise only.
	if avg > 8 {
		t.Errorf("codec round-trip allocates %.1f/op, want <= 8", avg)
	}
}

// TestPooledEncodeAllocs pins the transport's actual send path: header
// appended into a pooled buffer, payload attached by reference. Only
// the decode side may allocate (the message struct).
func TestPooledEncodeAllocs(t *testing.T) {
	req := &rpc.Request{
		Proc: 1, Cap: make([]byte, 59), Args: make([]byte, 26),
		Data: make([]byte, 8192), Nonce: crypt.Nonce{Client: 1, Counter: 7},
	}
	// Warm the pool classes used.
	bufpool.Put(bufpool.Get(512))
	avg := testing.AllocsPerRun(200, func() {
		hdr := rpc.AppendRequestHeader(bufpool.Get(160+len(req.Cap)+len(req.Args)), req)
		bufpool.Put(hdr)
	})
	if avg > 1 {
		t.Errorf("pooled header encode allocates %.1f/op, want <= 1", avg)
	}
}

// TestDriveCachedReadAllocs pins the full client→RPC→drive→cache read
// path on a warm cache. The pre-pooling baseline was 83 allocs/op; the
// acceptance bound for the zero-copy path is half that. (Measured 29
// at the time of writing.)
func TestDriveCachedReadAllocs(t *testing.T) {
	cli, cap, obj := driveRig(t, true)
	dst := make([]byte, 8<<10)
	ctx := context.Background()
	// Warm the block cache and the capability digest cache.
	for i := 0; i < 4; i++ {
		if _, err := cli.ReadInto(ctx, &cap, 1, obj, 0, dst); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := cli.ReadInto(ctx, &cap, 1, obj, 0, dst); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 41 {
		t.Errorf("cached 8K drive read allocates %.1f/op, want <= 41 (half the 83 pre-pooling baseline)", avg)
	}
}

// TestDriveWriteFragmentAllocs pins one secure 64 KB write fragment
// through the full client→RPC→drive→object path, overwriting already
// mapped blocks of a 4 MB object (the steady state of a bulk rewrite).
func TestDriveWriteFragmentAllocs(t *testing.T) {
	cli, cap, obj := driveRig(t, true)
	data := make([]byte, 64<<10)
	ctx := context.Background()
	var i int
	write := func() {
		off := uint64(i%64) * uint64(len(data))
		i++
		if err := cli.Write(ctx, &cap, 1, obj, off, data); err != nil {
			t.Fatal(err)
		}
	}
	for n := 0; n < 4; n++ {
		write()
	}
	avg := testing.AllocsPerRun(100, write)
	// Measured 40 at the time of writing; the bound leaves headroom for
	// harness noise only.
	if avg > 48 {
		t.Errorf("secure 64K drive write fragment allocates %.1f/op, want <= 48", avg)
	}
}
