package object

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"nasd/internal/blockdev"
	"nasd/internal/layout"
)

// accounting_test.go pins the classic engine's quota accounting: every
// mutation settles a partition's UsedBlocks from the block references
// it added or dropped, never by walking the object, so the settled
// figure has to keep matching what a walk of the live objects charges —
// and what the mount-time census rebuilds from the onodes.

const (
	acctBlockSize = 512
	// acctMaxBlocks reaches past the double-indirect region, which
	// starts at block NumDirect+64 with 512-byte blocks, into its
	// eighth L1 pointer block.
	acctMaxBlocks = 600
)

// acctRig is a store with one unquota'd and one quota'd classic
// partition, and the live objects of each.
type acctRig struct {
	t    *testing.T
	dev  *blockdev.MemDisk
	s    *Store
	live map[uint16][]uint64
}

var acctParts = []struct {
	id    uint16
	quota int64
}{{1, 0}, {2, 1800}}

func newAcctRig(t *testing.T, deviceBlocks int64) *acctRig {
	t.Helper()
	dev := blockdev.NewMemDisk(acctBlockSize, deviceBlocks)
	s, err := Format(dev, Config{CacheBlocks: 256})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range acctParts {
		if err := s.CreatePartition(p.id, p.quota); err != nil {
			t.Fatal(err)
		}
	}
	return &acctRig{t: t, dev: dev, s: s, live: make(map[uint16][]uint64)}
}

// walkedCharge sums the walk-based charge of every live object of
// part.
func (r *acctRig) walkedCharge(part uint16) int64 {
	r.t.Helper()
	var sum int64
	for _, id := range r.live[part] {
		_, o, err := r.s.classic.lookup(part, id)
		if err != nil {
			r.t.Fatalf("partition %d object %d: %v", part, id, err)
		}
		sum += r.s.classic.chargeOf(&o)
	}
	return sum
}

func (r *acctRig) used(part uint16) int64 {
	r.t.Helper()
	p, err := r.s.GetPartition(part)
	if err != nil {
		r.t.Fatal(err)
	}
	return p.UsedBlocks
}

// check fails the test unless every partition's settled usage equals
// the walked charge of its live objects.
func (r *acctRig) check(where string) {
	r.t.Helper()
	for _, p := range acctParts {
		if got, want := r.used(p.id), r.walkedCharge(p.id); got != want {
			r.t.Fatalf("%s: partition %d UsedBlocks = %d, walked charge = %d", where, p.id, got, want)
		}
	}
}

// remount flushes, reopens the store from the device and checks that
// usage came back unchanged and agrees with the onode census recovery
// would rebuild it from — a live settlement that drifted from the
// census would otherwise be papered over by the next recovering mount.
func (r *acctRig) remount(where string) {
	r.t.Helper()
	before := make(map[uint16]int64)
	for _, p := range acctParts {
		before[p.id] = r.used(p.id)
	}
	if err := r.s.Flush(); err != nil {
		r.t.Fatal(err)
	}
	s, err := Open(r.dev, Config{CacheBlocks: 256})
	if err != nil {
		r.t.Fatalf("%s: reopen: %v", where, err)
	}
	r.s = s
	_, _, census, err := s.onodeRefs()
	if err != nil {
		r.t.Fatal(err)
	}
	for _, p := range acctParts {
		if got := r.used(p.id); got != before[p.id] {
			r.t.Fatalf("%s: partition %d UsedBlocks = %d after remount, %d before", where, p.id, got, before[p.id])
		}
		if c := census[p.id].charge; c != before[p.id] {
			r.t.Fatalf("%s: partition %d UsedBlocks = %d, mount census charges %d", where, p.id, before[p.id], c)
		}
	}
	r.check(where + " after remount")
}

// randomWrite picks a write range in a random region of the block map
// (direct, single-indirect or double-indirect): whole blocks, or a
// partial range at an unaligned offset.
func randomWrite(rng *rand.Rand) (off uint64, n int) {
	p := int64(acctBlockSize / 8)
	var fb int64
	switch rng.Intn(3) {
	case 0:
		fb = rng.Int63n(layout.NumDirect)
	case 1:
		fb = layout.NumDirect + rng.Int63n(p)
	default:
		fb = layout.NumDirect + p + rng.Int63n(acctMaxBlocks-layout.NumDirect-p)
	}
	off = uint64(fb) * acctBlockSize
	if rng.Intn(2) == 0 {
		n = (1 + rng.Intn(8)) * acctBlockSize
	} else {
		off += uint64(rng.Intn(acctBlockSize))
		n = 1 + rng.Intn(3*acctBlockSize)
	}
	if max := acctMaxBlocks*acctBlockSize - int(off); n > max {
		n = max
	}
	return off, n
}

// step applies one random mutation to a random partition and returns
// what it did, and whether the quota refused it. Quota refusals are
// part of the mix; any other failure fails the test.
func (r *acctRig) step(rng *rand.Rand) (string, bool) {
	r.t.Helper()
	part := acctParts[rng.Intn(len(acctParts))].id
	ids := r.live[part]
	op := rng.Intn(10)
	if len(ids) == 0 {
		op = 0
	}
	var what string
	var err error
	switch {
	case op == 0:
		var id uint64
		id, err = r.s.Create(part)
		if err == nil {
			r.live[part] = append(r.live[part], id)
		}
		what = fmt.Sprintf("create %d", id)
	case op <= 4:
		id := ids[rng.Intn(len(ids))]
		off, n := randomWrite(rng)
		err = r.s.Write(part, id, off, fillBytes(byte(1+rng.Intn(255)), n))
		what = fmt.Sprintf("write %d [%d,+%d)", id, off, n)
	case op == 5:
		id := ids[rng.Intn(len(ids))]
		var pre uint64
		if rng.Intn(3) != 0 {
			pre = uint64(rng.Intn(acctMaxBlocks * acctBlockSize))
		}
		err = r.s.SetAttr(part, id, Attributes{Prealloc: pre}, SetPrealloc)
		what = fmt.Sprintf("prealloc %d = %d", id, pre)
	case op == 6:
		id := ids[rng.Intn(len(ids))]
		size := uint64(rng.Intn(acctMaxBlocks * acctBlockSize))
		err = r.s.SetAttr(part, id, Attributes{Size: size}, SetSize)
		what = fmt.Sprintf("truncate %d to %d", id, size)
	case op <= 8:
		// A version shares every block with its source; the overwrites
		// that follow unshare some of them from one side or the other.
		id := ids[rng.Intn(len(ids))]
		var v uint64
		v, err = r.s.VersionObject(part, id)
		what = fmt.Sprintf("version %d -> %d", id, v)
		if err != nil {
			break
		}
		r.live[part] = append(r.live[part], v)
		for i := 0; i < 3 && err == nil; i++ {
			target := id
			if rng.Intn(2) == 0 {
				target = v
			}
			off, n := randomWrite(rng)
			err = r.s.Write(part, target, off, fillBytes(byte(1+rng.Intn(255)), n))
			what += fmt.Sprintf(", write %d [%d,+%d)", target, off, n)
		}
	default:
		i := rng.Intn(len(ids))
		err = r.s.Remove(part, ids[i])
		what = fmt.Sprintf("remove %d", ids[i])
		if err == nil {
			r.live[part] = append(ids[:i:i], ids[i+1:]...)
		}
	}
	refused := errors.Is(err, ErrQuota)
	if err != nil && !refused {
		r.t.Fatalf("partition %d %s: %v", part, what, err)
	}
	return fmt.Sprintf("partition %d %s", part, what), refused
}

// TestQuotaAccountingExact runs a seeded mix of writes into every
// block-map region, capacity reservations, truncations, copy-on-write
// versions with overwrites of their shared blocks, and removes, and
// requires the settled usage to equal the walked charge after every
// step and across remounts.
func TestQuotaAccountingExact(t *testing.T) {
	const steps = 400
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			r := newAcctRig(t, 1<<15)
			refusals := 0
			for i := 0; i < steps; i++ {
				what, refused := r.step(rng)
				if refused {
					refusals++
				}
				r.check(fmt.Sprintf("step %d (%s)", i, what))
				if i == steps/2 {
					r.remount(fmt.Sprintf("step %d", i))
				}
			}
			r.remount("end")
			if refusals == 0 {
				t.Fatal("the quota never refused an operation; the admission path went untested")
			}
		})
	}
}

// TestQuotaAccountingExactOnPartialWrite fills a small volume with
// 16-block writes until they fail with ErrNoSpace. A write that runs
// out part-way keeps the blocks it mapped before the failure, and they
// stay charged, so usage still matches the walk.
func TestQuotaAccountingExactOnPartialWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := newAcctRig(t, 1200)
	failed, partial := 0, 0
	for i := 0; i < 400 && failed < 5; i++ {
		if len(r.live[1]) < 8 {
			id, err := r.s.Create(1)
			if err != nil {
				t.Fatal(err)
			}
			r.live[1] = append(r.live[1], id)
		}
		id := r.live[1][rng.Intn(len(r.live[1]))]
		off := uint64(rng.Intn(acctMaxBlocks-16)) * acctBlockSize
		before := r.used(1)
		if err := r.s.Write(1, id, off, fillBytes(7, 16*acctBlockSize)); err != nil {
			if !errors.Is(err, layout.ErrNoSpace) {
				t.Fatalf("write %d: %v", i, err)
			}
			failed++
			if r.used(1) > before {
				partial++
			}
		}
		r.check(fmt.Sprintf("write %d at %d", i, off))
	}
	if partial == 0 {
		t.Fatalf("no write failed part-way (%d failed outright); the partial-write path went untested", failed)
	}
	r.remount("end")
}
