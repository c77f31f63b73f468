package needle

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"nasd/internal/blockdev"
	"nasd/internal/telemetry"
)

// The engine is tested against a minimal in-memory substrate: a bump
// allocator over a MemDisk, a map-backed metadata store, and a
// saturating quota ledger. That keeps these tests about the log engine
// itself — the object-layer integration is covered in internal/object.

type testSpace struct {
	mu   sync.Mutex
	next int64
	max  int64
	free []int64
}

func (s *testSpace) AllocBlocks(n int) ([]int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int64, 0, n)
	for len(s.free) > 0 && len(out) < n {
		out = append(out, s.free[len(s.free)-1])
		s.free = s.free[:len(s.free)-1]
	}
	for len(out) < n {
		if s.next >= s.max {
			return nil, fmt.Errorf("testSpace: out of blocks")
		}
		out = append(out, s.next)
		s.next++
	}
	return out, nil
}

func (s *testSpace) FreeBlock(blk int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.free = append(s.free, blk)
	return nil
}

type testMeta struct {
	mu   sync.Mutex
	segs map[uint16][]byte
	idx  map[uint16][]byte
}

func newTestMeta() *testMeta {
	return &testMeta{segs: make(map[uint16][]byte), idx: make(map[uint16][]byte)}
}

func (m *testMeta) LoadSegments(part uint16) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]byte(nil), m.segs[part]...), nil
}

func (m *testMeta) SaveSegments(part uint16, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.segs[part] = append([]byte(nil), data...)
	return nil
}

func (m *testMeta) LoadIndex(part uint16) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]byte(nil), m.idx[part]...), nil
}

func (m *testMeta) SaveIndex(part uint16, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.idx[part] = append([]byte(nil), data...)
	return nil
}

type testQuota struct {
	mu   sync.Mutex
	used int64
}

func (q *testQuota) ChargeBlocks(part uint16, delta int64) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.used += delta
	return nil
}

func (q *testQuota) SettleBlocks(part uint16, delta int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.used += delta
}

func (q *testQuota) Used() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.used
}

type testRig struct {
	dev   blockdev.Device
	meta  *testMeta
	quota *testQuota
	reg   *telemetry.Registry
}

func newRig(t *testing.T) *testRig {
	t.Helper()
	return &testRig{
		dev:   blockdev.NewMemDisk(512, 4096),
		meta:  newTestMeta(),
		quota: &testQuota{},
		reg:   telemetry.NewRegistry(),
	}
}

// engine builds a fresh Engine over the rig's (persistent) substrate —
// calling it twice models a restart.
func (r *testRig) engine() *Engine {
	return New(Config{
		Dev:           r.dev,
		Space:         &testSpace{next: 0, max: 4096},
		Meta:          r.meta,
		Quota:         r.quota,
		Metrics:       r.reg,
		SegmentBlocks: 8, // 4 KiB segments: rolls and compaction happen fast
	})
}

// engineAfterRestart gives a restarted engine an allocator that does
// not re-hand-out blocks the previous incarnation placed segments in.
func (r *testRig) engineAfterRestart(highWater int64) *Engine {
	return New(Config{
		Dev:           r.dev,
		Space:         &testSpace{next: highWater, max: 4096},
		Meta:          r.meta,
		Quota:         r.quota,
		Metrics:       r.reg,
		SegmentBlocks: 8,
	})
}

const tpart = 1

func pay(obj uint64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(obj*31 + uint64(i)*7)
	}
	return b
}

func TestCRUD(t *testing.T) {
	r := newRig(t)
	e := r.engine()
	if err := e.CreateLog(tpart); err != nil {
		t.Fatal(err)
	}
	// Create + write + read back.
	for obj := uint64(16); obj < 48; obj++ {
		if err := e.Create(tpart, obj, 100); err != nil {
			t.Fatal(err)
		}
		if err := e.Write(tpart, obj, 0, pay(obj, 200), 101); err != nil {
			t.Fatal(err)
		}
	}
	for obj := uint64(16); obj < 48; obj++ {
		got, err := e.Read(tpart, obj, 0, 200)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pay(obj, 200)) {
			t.Fatalf("object %d: payload mismatch", obj)
		}
		info, err := e.GetInfo(tpart, obj)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size != 200 || info.Version != 1 || info.CreateSec != 100 || info.ModSec != 101 {
			t.Fatalf("object %d: bad info %+v", obj, info)
		}
	}
	// Partial read and overlapping partial write (read-modify-write).
	got, err := e.Read(tpart, 16, 50, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pay(16, 200)[50:150]) {
		t.Fatal("partial read mismatch")
	}
	patch := bytes.Repeat([]byte{0xEE}, 60)
	if err := e.Write(tpart, 16, 170, patch, 102); err != nil {
		t.Fatal(err)
	}
	want := append(pay(16, 200)[:170], patch...)
	got, err = e.Read(tpart, 16, 0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read-modify-write mismatch")
	}
	// Attribute update via Update.
	if err := e.Update(tpart, 16, func(i *Info) error {
		i.Version = 9
		i.Size = 100 // truncate
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	info, err := e.GetInfo(tpart, 16)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 9 || info.Size != 100 {
		t.Fatalf("update not applied: %+v", info)
	}
	got, _ = e.Read(tpart, 16, 0, 1024)
	if !bytes.Equal(got, want[:100]) {
		t.Fatal("truncated payload mismatch")
	}
	// Remove, and the errors for absent objects.
	if err := e.Remove(tpart, 17); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Read(tpart, 17, 0, 10); err != ErrNotFound {
		t.Fatalf("read after remove: %v", err)
	}
	if err := e.Remove(tpart, 17); err != ErrNotFound {
		t.Fatalf("double remove: %v", err)
	}
	if err := e.Create(tpart, 18, 0); err != ErrExists {
		t.Fatalf("duplicate create: %v", err)
	}
	ids, err := e.List(tpart)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 31 {
		t.Fatalf("list: got %d objects, want 31", len(ids))
	}
}

// TestRecovery exercises kill-and-restart index rebuilds three ways:
// with the snapshot, with records appended after the snapshot (scan
// forward), and with no snapshot at all (full log scan).
func TestRecovery(t *testing.T) {
	r := newRig(t)
	e := r.engine()
	if err := e.CreateLog(tpart); err != nil {
		t.Fatal(err)
	}
	for obj := uint64(16); obj < 40; obj++ {
		if err := e.Create(tpart, obj, 10); err != nil {
			t.Fatal(err)
		}
		if err := e.Write(tpart, obj, 0, pay(obj, 300), 11); err != nil {
			t.Fatal(err)
		}
	}
	// Mutations the snapshot will capture: an overwrite and a removal.
	if err := e.Write(tpart, 20, 0, pay(99, 150), 12); err != nil {
		t.Fatal(err)
	}
	if err := e.Remove(tpart, 21); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot mutations, then sync the tail the way a healthy
	// shutdown would — but WITHOUT refreshing the snapshot, so recovery
	// must scan forward past it.
	if err := e.Write(tpart, 22, 0, pay(77, 500), 13); err != nil {
		t.Fatal(err)
	}
	if err := e.Remove(tpart, 23); err != nil {
		t.Fatal(err)
	}
	snap, err := r.meta.LoadIndex(tpart)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil { // durable tail
		t.Fatal(err)
	}
	if err := r.meta.SaveIndex(tpart, snap); err != nil { // stale snapshot back
		t.Fatal(err)
	}

	check := func(t *testing.T, e2 *Engine, st Stats) {
		t.Helper()
		if st.Objects != 22 { // 24 created - 2 removed
			t.Fatalf("recovered %d objects, want 22", st.Objects)
		}
		if st.MaxObjectID != 39 {
			t.Fatalf("max object id = %d, want 39", st.MaxObjectID)
		}
		for _, obj := range []uint64{21, 23} {
			if _, err := e2.GetInfo(tpart, obj); err != ErrNotFound {
				t.Fatalf("removed object %d resurrected: %v", obj, err)
			}
		}
		for obj := uint64(16); obj < 40; obj++ {
			if obj == 21 || obj == 23 {
				continue
			}
			want := pay(obj, 300)
			switch obj {
			case 20: // short overwrite patches in place, no truncation
				want = append(pay(99, 150), pay(obj, 300)[150:]...)
			case 22: // full overwrite grows the object
				want = pay(77, 500)
			}
			got, err := e2.Read(tpart, obj, 0, 1024)
			if err != nil {
				t.Fatalf("object %d: %v", obj, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("object %d: payload mismatch after recovery", obj)
			}
		}
	}

	t.Run("stale-snapshot", func(t *testing.T) {
		e2 := r.engineAfterRestart(4096)
		st, err := e2.OpenLog(tpart)
		if err != nil {
			t.Fatal(err)
		}
		check(t, e2, st)
	})
	t.Run("no-snapshot", func(t *testing.T) {
		if err := r.meta.SaveIndex(tpart, nil); err != nil {
			t.Fatal(err)
		}
		e2 := r.engineAfterRestart(4096)
		st, err := e2.OpenLog(tpart)
		if err != nil {
			t.Fatal(err)
		}
		check(t, e2, st)
	})
	t.Run("fresh-snapshot", func(t *testing.T) {
		e2 := r.engineAfterRestart(4096)
		if _, err := e2.OpenLog(tpart); err != nil {
			t.Fatal(err)
		}
		if err := e2.Flush(); err != nil {
			t.Fatal(err)
		}
		e3 := r.engineAfterRestart(4096)
		st, err := e3.OpenLog(tpart)
		if err != nil {
			t.Fatal(err)
		}
		check(t, e3, st)
	})
}

// TestCompaction drives overwrites until sealed segments cross the
// dead-byte threshold and verifies the invariants: space is reclaimed
// (quota settles down), every live object still reads back intact, and
// a post-compaction restart (including a full-scan one) agrees.
func TestCompaction(t *testing.T) {
	r := newRig(t)
	e := r.engine()
	if err := e.CreateLog(tpart); err != nil {
		t.Fatal(err)
	}
	const objects = 8
	for obj := uint64(16); obj < 16+objects; obj++ {
		if err := e.Create(tpart, obj, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite round-robin: each write supersedes the previous record,
	// turning old segments almost entirely dead.
	gen := make(map[uint64]int)
	for i := 0; i < 400; i++ {
		obj := uint64(16 + i%objects)
		gen[obj] = i
		if err := e.Write(tpart, obj, 0, pay(uint64(i), 180), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// One object is removed; its tombstone must survive compaction.
	if err := e.Remove(tpart, 16); err != nil {
		t.Fatal(err)
	}

	// Compaction is asynchronous; wait for it to settle.
	deadline := time.Now().Add(5 * time.Second)
	var compactions uint64
	for time.Now().Before(deadline) {
		compactions = r.reg.Counter("needle.compactions").Load()
		if compactions > 0 && r.quota.Used() < 5*8 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if compactions == 0 {
		t.Fatal("no compactions ran")
	}
	// ~400 overwrites x ~284 wire bytes is ~28 segments of history;
	// live data is 8 objects (~2 segments). Compaction must have
	// reclaimed the difference.
	if used := r.quota.Used(); used >= 10*8 {
		t.Fatalf("quota still charges %d blocks after compaction", used)
	}
	for obj := uint64(17); obj < 16+objects; obj++ {
		got, err := e.Read(tpart, obj, 0, 1024)
		if err != nil {
			t.Fatalf("object %d: %v", obj, err)
		}
		if !bytes.Equal(got, pay(uint64(gen[obj]), 180)) {
			t.Fatalf("object %d: payload mismatch after compaction", obj)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}

	// Restart twice: once from the snapshot, once via full scan. The
	// scan path proves compaction kept tombstones and preserved LSN
	// ordering (copied records must not beat newer writes).
	for _, wipe := range []bool{false, true} {
		if wipe {
			if err := r.meta.SaveIndex(tpart, nil); err != nil {
				t.Fatal(err)
			}
		}
		e2 := r.engineAfterRestart(4096)
		st, err := e2.OpenLog(tpart)
		if err != nil {
			t.Fatalf("wipe=%v: %v", wipe, err)
		}
		if st.Objects != objects-1 {
			t.Fatalf("wipe=%v: recovered %d objects, want %d", wipe, st.Objects, objects-1)
		}
		if _, err := e2.GetInfo(tpart, 16); err != ErrNotFound {
			t.Fatalf("wipe=%v: removed object resurrected: %v", wipe, err)
		}
		for obj := uint64(17); obj < 16+objects; obj++ {
			got, err := e2.Read(tpart, obj, 0, 1024)
			if err != nil {
				t.Fatalf("wipe=%v object %d: %v", wipe, obj, err)
			}
			if !bytes.Equal(got, pay(uint64(gen[obj]), 180)) {
				t.Fatalf("wipe=%v object %d: payload mismatch", wipe, obj)
			}
		}
	}
}

// TestCompactionSurvivesCrash is the regression test for compaction's
// flush barrier. A cold object's only durable record sits in a segment
// that compaction copies forward and drops; on a device with a volatile
// write cache, the segment table must not lose that segment before the
// copy is on stable storage, or a power cut loses a flushed object.
func TestCompactionSurvivesCrash(t *testing.T) {
	r := newRig(t)
	inner := r.dev
	disk := blockdev.NewCrashDisk(inner, 1)
	r.dev = disk
	e := r.engine()
	if err := e.CreateLog(tpart); err != nil {
		t.Fatal(err)
	}
	const cold, hot = 16, 8
	for obj := uint64(cold); obj <= cold+hot; obj++ {
		if err := e.Create(tpart, obj, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Write(tpart, cold, 0, pay(cold, 300), 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	l, err := e.getLog(tpart)
	if err != nil {
		t.Fatal(err)
	}
	coldSeg := func() *segment {
		l.mu.RLock()
		defer l.mu.RUnlock()
		return l.index[cold].seg
	}
	first := coldSeg()
	// Overwrite the hot objects until the compactor has moved the cold
	// record out of its original segment. Nothing flushes the device in
	// between, so only compaction's own barrier can make the copy durable.
	for i := 0; coldSeg() == first; i++ {
		if i == 4000 {
			t.Fatal("the cold object's segment was never compacted")
		}
		obj := uint64(cold + 1 + i%hot)
		if err := e.Write(tpart, obj, 0, pay(uint64(i), 180), int64(i)); err != nil {
			t.Fatal(err)
		}
		if i%64 == 63 {
			time.Sleep(time.Millisecond) // let the compactor run
		}
	}
	disk.Crash()

	r.dev = inner
	e2 := r.engineAfterRestart(4096)
	if _, err := e2.OpenLog(tpart); err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	got, err := e2.Read(tpart, cold, 0, 1024)
	if err != nil {
		t.Fatalf("flushed cold object lost across compaction + crash: %v", err)
	}
	if !bytes.Equal(got, pay(cold, 300)) {
		t.Fatal("flushed cold object corrupted across compaction + crash")
	}
}

// TestConcurrentReadersAndWriters runs readers against a writer and the
// background compactor — the -race harness for the log's locking.
func TestConcurrentReadersAndWriters(t *testing.T) {
	r := newRig(t)
	e := r.engine()
	if err := e.CreateLog(tpart); err != nil {
		t.Fatal(err)
	}
	const objects = 4
	for obj := uint64(16); obj < 16+objects; obj++ {
		if err := e.Create(tpart, obj, 1); err != nil {
			t.Fatal(err)
		}
		if err := e.Write(tpart, obj, 0, pay(obj, 128), 1); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				obj := uint64(16 + (g+i)%objects)
				if _, err := e.GetInfo(tpart, obj); err != nil {
					t.Errorf("getinfo %d: %v", obj, err)
					return
				}
				if _, err := e.Read(tpart, obj, 0, 256); err != nil {
					t.Errorf("read %d: %v", obj, err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 300; i++ {
		obj := uint64(16 + i%objects)
		if err := e.Write(tpart, obj, 0, pay(uint64(i), 128), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
}
