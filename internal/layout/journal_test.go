package layout

import (
	"testing"

	"nasd/internal/blockdev"
)

// lostWritesDev models a crash that loses the in-place writes to blocks
// [lo, hi): they are acknowledged but never reach the media, and the
// first Flush after one is lost fails, so nothing issued afterwards
// persists either. Journal writes outside the range land normally.
type lostWritesDev struct {
	blockdev.Device
	lo, hi  int64
	lost    bool
	crashed bool
}

func (d *lostWritesDev) WriteBlock(i int64, data []byte) error {
	if d.crashed {
		return blockdev.ErrFailed
	}
	if i >= d.lo && i < d.hi {
		d.lost = true
		return nil
	}
	return d.Device.WriteBlock(i, data)
}

func (d *lostWritesDev) Flush() error {
	if d.crashed || d.lost {
		d.crashed = true
		return blockdev.ErrFailed
	}
	return d.Device.Flush()
}

// TestJournalReplaysLostOnodeWrite: WriteOnode commits the onode image
// before its in-place write, so a crash that loses that write is
// repaired when Open replays the journal.
func TestJournalReplaysLostOnodeWrite(t *testing.T) {
	mem := blockdev.NewMemDisk(4096, 1024)
	dev := &lostWritesDev{Device: mem}
	s, err := Format(dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sb := s.Superblock()
	dev.lo, dev.hi = sb.OnodeStart, sb.OnodeStart+sb.OnodeBlocks

	idx, err := s.AllocOnode()
	if err != nil {
		t.Fatal(err)
	}
	o := Onode{ObjectID: 42, Partition: 3, Size: 777}
	if err := s.WriteOnode(idx, &o); err != nil {
		t.Fatal(err)
	}
	if !dev.lost {
		t.Fatal("onode write reached the media; the test exercises nothing")
	}

	s2, err := Open(mem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.FindOnode(42)
	if !ok || got != idx {
		t.Fatalf("replayed onode not indexed: slot %d, found %v", got, ok)
	}
	o2, err := s2.ReadOnode(idx)
	if err != nil {
		t.Fatal(err)
	}
	if o2.Partition != 3 || o2.Size != 777 {
		t.Fatalf("replayed onode = %+v", o2)
	}
}

// TestJournalReplaysLostRefcountWrite: Sync commits the refcount batch
// before rewriting the refcount region, so a crash after the commit
// that loses the region write is repaired when Open replays the
// journal.
func TestJournalReplaysLostRefcountWrite(t *testing.T) {
	mem := blockdev.NewMemDisk(4096, 1024)
	dev := &lostWritesDev{Device: mem}
	s, err := Format(dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sb := s.Superblock()
	blks, err := s.Alloc(3, sb.DataStart)
	if err != nil {
		t.Fatal(err)
	}
	free := s.FreeBlocks()
	dev.lo, dev.hi = sb.RefStart, sb.RefStart+sb.RefBlocks
	if err := s.Sync(); err == nil {
		t.Fatal("sync survived the crash")
	}

	s2, err := Open(mem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blks {
		if r := s2.RefCount(b); r != 1 {
			t.Fatalf("block %d refcount = %d after replay, want 1", b, r)
		}
	}
	if got := s2.FreeBlocks(); got != free {
		t.Fatalf("free blocks = %d after replay, want %d", got, free)
	}
}
