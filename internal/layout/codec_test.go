package layout

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: onode encode/decode is a bijection over the full field
// space (the on-disk format loses nothing).
func TestOnodeCodecRoundTripProperty(t *testing.T) {
	f := func(objID uint64, part, flags uint16, ver, size, prealloc, cluster uint64,
		cSec, mSec, aSec int64, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		o := Onode{
			ObjectID: objID, Partition: part, Flags: flags, Version: ver,
			Size: size, CreateSec: cSec, ModSec: mSec, AttrModSec: aSec,
			Prealloc: prealloc, Cluster: cluster,
		}
		rng.Read(o.Uninterp[:])
		for i := range o.Direct {
			o.Direct[i] = rng.Int63()
		}
		o.Indirect = rng.Int63()
		o.Indirect2 = rng.Int63()

		buf := make([]byte, OnodeSize)
		encodeOnode(buf, &o)
		got := decodeOnode(buf)
		return got == o
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: superblock encode/decode is a bijection.
func TestSuperblockCodecRoundTripProperty(t *testing.T) {
	f := func(bs uint32, total, refStart, refBlocks, oStart, oBlocks, dataStart, oCount int64, next uint64, jStart, jBlocks int64) bool {
		sb := Superblock{
			Magic: Magic, Version: FormatVersion, BlockSize: bs,
			TotalBlocks: total, RefStart: refStart, RefBlocks: refBlocks,
			OnodeStart: oStart, OnodeBlocks: oBlocks, DataStart: dataStart,
			OnodeCount: oCount, NextObjectID: next,
			JournalStart: jStart, JournalBlocks: jBlocks,
		}
		buf := make([]byte, 4096)
		encodeSuperblock(buf, &sb)
		got, err := decodeSuperblock(buf)
		return err == nil && got == sb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeSuperblockRejectsBadMagicAndVersion(t *testing.T) {
	buf := make([]byte, 4096)
	sb := Superblock{Magic: Magic, Version: FormatVersion, BlockSize: 4096}
	encodeSuperblock(buf, &sb)
	buf[0] ^= 1
	if _, err := decodeSuperblock(buf); err == nil {
		t.Fatal("bad magic accepted")
	}
	for _, v := range []byte{1, 99} { // pre-journal, future
		encodeSuperblock(buf, &sb)
		buf[4] = v
		if _, err := decodeSuperblock(buf); err == nil {
			t.Fatalf("version %d accepted", v)
		}
	}
	encodeSuperblock(buf, &sb)
	if _, err := decodeSuperblock(buf[:10]); err == nil {
		t.Fatal("short superblock accepted")
	}
}
