package main

import (
	"bytes"
	"encoding/binary"
)

// blockBytes is the drive's block size and the stamping unit of every
// payload.
const blockBytes = 4096

// stampBytes is the per-block header that names a payload block: the
// payload key and the block's index within the payload.
const stampBytes = 16

// patterns derives every byte the benchmark writes from the seed. A
// payload is a window of a seeded base buffer chosen by the payload's
// key, with each 4 KiB block stamped with (key, block index), so a read
// that returns another payload, another block of the same payload, or
// stale bytes fails the check. Filling and checking are copies and
// compares, cheap next to the operations they verify.
type patterns struct {
	base []byte
}

// basePatternBytes is the size of the seeded base buffer; payloads are
// windows into it.
const basePatternBytes = 4 << 20

func newPatterns(seed int64) *patterns {
	p := &patterns{base: make([]byte, basePatternBytes+(1<<20))}
	s := uint64(seed)
	for i := 0; i+8 <= len(p.base); i += 8 {
		binary.LittleEndian.PutUint64(p.base[i:], splitmix(&s))
	}
	return p
}

// splitmix advances s and returns the next value of the SplitMix64
// sequence.
func splitmix(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// mix hashes the parts of a payload identity into one key.
func mix(parts ...uint64) uint64 {
	h := uint64(0x243f6a8885a308d3)
	for _, p := range parts {
		h ^= p
		h = splitmix(&h)
	}
	return h
}

func (p *patterns) window(key uint64, n int) []byte {
	off := int(key % uint64(basePatternBytes))
	return p.base[off : off+n]
}

// fill writes the payload named key into dst (len(dst) a multiple of the
// block size, at most 1 MiB).
func (p *patterns) fill(dst []byte, key uint64) {
	copy(dst, p.window(key, len(dst)))
	for b := 0; b*blockBytes < len(dst); b++ {
		stamp(dst[b*blockBytes:], key, uint64(b))
	}
}

func stamp(blk []byte, key, idx uint64) {
	binary.LittleEndian.PutUint64(blk[0:], key)
	binary.LittleEndian.PutUint64(blk[8:], idx)
}

// check reports whether got is exactly the payload named key, of
// length want.
func (p *patterns) check(got []byte, key uint64, want int) bool {
	return len(got) == want && p.checkAt(got, key, 0)
}

// checkAt reports whether got is the part of the payload named key
// that starts at off, a multiple of the block size.
func (p *patterns) checkAt(got []byte, key uint64, off int) bool {
	w := p.window(key, off+len(got))[off:]
	var hdr [stampBytes]byte
	for lo := 0; lo < len(got); lo += blockBytes {
		hi := min(lo+blockBytes, len(got))
		stamp(hdr[:], key, uint64((off+lo)/blockBytes))
		if hi-lo < stampBytes || !bytes.Equal(got[lo:lo+stampBytes], hdr[:]) || !bytes.Equal(got[lo+stampBytes:hi], w[lo+stampBytes:hi]) {
			return false
		}
	}
	return true
}
