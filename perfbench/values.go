package main

import (
	"bytes"
	"math/rand"

	"cliffhanger/internal/protocol"
	"cliffhanger/internal/trace"
	"cliffhanger/internal/workload"
)

// Every stored value is cut from pad at an offset derived from its key and
// length, so a value encodes both: a GET hit is checked by recomputing the
// slice, and a value stored under another key, truncated or corrupted does
// not match.
const padOffsets = 1 << 20

var pad = func() []byte {
	b := make([]byte, padOffsets+protocol.MaxValueLength)
	rand.New(rand.NewSource(0x5eed)).Read(b)
	return b
}()

func valueFor(key string, n int) []byte {
	h := uint64(14695981039346656037) // FNV-1a
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	h ^= uint64(n) * 0x9e3779b97f4a7c15
	h ^= h >> 31
	off := int(h % padOffsets)
	return pad[off : off+n]
}

// requestValue is the value a SET or read-through fill of r stores, sized by
// the replayers' shared rule (workload.PadValue) so the daemon charges the
// trace's item size.
func requestValue(r trace.Request) []byte {
	return valueFor(r.Key, len(workload.PadValue(pad[:protocol.MaxValueLength], r)))
}

// valueOK reports whether v is a value the generator stores under key.
func valueOK(key string, v []byte) bool { return bytes.Equal(v, valueFor(key, len(v))) }
