package wire_test

import (
	"bytes"
	"io"
	"testing"

	"vcqr/internal/core"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/obs"
	"vcqr/internal/partition"
	"vcqr/internal/relation"
	"vcqr/internal/wire"
)

// allocChunk builds a realistic entries chunk: n covered records, each
// with a disclosed value, hidden leaves and chain digests — the shape
// the /stream path serializes thousands of times per large result.
func allocChunk(n int) *engine.Chunk {
	h := hashx.New()
	c := &engine.Chunk{Type: engine.ChunkEntries, Seq: 1, Entries: make([]engine.VOEntry, 0, n)}
	for i := 0; i < n; i++ {
		c.Entries = append(c.Entries, engine.VOEntry{
			Mode: engine.EntryResult,
			Key:  uint64(i + 1),
			HiddenLeaves: []hashx.Digest{
				h.Hash([]byte{byte(i)}),
				h.Hash([]byte{byte(i), 1}),
			},
		})
	}
	return c
}

// TestWriteChunkFrameAllocBudget pins the per-chunk allocation cost of
// the frame encoder: fields append into pooled scratch, so a steady
// stream encodes without garbage. The budget catches a regression that
// reintroduces a fresh buffer (or a per-field allocation) per frame.
func TestWriteChunkFrameAllocBudget(t *testing.T) {
	c := allocChunk(256)
	// Warm the pool.
	if err := wire.WriteChunkFrame(io.Discard, c); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := wire.WriteChunkFrame(io.Discard, c); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 4 // measured 0 on go1.24
	t.Logf("WriteChunkFrame(256 entries): %.0f allocs/chunk (budget %d)", allocs, budget)
	if allocs > budget {
		t.Fatalf("WriteChunkFrame allocates %.0f/chunk, budget %d", allocs, budget)
	}
}

// TestStreamFrameAllocBudget pins the decode side per chunk: one payload
// the byte fields alias, the chunk and its entry array, and a handful of
// slabs the per-entry lists are carved from. This is the wire cost of
// one /stream chunk minus the HTTP transport itself.
func TestStreamFrameAllocBudget(t *testing.T) {
	c := allocChunk(256)
	var buf bytes.Buffer
	if err := wire.WriteChunkFrame(&buf, c); err != nil {
		t.Fatal(err)
	}
	frame := append([]byte(nil), buf.Bytes()...)

	allocs := testing.AllocsPerRun(20, func() {
		if _, err := wire.ReadChunkFrame(bytes.NewReader(frame)); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 2*256 + 16 // measured 11 on go1.24
	t.Logf("ReadChunkFrame(256 entries): %.0f allocs/chunk (budget %d)", allocs, budget)
	if allocs > budget {
		t.Fatalf("ReadChunkFrame allocates %.0f/chunk, budget %d", allocs, budget)
	}
}

// nodeEdges builds hello seam material of realistic shape: six signed
// records, each with attributes, chain digests and a signature.
func nodeEdges() partition.Edges {
	h := hashx.New()
	var e partition.Edges
	rec := func(i int) core.SignedRecord {
		d := h.Hash([]byte{byte(i)})
		return core.SignedRecord{
			Kind:   core.KindRecord,
			Tuple:  relation.Tuple{Key: uint64(100 + i), RowID: uint64(i), Attrs: []relation.Value{relation.BytesVal(make([]byte, 32))}},
			UpRoot: d, DownRoot: d, UpCombined: d, DownCombined: d, AttrRoot: d, G: d,
			Sig: make([]byte, 128),
		}
	}
	for i := range e.Head {
		e.Head[i] = rec(i)
		e.Tail[i] = rec(3 + i)
	}
	return e
}

// TestNodeFrameAllocBudget pins the hello and foot frames of every shard
// sub-stream: encode without garbage, decode in a bounded handful.
func TestNodeFrameAllocBudget(t *testing.T) {
	h := hashx.New()
	frames := map[string]*wire.NodeFrame{
		"hello": {Hello: &wire.NodeHello{Shard: 1, Epoch: 7, Edges: nodeEdges(),
			Left: &core.BoundaryProof{Kind: core.KindRecord, AttrRoot: h.Hash([]byte("a"))}, Digest: h.Hash([]byte("d"))}},
		"foot": {Foot: &wire.NodeFoot{Entries: 64, Partial: make([]byte, 128),
			Timing: []obs.StageDur{{Stage: obs.StageSubStream, NS: 1}, {Stage: obs.StageVOAssemble, NS: 2}}}},
	}
	for name, f := range frames {
		var buf bytes.Buffer
		if err := wire.WriteNodeFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
		frame := append([]byte(nil), buf.Bytes()...)
		enc := testing.AllocsPerRun(20, func() {
			if err := wire.WriteNodeFrame(io.Discard, f); err != nil {
				t.Fatal(err)
			}
		})
		dec := testing.AllocsPerRun(20, func() {
			if _, err := wire.ReadNodeFrame(bytes.NewReader(frame)); err != nil {
				t.Fatal(err)
			}
		})
		const encBudget, decBudget = 4, 16 // measured 0 and <=8 on go1.24
		t.Logf("%s frame: %.0f allocs encode, %.0f decode", name, enc, dec)
		if enc > encBudget || dec > decBudget {
			t.Fatalf("%s frame allocates %.0f to encode (budget %d), %.0f to decode (budget %d)",
				name, enc, encBudget, dec, decBudget)
		}
	}
}

// TestFrameBufferPoolDropsOversize checks a pathologically large frame
// does not pin its buffer in the pool: a follow-up small write must not
// fail, and (indirectly) the pool stays bounded. Behavioural, not
// alloc-counted — pool retention is not observable directly.
func TestFrameBufferPoolDropsOversize(t *testing.T) {
	big := allocChunk(4096)
	for i := range big.Entries {
		// Inflate each entry so the encoded frame exceeds the pool bound.
		big.Entries[i].HiddenLeaves = append(big.Entries[i].HiddenLeaves, make([]byte, 512))
	}
	var buf bytes.Buffer
	if err := wire.WriteChunkFrame(&buf, big); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 1<<20 {
		t.Skipf("frame only %d bytes, does not exercise the oversize path", buf.Len())
	}
	for i := 0; i < 4; i++ {
		if err := wire.WriteChunkFrame(io.Discard, allocChunk(1)); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkWriteChunkFrame reports the steady-state frame encode cost;
// run with -benchmem to see the pooled-buffer effect.
func BenchmarkWriteChunkFrame(b *testing.B) {
	c := allocChunk(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := wire.WriteChunkFrame(io.Discard, c); err != nil {
			b.Fatal(err)
		}
	}
}
