package verify_test

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"vcqr/internal/engine"
	"vcqr/internal/relation"
	"vcqr/internal/verify"
)

// The stream verifier reconstructs each chunk's entry digests on up to
// GOMAXPROCS goroutines and then replays every ordered check on one. The
// tests below pin that the split is invisible: every stream, honest or
// tampered, gets the same rows and the same error text, naming the same
// entry, at GOMAXPROCS 1 and 4.

// outcome is everything a caller can observe from one verified stream.
type outcome struct {
	rows []engine.Row
	at   int // index of the chunk that failed, or len(chunks) for Finish
	err  error
}

func (o outcome) String() string {
	return fmt.Sprintf("%d rows, chunk %d: %v", len(o.rows), o.at, o.err)
}

// text is the error message a caller would see, "" on success.
func (o outcome) text() string {
	if o.err == nil {
		return ""
	}
	return o.err.Error()
}

// drain feeds chunks to a fresh verifier and records the outcome.
func drain(sv verify.ChunkVerifier, chunks []*engine.Chunk) outcome {
	var o outcome
	for i, c := range chunks {
		released, err := sv.Consume(c)
		if err != nil {
			o.at, o.err = i, err
			return o
		}
		o.rows = append(o.rows, released...)
	}
	o.at, o.err = len(chunks), sv.Finish()
	return o
}

// atProcs runs fn with GOMAXPROCS set to n.
func atProcs(n int, fn func() outcome) outcome {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	return fn()
}

// sameAtOneAndFour verifies chunks sequentially and in parallel and
// requires identical outcomes; it returns the shared outcome.
func sameAtOneAndFour(t *testing.T, newSV func() verify.ChunkVerifier, chunks []*engine.Chunk) outcome {
	t.Helper()
	seq := atProcs(1, func() outcome { return drain(newSV(), chunks) })
	par := atProcs(4, func() outcome { return drain(newSV(), chunks) })
	if seq.text() != par.text() || seq.at != par.at {
		t.Fatalf("GOMAXPROCS=1: %v\nGOMAXPROCS=4: %v", seq, par)
	}
	if !reflect.DeepEqual(seq.rows, par.rows) {
		t.Fatalf("accepted rows differ: %d at GOMAXPROCS=1, %d at 4", len(seq.rows), len(par.rows))
	}
	return seq
}

// tamper returns chunks with entry ei of chunk ci replaced by edit's
// result; the chunk and its entry slice are copied, never shared.
func tamper(chunks []*engine.Chunk, ci, ei int, edit func(e *engine.VOEntry)) []*engine.Chunk {
	out := append([]*engine.Chunk(nil), chunks...)
	c := *out[ci]
	c.Entries = append([]engine.VOEntry(nil), c.Entries...)
	edit(&c.Entries[ei])
	out[ci] = &c
	return out
}

// Entry corruptions that the per-entry reconstruction rejects.
func badMode(e *engine.VOEntry) { e.Mode = 99 }
func badColumn(e *engine.VOEntry) {
	e.Disclosed = append([]engine.DisclosedAttr(nil), e.Disclosed...)
	e.Disclosed[0].Col = 99
}
func mallory(e *engine.VOEntry) {
	e.Disclosed = append([]engine.DisclosedAttr(nil), e.Disclosed...)
	e.Disclosed[1] = engine.DisclosedAttr{Col: e.Disclosed[1].Col, Val: relation.StringVal("Mallory")}
}

// streamCases are the unpartitioned tamper scenarios, built over honest
// chunks of the given size.
func streamCases(chunks []*engine.Chunk) map[string][]*engine.Chunk {
	last := len(chunks) - 1
	swapped := tamper(chunks, 1, 0, func(*engine.VOEntry) {})
	swapped[1].Entries[0], swapped[1].Entries[1] = swapped[1].Entries[1], swapped[1].Entries[0]
	oversized := append([]*engine.Chunk(nil), chunks...)
	huge := *chunks[1]
	huge.Entries = make([]engine.VOEntry, engine.MaxChunkRows+1)
	oversized[1] = &huge
	cases := map[string][]*engine.Chunk{
		"honest":       chunks,
		"mutated":      tamper(chunks, last-1, 0, mallory),
		"dropped":      append(append([]*engine.Chunk(nil), chunks[:1]...), chunks[2:]...),
		"truncated":    chunks[:last],
		"swapped":      swapped,
		"oversized":    oversized,
		"malformed":    tamper(chunks, 1, len(chunks[1].Entries)-1, badMode),
		"after-footer": append(append([]*engine.Chunk(nil), chunks...), chunks[1]),
	}
	if last-1 > 1 { // two entries chunks or more
		reordered := append([]*engine.Chunk(nil), chunks...)
		reordered[1], reordered[last-1] = reordered[last-1], reordered[1]
		cases["reordered"] = reordered
	}
	return cases
}

// TestStreamTamperSameAtAnyParallelism runs every unpartitioned tamper
// scenario, in both signature modes and at chunk sizes below and above
// the parallel threshold, at GOMAXPROCS 1 and 4.
func TestStreamTamperSameAtAnyParallelism(t *testing.T) {
	f := newVFix(t)
	defer func() { f.pub.Aggregate = true }()
	q := engine.Query{Relation: "Emp", KeyLo: 1}
	newSV := func() verify.ChunkVerifier { return f.v.NewStreamVerifier(q, f.role) }
	for _, aggregate := range []bool{true, false} {
		f.pub.Aggregate = aggregate
		res := f.query(t, q)
		for _, size := range []int{7, 16, 30} {
			for name, chunks := range streamCases(engine.ChunkResult(res, size)) {
				t.Run(fmt.Sprintf("agg=%v/rows=%d/%s", aggregate, size, name), func(t *testing.T) {
					o := sameAtOneAndFour(t, newSV, chunks)
					if (name == "honest") != (o.err == nil) {
						t.Fatalf("%s stream: %v", name, o)
					}
				})
			}
		}
	}
}

// TestShardTamperSameAtAnyParallelism does the same for the fan-out
// tamper scenarios over a partitioned publication.
func TestShardTamperSameAtAnyParallelism(t *testing.T) {
	f := newShardFix(t, 96, 4)
	newSV := func() verify.ChunkVerifier {
		sv, err := f.v.NewShardStreamVerifier(f.set.Spec, f.q, f.role)
		if err != nil {
			t.Fatal(err)
		}
		return sv
	}
	interior, last := f.set.Spec.K()/2, f.set.Spec.K()-1
	for _, size := range []int{8, 64} {
		cases := map[string]func() []*engine.Chunk{
			"honest":        func() []*engine.Chunk { return f.chunks(t, size) },
			"drop-interior": func() []*engine.Chunk { return dropShard(f.chunks(t, size), interior) },
			"drop-interior-renumbered": func() []*engine.Chunk {
				return renumber(dropShard(f.chunks(t, size), interior))
			},
			"drop-trailing": func() []*engine.Chunk { return renumber(dropShard(f.chunks(t, size), last)) },
			"reordered": func() []*engine.Chunk {
				chunks := f.chunks(t, size)
				a, b := -1, -1
				for i, c := range chunks {
					if c.Type == engine.ChunkEntries && c.Shard == 1 && a < 0 {
						a = i
					}
					if c.Type == engine.ChunkEntries && c.Shard == 2 && b < 0 {
						b = i
					}
				}
				chunks[a], chunks[b] = chunks[b], chunks[a]
				return renumber(chunks)
			},
			"retagged": func() []*engine.Chunk {
				chunks := f.chunks(t, size)
				for _, c := range chunks {
					if c.Type == engine.ChunkEntries && c.Shard == 2 {
						c.Shard = 1
						break
					}
				}
				return chunks
			},
			"truncated": func() []*engine.Chunk {
				chunks := f.chunks(t, size)
				return chunks[:len(chunks)-1]
			},
			"lying-footer": func() []*engine.Chunk {
				chunks := f.chunks(t, size)
				chunks[len(chunks)-1].ShardFeet[1].Entries++
				return chunks
			},
			"missing-footer-accounting": func() []*engine.Chunk {
				chunks := f.chunks(t, size)
				chunks[len(chunks)-1].ShardFeet = nil
				return chunks
			},
			"malformed": func() []*engine.Chunk {
				chunks := f.chunks(t, size)
				return tamper(chunks, 1, len(chunks[1].Entries)-1, badColumn)
			},
		}
		for name, build := range cases {
			t.Run(fmt.Sprintf("rows=%d/%s", size, name), func(t *testing.T) {
				o := sameAtOneAndFour(t, newSV, build())
				if (name == "honest") != (o.err == nil) {
					t.Fatalf("%s stream: %v", name, o)
				}
			})
		}
	}
}

// TestLowestBadEntryReported: a chunk with two bad entries, in different
// phase-1 blocks, reports the lower one, whichever worker finished
// first — and an ordered check (key order) failing below a
// reconstruction failure still wins, as it does sequentially.
func TestLowestBadEntryReported(t *testing.T) {
	f := newVFix(t)
	q := engine.Query{Relation: "Emp", KeyLo: 1}
	newSV := func() verify.ChunkVerifier { return f.v.NewStreamVerifier(q, f.role) }
	chunks := engine.ChunkResult(f.query(t, q), 30) // one 30-entry chunk
	if n := len(chunks[1].Entries); n != 30 {
		t.Fatalf("fixture chunk has %d entries, want 30", n)
	}

	two := tamper(tamper(chunks, 1, 25, badMode), 1, 5, badColumn)
	o := sameAtOneAndFour(t, newSV, two)
	if !errors.Is(o.err, verify.ErrEntry) || !strings.HasPrefix(o.text(), "entry 5: ") || !strings.Contains(o.text(), "disclosed column 99") {
		t.Fatalf("two bad entries: %v, want entry 5's disclosure error", o)
	}

	order := tamper(two, 1, 3, func(*engine.VOEntry) {})
	order[1].Entries[3], order[1].Entries[4] = order[1].Entries[4], order[1].Entries[3]
	o = sameAtOneAndFour(t, newSV, order)
	if !errors.Is(o.err, verify.ErrKeyOrder) || !strings.HasSuffix(o.text(), "entry 4") {
		t.Fatalf("key order below bad entries: %v, want ErrKeyOrder at entry 4", o)
	}
}

// TestBadSignatureBeforeMalformedEntry: in individual-signature mode a
// bad signature on entry 3 is reported ahead of a malformed entry 20,
// exactly as a one-entry-at-a-time verifier reports it.
func TestBadSignatureBeforeMalformedEntry(t *testing.T) {
	f := newVFix(t)
	f.pub.Aggregate = false
	defer func() { f.pub.Aggregate = true }()
	q := engine.Query{Relation: "Emp", KeyLo: 1}
	newSV := func() verify.ChunkVerifier { return f.v.NewStreamVerifier(q, f.role) }
	chunks := tamper(engine.ChunkResult(f.query(t, q), 30), 1, 20, badMode)
	c := *chunks[1]
	c.Sigs = append(c.Sigs[:0:0], c.Sigs...)
	c.Sigs[3] = append(c.Sigs[3][:0:0], c.Sigs[3]...)
	c.Sigs[3][len(c.Sigs[3])-1] ^= 1
	chunks[1] = &c

	o := sameAtOneAndFour(t, newSV, chunks)
	if !errors.Is(o.err, verify.ErrSignature) || !strings.HasSuffix(o.text(), "entry 3") {
		t.Fatalf("bad signature before malformed entry: %v, want ErrSignature at entry 3", o)
	}
}
