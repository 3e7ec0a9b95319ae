package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"vcqr/internal/core"
	"vcqr/internal/delta"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/relation"
	"vcqr/internal/sig"
	datagen "vcqr/internal/workload"
)

// keyRange is one read: an inclusive key range and how many rows it
// must return.
type keyRange struct {
	Lo, Hi uint64
	Rows   int
	// First is the index of the range's first record in key order.
	First int
}

// inputs is everything a run generates from its seed before timing:
// the relation, the read ranges and each reader's draw sequence.
type inputs struct {
	rel    *relation.Relation
	keys   []uint64 // record keys in key order
	ranges []keyRange
	draws  [][]int // per reader: indices into ranges, consumed cyclically
}

// freshDraws bounds the uniform-offset reads pre-generated per reader;
// readers cycle through them if a run outlasts the list.
const freshDraws = 1 << 13

func genInputs(w workload, p params, seed int64) (*inputs, error) {
	rel, err := datagen.Uniform(datagen.UniformConfig{
		N: p.Records, L: 0, U: 1 << 32, PayloadSize: p.Payload, Seed: seed})
	if err != nil {
		return nil, err
	}
	in := &inputs{rel: rel, keys: make([]uint64, len(rel.Tuples))}
	for i, t := range rel.Tuples {
		in.keys[i] = t.Key
	}
	sort.Slice(in.keys, func(i, j int) bool { return in.keys[i] < in.keys[j] })
	if w.RangeRows > len(in.keys) {
		return nil, fmt.Errorf("range of %d rows over %d records", w.RangeRows, len(in.keys))
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	n := w.Pool
	if n == 0 {
		n = freshDraws * w.Readers
	}
	for i := 0; i < n; i++ {
		in.ranges = append(in.ranges, in.rangeAt(rng.Intn(len(in.keys)-w.RangeRows+1), w.RangeRows))
	}
	for r := 0; r < w.Readers; r++ {
		rr := rand.New(rand.NewSource(seed + int64(r)*7919))
		draws := make([]int, freshDraws)
		var z *rand.Zipf
		if w.Zipf > 1 {
			z = rand.NewZipf(rr, w.Zipf, 1, uint64(w.Pool-1))
		}
		for i := range draws {
			switch {
			case w.Pool == 0:
				draws[i] = r*freshDraws + i
			case z != nil:
				draws[i] = int(z.Uint64())
			default:
				draws[i] = rr.Intn(w.Pool)
			}
		}
		in.draws = append(in.draws, draws)
	}
	return in, nil
}

// rangeAt is the range over rows first..first+rows-1 in key order; a
// duplicate key at either end widens the expected row count.
func (in *inputs) rangeAt(first, rows int) keyRange {
	lo, hi := in.keys[first], in.keys[first+rows-1]
	a := sort.Search(len(in.keys), func(i int) bool { return in.keys[i] >= lo })
	b := sort.Search(len(in.keys), func(i int) bool { return in.keys[i] > hi })
	return keyRange{Lo: lo, Hi: hi, Rows: b - a, First: a}
}

func (r keyRange) query(rel string) engine.Query {
	return engine.Query{Relation: rel, KeyLo: r.Lo, KeyHi: r.Hi}
}

// plannedDelta is one owner update, signed before timing: a single
// record's payload replaced, which re-signs it and its two neighbours.
type plannedDelta struct {
	D   delta.Delta
	Key uint64 // the updated record's key
	Seq uint64 // 1-based; encoded in the new payload
	// Sign is the owner's time to produce the update (UpdateAttrs).
	Sign time.Duration
}

// payloadMagic prefixes every payload a delta writes, followed by the
// delta's sequence number, so a read can tell which write it shows.
var payloadMagic = []byte{0, 'p', 'f', 'b', 'D'}

// seqOf returns the delta sequence number a payload carries, or 0 for
// an original payload.
func seqOf(v relation.Value) uint64 {
	b := v.Bytes
	if len(b) < len(payloadMagic)+8 || !bytes.HasPrefix(b, payloadMagic) {
		return 0
	}
	return binary.BigEndian.Uint64(b[len(payloadMagic):])
}

// victimPool lists the record positions (1-based, in the signed
// relation's Recs) deltas may update: the rows the read pool covers for
// hot writes, every record otherwise. Records sharing a key with a
// neighbour are skipped — rows carry only the key, and the freshness
// check must attribute a row to exactly one record.
func victimPool(w workload, in *inputs) []int {
	unique := func(i int) bool {
		return (i == 0 || in.keys[i-1] != in.keys[i]) && (i == len(in.keys)-1 || in.keys[i+1] != in.keys[i])
	}
	var out []int
	if w.HotWrites {
		seen := map[int]bool{}
		for _, r := range in.ranges {
			for i := r.First; i < r.First+r.Rows; i++ {
				if !seen[i] && unique(i) {
					seen[i] = true
					out = append(out, i+1)
				}
			}
		}
		sort.Ints(out)
		return out
	}
	for i := range in.keys {
		if unique(i) {
			out = append(out, i+1)
		}
	}
	return out
}

// genDeltas signs count single-record updates against master, the
// owner's working copy, in order. Each delta is built from the three
// records UpdateAttrs re-signed — no relation clone or diff per delta.
func genDeltas(h *hashx.Hasher, key *sig.PrivateKey, master *core.SignedRelation, victims []int,
	count, payload int, seed int64) ([]plannedDelta, error) {
	rng := rand.New(rand.NewSource(seed ^ 0xde17a))
	out := make([]plannedDelta, 0, count)
	for i := 0; i < count; i++ {
		pos := victims[rng.Intn(len(victims))]
		seq := uint64(i + 1)
		val := make([]byte, max(payload, len(payloadMagic)+8))
		rng.Read(val)
		copy(val, payloadMagic)
		binary.BigEndian.PutUint64(val[len(payloadMagic):], seq)
		rec := master.Recs[pos]
		start := time.Now()
		if _, err := master.UpdateAttrs(h, key, rec.Key(), rec.Tuple.RowID,
			[]relation.Value{relation.BytesVal(val)}); err != nil {
			return nil, fmt.Errorf("delta %d: %w", seq, err)
		}
		signDur := time.Since(start)
		d := delta.Delta{Relation: master.Schema.Name}
		for _, j := range []int{pos - 1, pos, pos + 1} {
			r := master.Recs[j]
			d.Ops = append(d.Ops, delta.Op{Kind: delta.OpUpsert, Key: r.Key(), RowID: r.Tuple.RowID, Rec: r.Clone()})
		}
		out = append(out, plannedDelta{D: d, Key: rec.Key(), Seq: seq, Sign: signDur})
	}
	return out, nil
}
