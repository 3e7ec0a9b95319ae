package server_test

import (
	"errors"
	"io"
	"net/http/httptest"
	"reflect"
	"testing"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/delta"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/partition"
	"vcqr/internal/relation"
	"vcqr/internal/server"
	"vcqr/internal/verify"
	"vcqr/internal/wire"
	"vcqr/internal/workload"
)

// partFix is a running partitioned server plus the owner-side master
// copy used to mint deltas and the client-side verifier.
type partFix struct {
	h     *hashx.Hasher
	s     *server.Server
	set   *partition.Set
	owner *core.SignedRelation // owner's evolving master (global chain)
	v     *verify.Verifier
	role  accessctl.Role
}

func newPartServer(t testing.TB, n, k int) *partFix {
	t.Helper()
	h, sr := build(t, n)
	set, err := partition.Split(sr, k)
	if err != nil {
		t.Fatal(err)
	}
	role := accessctl.Role{Name: "all"}
	s := server.New(server.Config{
		Hasher: h,
		Pub:    signKey(t).Public(),
		Policy: accessctl.NewPolicy(role),
	})
	t.Cleanup(s.Close)
	if err := s.AddPartition(set, true); err != nil {
		t.Fatal(err)
	}
	return &partFix{
		h:     h,
		s:     s,
		set:   set,
		owner: sr.Clone(),
		v:     verify.New(h, signKey(t).Public(), sr.Params, sr.Schema),
		role:  role,
	}
}

// TestPartitionedStreamEndToEnd is the acceptance path: a range query
// spanning >=3 shards round-trips over HTTP /stream and verifies with
// the shard-aware verifier.
func TestPartitionedStreamEndToEnd(t *testing.T) {
	f := newPartServer(t, 96, 4)
	ts := httptest.NewServer(f.s.Handler())
	defer ts.Close()
	client := &wire.Client{BaseURL: ts.URL}

	// Span shards 0..2 (three shards): from the first record up to the
	// middle of shard 2.
	sl2 := f.set.Slices[2]
	q := engine.Query{
		Relation: "Uniform",
		KeyLo:    1,
		KeyHi:    sl2.Recs[len(sl2.Recs)/2].Key(),
	}
	sv, err := f.v.NewShardStreamVerifier(f.set.Spec, q, f.role)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	stats, err := client.QueryStreamWith(sv, "all", q, 8, func(engine.Row) error {
		rows++
		return nil
	})
	if err != nil {
		t.Fatalf("stream rejected: %v", err)
	}
	if rows != stats.Rows || rows == 0 {
		t.Fatalf("row accounting: fn saw %d, stats %d", rows, stats.Rows)
	}
	// Cross-check against the materialized path through the same server.
	res, err := client.Query("all", q)
	if err != nil {
		t.Fatal(err)
	}
	verified, err := f.v.VerifyResult(q, f.role, res)
	if err != nil {
		t.Fatalf("materialized partitioned result rejected: %v", err)
	}
	if len(verified) != rows {
		t.Fatalf("stream verified %d rows, materialized %d", rows, len(verified))
	}

	st := f.s.Stats()
	ps, ok := st.Partitions["Uniform"]
	if !ok || len(ps.Shards) != 4 {
		t.Fatalf("partition stats missing: %+v", st.Partitions)
	}
	if ps.Fanouts < 2 {
		t.Fatalf("fan-out counter = %d, want >= 2", ps.Fanouts)
	}
	for i := 0; i < 3; i++ {
		if ps.Shards[i].Queries == 0 {
			t.Fatalf("shard %d has no routed queries: %+v", i, ps.Shards)
		}
	}
	if st.Relations["Uniform"] != 96 {
		t.Fatalf("stats report %d records, want 96", st.Relations["Uniform"])
	}
}

// mintDelta routes an owner-side attribute update through delta.Diff —
// the exact batch a publisher would receive.
func (f *partFix) mintDelta(t testing.TB, idx int, payload []byte) delta.Delta {
	t.Helper()
	before := f.owner.Clone()
	rec := f.owner.Recs[idx]
	if _, err := f.owner.UpdateAttrs(f.h, signKey(t), rec.Key(), rec.Tuple.RowID,
		[]relation.Value{relation.BytesVal(payload)}); err != nil {
		t.Fatal(err)
	}
	return delta.Diff(before, f.owner)
}

// globalIndexOfShardRecord maps shard s's owned record r (1-based within
// the slice) to its index in the owner's master sequence.
func (f *partFix) globalIndexOf(t testing.TB, key, rowID uint64) int {
	t.Helper()
	for i, rec := range f.owner.Recs {
		if rec.Key() == key && rec.Tuple.RowID == rowID {
			return i
		}
	}
	t.Fatalf("record (%d,%d) not in master", key, rowID)
	return -1
}

// TestPartitionedDeltaIsolation: a delta interior to shard 1 must bump
// only shard 1's epoch, leave the other shards' cached VOs hot, and
// queries spanning the delta'd shard must still verify.
func TestPartitionedDeltaIsolation(t *testing.T) {
	f := newPartServer(t, 96, 4)

	// One cacheable point query per shard.
	queries := make([]engine.Query, 4)
	for i := range queries {
		sl := f.set.Slices[i]
		mid := sl.Recs[len(sl.Recs)/2]
		queries[i] = engine.Query{Relation: "Uniform", KeyLo: mid.Key(), KeyHi: mid.Key()}
	}
	run := func() {
		for i, q := range queries {
			res, err := f.s.Query("all", q)
			if err != nil {
				t.Fatalf("query %d: %v", i, err)
			}
			if _, err := f.v.VerifyResult(q, f.role, res); err != nil {
				t.Fatalf("query %d rejected: %v", i, err)
			}
		}
	}
	run() // cold: 4 misses
	run() // hot: 4 hits
	before := f.s.Stats()

	// Interior update to shard 1: pick the middle owned record of slice 1
	// (its re-sign neighbourhood stays inside the shard).
	sl1 := f.set.Slices[1]
	midRec := sl1.Recs[len(sl1.Recs)/2]
	d := f.mintDelta(t, f.globalIndexOf(t, midRec.Key(), midRec.Tuple.RowID), []byte("v2"))
	if _, err := f.s.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}

	run() // shard 1 re-assembles; shards 0, 2, 3 must hit cache
	after := f.s.Stats()
	misses := after.Cache.Misses - before.Cache.Misses
	hits := after.Cache.Hits - before.Cache.Hits
	if misses != 1 {
		t.Fatalf("delta to shard 1 caused %d cache misses, want exactly 1", misses)
	}
	if hits != 3 {
		t.Fatalf("expected 3 cache hits after isolated delta, got %d", hits)
	}
	ps := after.Partitions["Uniform"]
	if ps.Shards[1].Deltas != 1 {
		t.Fatalf("shard 1 delta counter = %d", ps.Shards[1].Deltas)
	}
	for _, i := range []int{0, 2, 3} {
		if ps.Shards[i].Deltas != 0 {
			t.Fatalf("shard %d saw a delta", i)
		}
		if ps.Shards[i].Epoch != before.Partitions["Uniform"].Shards[i].Epoch {
			t.Fatalf("shard %d epoch moved on an interior delta to shard 1", i)
		}
	}
}

// TestPartitionedBoundaryDelta: an update to a shard's edge record
// re-signs across the hand-off; both shards and their mirrors must stay
// consistent, and cross-shard queries must keep verifying.
func TestPartitionedBoundaryDelta(t *testing.T) {
	f := newPartServer(t, 64, 4)

	// Shard 1's first owned record: its neighbourhood reaches shard 0.
	edge := f.set.Slices[1].Recs[1]
	d := f.mintDelta(t, f.globalIndexOf(t, edge.Key(), edge.Tuple.RowID), []byte("edge-v2"))
	if _, err := f.s.ApplyDelta(d); err != nil {
		t.Fatalf("boundary delta rejected: %v", err)
	}

	// Full-range query across all shards must verify post-delta.
	q := engine.Query{Relation: "Uniform"}
	res, err := f.s.Query("all", q)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := f.v.VerifyResult(q, f.role, res)
	if err != nil {
		t.Fatalf("cross-shard query rejected after boundary delta: %v", err)
	}
	if len(rows) != 64 {
		t.Fatalf("got %d rows, want 64", len(rows))
	}
	ps := f.s.Stats().Partitions["Uniform"]
	if ps.Shards[0].Deltas+ps.Shards[1].Deltas < 2 {
		t.Fatalf("boundary delta should touch both shards: %+v", ps.Shards)
	}
}

// TestPartitionedInsertDelete: inserts and deletes route to the owning
// shard and keep the partitioned publication verifiable end to end.
func TestPartitionedInsertDelete(t *testing.T) {
	f := newPartServer(t, 64, 4)

	// Insert a key owned by shard 2.
	lo, hi := f.set.Spec.Span(2)
	key := (lo + hi) / 2
	before := f.owner.Clone()
	if _, err := f.owner.Insert(f.h, signKey(t), relation.Tuple{
		Key: key, Attrs: []relation.Value{relation.BytesVal([]byte("inserted"))},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.s.ApplyDelta(delta.Diff(before, f.owner)); err != nil {
		t.Fatalf("insert delta rejected: %v", err)
	}

	// Delete a record owned by shard 0.
	victim := f.set.Slices[0].Recs[2]
	before = f.owner.Clone()
	if _, err := f.owner.Delete(f.h, signKey(t), victim.Key(), victim.Tuple.RowID); err != nil {
		t.Fatal(err)
	}
	if _, err := f.s.ApplyDelta(delta.Diff(before, f.owner)); err != nil {
		t.Fatalf("delete delta rejected: %v", err)
	}

	q := engine.Query{Relation: "Uniform"}
	res, err := f.s.Query("all", q)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := f.v.VerifyResult(q, f.role, res)
	if err != nil {
		t.Fatalf("post-delta cross-shard query rejected: %v", err)
	}
	if len(rows) != 64 {
		t.Fatalf("got %d rows, want 64 (one insert, one delete)", len(rows))
	}
}

// TestPartitionedShardUnderflow: a delta draining a shard of its last
// owned record is rejected by name and leaves every epoch untouched.
func TestPartitionedShardUnderflow(t *testing.T) {
	// 4 records, 4 shards: each shard owns exactly one record.
	f := newPartServer(t, 4, 4)
	victim := f.set.Slices[1].Recs[1]
	before := f.owner.Clone()
	if _, err := f.owner.Delete(f.h, signKey(t), victim.Key(), victim.Tuple.RowID); err != nil {
		t.Fatal(err)
	}
	epochBefore := f.s.Stats().Epoch
	_, err := f.s.ApplyDelta(delta.Diff(before, f.owner))
	if !errors.Is(err, server.ErrShardUnderflow) {
		t.Fatalf("draining delta: got %v, want ErrShardUnderflow", err)
	}
	if f.s.Stats().Epoch != epochBefore {
		t.Fatal("rejected delta advanced an epoch")
	}
}

// TestPartitionedStreamPinsEpochs: a stream opened before a delta keeps
// verifying against its pinned per-shard epochs even while the delta
// cuts over mid-drain.
func TestPartitionedStreamPinsEpochs(t *testing.T) {
	f := newPartServer(t, 96, 4)
	q := engine.Query{Relation: "Uniform"}
	st, err := f.s.QueryStream("all", q, 8)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := f.v.NewShardStreamVerifier(f.set.Spec, q, f.role)
	if err != nil {
		t.Fatal(err)
	}
	// Drain the header, then land a delta on shard 2 mid-stream.
	c, err := st.Next()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sv.Consume(c); err != nil {
		t.Fatal(err)
	}
	sl2 := f.set.Slices[2]
	midRec := sl2.Recs[len(sl2.Recs)/2]
	d := f.mintDelta(t, f.globalIndexOf(t, midRec.Key(), midRec.Tuple.RowID), []byte("mid-stream"))
	if _, err := f.s.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	// The rest of the stream must still verify: its slices were pinned.
	for {
		c, err := st.Next()
		if err != nil {
			break
		}
		if _, err := sv.Consume(c); err != nil {
			t.Fatalf("pinned stream rejected after concurrent delta: %v", err)
		}
	}
	if err := sv.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionedRejectsDuplicateHosting: one name cannot be both a
// plain relation and a partition.
func TestPartitionedRejectsDuplicateHosting(t *testing.T) {
	f := newPartServer(t, 16, 2)
	_, sr := build(t, 16)
	if err := f.s.AddRelation(sr, false); !errors.Is(err, server.ErrAlreadyHosted) {
		t.Fatalf("duplicate hosting: got %v, want ErrAlreadyHosted", err)
	}
	set2, err := partition.Split(sr, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.s.AddPartition(set2, false); !errors.Is(err, server.ErrAlreadyHosted) {
		t.Fatalf("duplicate partition hosting: got %v, want ErrAlreadyHosted", err)
	}

	// And the reverse order: a partition cannot shadow a relation that is
	// already hosted plain.
	h2, sr2 := build(t, 16)
	plain := server.New(server.Config{
		Hasher: h2,
		Pub:    signKey(t).Public(),
		Policy: accessctl.NewPolicy(accessctl.Role{Name: "all"}),
	})
	t.Cleanup(plain.Close)
	if err := plain.AddRelation(sr2, false); err != nil {
		t.Fatal(err)
	}
	if err := plain.AddPartition(set2, false); !errors.Is(err, server.ErrAlreadyHosted) {
		t.Fatalf("partition shadowing a plain relation: got %v, want ErrAlreadyHosted", err)
	}
}

// TestPartitionedBatch: batch items against a partitioned relation are
// answered per shard and verify independently.
func TestPartitionedBatch(t *testing.T) {
	f := newPartServer(t, 64, 4)
	var qs []engine.Query
	for i := 0; i < 4; i++ {
		lo, hi := f.set.Spec.Span(i)
		qs = append(qs, engine.Query{Relation: "Uniform", KeyLo: lo, KeyHi: hi})
	}
	results, errs := f.s.QueryBatch("all", qs)
	total := 0
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("batch item %d: %v", i, errs[i])
		}
		rows, err := f.v.VerifyResult(qs[i], f.role, res)
		if err != nil {
			t.Fatalf("batch item %d rejected: %v", i, err)
		}
		total += len(rows)
	}
	if total != 64 {
		t.Fatalf("batch verified %d rows total, want 64", total)
	}
}

// TestPartitionedDistinct: DISTINCT over a multi-shard partitioned
// relation, through both the stream and the materialized path, must be
// accepted by the unmodified verifiers and release exactly the rows an
// unpartitioned DISTINCT execution releases. The relation is built with
// many duplicate keys and an empty payload, so duplicates project
// identically and the answer really elides some.
func TestPartitionedDistinct(t *testing.T) {
	h := hashx.New()
	rel, err := workload.Uniform(workload.UniformConfig{N: 120, L: 0, U: 48, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewParams(0, 48, 2)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := core.Build(h, signKey(t), p, rel)
	if err != nil {
		t.Fatal(err)
	}
	set, err := partition.Split(sr, 4)
	if err != nil {
		t.Fatal(err)
	}
	role := accessctl.Role{Name: "all"}
	policy := accessctl.NewPolicy(role)
	s := server.New(server.Config{Hasher: h, Pub: signKey(t).Public(), Policy: policy})
	t.Cleanup(s.Close)
	if err := s.AddPartition(set, true); err != nil {
		t.Fatal(err)
	}
	v := verify.New(h, signKey(t).Public(), sr.Params, sr.Schema)
	q := engine.Query{Relation: "Uniform", Project: []string{"Payload"}, Distinct: true}

	ref := engine.NewPublisher(h, signKey(t).Public(), policy)
	if err := ref.AddRelation(sr, false); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Execute("all", q)
	if err != nil {
		t.Fatal(err)
	}
	wantRows, err := v.VerifyResult(q, role, want)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantRows) >= sr.Len() {
		t.Fatalf("fixture elides nothing: %d distinct rows of %d records", len(wantRows), sr.Len())
	}

	res, err := s.Query("all", q)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := v.VerifyResult(q, role, res)
	if err != nil {
		t.Fatalf("partitioned DISTINCT result rejected: %v", err)
	}
	if !reflect.DeepEqual(rows, wantRows) {
		t.Fatalf("partitioned DISTINCT released %d rows, unpartitioned %d", len(rows), len(wantRows))
	}

	st, err := s.QueryStream("all", q, 8)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := v.NewShardStreamVerifier(set.Spec, q, role)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []engine.Row
	shards := map[int]bool{}
	for {
		c, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		shards[c.Shard] = true
		released, err := sv.Consume(c)
		if err != nil {
			t.Fatalf("partitioned DISTINCT stream rejected: %v", err)
		}
		streamed = append(streamed, released...)
	}
	if err := sv.Finish(); err != nil {
		t.Fatalf("partitioned DISTINCT stream rejected at finish: %v", err)
	}
	if len(shards) != 4 {
		t.Fatalf("stream touched %d shards, want 4", len(shards))
	}
	if !reflect.DeepEqual(streamed, wantRows) {
		t.Fatalf("partitioned DISTINCT stream released %d rows, unpartitioned %d", len(streamed), len(wantRows))
	}
}
