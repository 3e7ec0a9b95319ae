package engine_test

import (
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/partition"
	"vcqr/internal/verify"
	"vcqr/internal/workload"
)

// fanoutEnv builds one signed relation, a k-way split of it, and the
// publisher/verifier pair.
type fanoutEnv struct {
	h    *hashx.Hasher
	sr   *core.SignedRelation
	set  *partition.Set
	pub  *engine.Publisher
	v    *verify.Verifier
	role accessctl.Role
}

func newFanoutEnv(t *testing.T, n, k int) *fanoutEnv {
	t.Helper()
	key := streamSignKey(t)
	h := hashx.New()
	rel, err := workload.Uniform(workload.UniformConfig{
		N: n, L: 0, U: 1 << 20, PayloadSize: 8, Seed: int64(n + k),
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewParams(0, 1<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := core.Build(h, key, p, rel)
	if err != nil {
		t.Fatal(err)
	}
	set, err := partition.Split(sr, k)
	if err != nil {
		t.Fatal(err)
	}
	role := accessctl.Role{Name: "all"}
	pub := engine.NewPublisher(h, key.Public(), accessctl.NewPolicy(role))
	return &fanoutEnv{
		h:    h,
		sr:   sr,
		set:  set,
		pub:  pub,
		v:    verify.New(h, key.Public(), sr.Params, sr.Schema),
		role: role,
	}
}

// fanout executes q over the covering shards of the env's partition
// through the in-process serving path (MergeLocal over local feeds).
func (e *fanoutEnv) fanout(t *testing.T, q engine.Query, opts engine.StreamOpts) engine.ResultStream {
	t.Helper()
	eff, err := engine.EffectiveQuery(e.sr.Params, e.sr.Schema, e.role, q)
	if err != nil {
		t.Fatal(err)
	}
	sub := e.set.Spec.Decompose(eff.KeyLo, eff.KeyHi)
	slices := make([]*core.SignedRelation, len(sub))
	for i, s := range sub {
		slices[i] = e.set.Slices[s.Shard]
	}
	st, err := e.pub.MergeLocal(e.role, eff, slices, sub, e.prevG(sub), opts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// prevG resolves the empty-range predecessor digest from the slice
// preceding the cover (nil when the cover starts at shard 0).
func (e *fanoutEnv) prevG(sub []partition.SubRange) engine.PrevG {
	first := sub[0].Shard
	if first == 0 {
		return nil
	}
	return func() (hashx.Digest, error) {
		prev := e.set.Slices[first-1]
		return prev.Recs[len(prev.Recs)-3].G, nil
	}
}

// withProcs runs the test body with GOMAXPROCS raised to at least n, so
// MergeLocal takes its prefetching path even on a one-CPU host.
func withProcs(t *testing.T, n int) {
	t.Helper()
	if old := runtime.GOMAXPROCS(0); old < n {
		runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
}

// TestFanoutMatchesUnpartitioned is the core soundness check: a
// cross-shard fan-out stream must collect into a result byte-identical
// to the unpartitioned execution, and must pass the *unmodified*
// whole-result verifier — partitioning is invisible to the chain.
func TestFanoutMatchesUnpartitioned(t *testing.T) {
	e := newFanoutEnv(t, 120, 4)
	if err := e.pub.AddRelation(e.sr, false); err != nil {
		t.Fatal(err)
	}
	lo := e.sr.Recs[10].Key()
	hi := e.sr.Recs[110].Key()
	q := engine.Query{Relation: e.sr.Schema.Name, KeyLo: lo, KeyHi: hi}

	want, err := e.pub.Execute("all", q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := engine.Collect(e.fanout(t, q, engine.StreamOpts{}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.VO.AggSig, got.VO.AggSig) {
		t.Fatal("fan-out aggregate signature differs from unpartitioned execution")
	}
	if len(want.VO.Entries) != len(got.VO.Entries) {
		t.Fatalf("fan-out covered %d entries, unpartitioned %d", len(got.VO.Entries), len(want.VO.Entries))
	}
	rows, err := e.v.VerifyResult(q, e.role, got)
	if err != nil {
		t.Fatalf("fan-out result rejected by the unmodified verifier: %v", err)
	}
	wantRows, err := e.v.VerifyResult(q, e.role, want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, wantRows) {
		t.Fatal("verified rows differ")
	}
}

// TestFanoutParallelDeterminism: the merge over prefetching local feeds
// must emit the same chunk sequence (Seq/Shard stamps included) and the
// same combined signature as the merge over plain sequential feeds.
func TestFanoutParallelDeterminism(t *testing.T) {
	withProcs(t, 4)
	e := newFanoutEnv(t, 160, 8)
	q := engine.Query{Relation: e.sr.Schema.Name}

	drain := func(st engine.ResultStream) []*engine.Chunk {
		var out []*engine.Chunk
		for {
			c, err := st.Next()
			if err == io.EOF {
				return out
			}
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, c)
		}
	}
	eff, feeds, prevG := e.partials(t, q, engine.StreamOpts{ChunkRows: 16})
	seq, err := engine.MergeShards(streamSignKey(t).Public(), true, eff, feeds, prevG)
	if err != nil {
		t.Fatal(err)
	}
	seqChunks := drain(seq)
	parChunks := drain(e.fanout(t, q, engine.StreamOpts{ChunkRows: 16}))
	if len(seqChunks) != len(parChunks) {
		t.Fatalf("sequential emitted %d chunks, parallel %d", len(seqChunks), len(parChunks))
	}
	for i := range seqChunks {
		if !reflect.DeepEqual(seqChunks[i], parChunks[i]) {
			t.Fatalf("chunk %d differs between sequential and parallel", i)
		}
	}
}

// TestFanoutVerifiesChunkByChunk drives a ≥3-shard stream through the
// incremental stream verifier chunk by chunk.
func TestFanoutVerifiesChunkByChunk(t *testing.T) {
	e := newFanoutEnv(t, 96, 4)
	q := engine.Query{Relation: e.sr.Schema.Name} // full range: covers all 4 shards
	st := e.fanout(t, q, engine.StreamOpts{ChunkRows: 8})
	sv := e.v.NewStreamVerifier(q, e.role)
	rows := 0
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
			t.Fatal(err)
		}
		rows += len(released)
	}
	if err := sv.Finish(); err != nil {
		t.Fatal(err)
	}
	if rows != e.sr.Len() {
		t.Fatalf("verified %d rows, want %d", rows, e.sr.Len())
	}
	if len(shards) < 4 {
		t.Fatalf("stream touched %d shards, want 4", len(shards))
	}
}

// TestFanoutEmptyRanges exercises the empty-result corner in all three
// predecessor positions: interior to a shard, at a hand-off (pred is the
// first slice's context, needing the lazy prev pin), and at the start of
// the domain (pred is the left delimiter).
func TestFanoutEmptyRanges(t *testing.T) {
	e := newFanoutEnv(t, 60, 3)
	verifyEmpty := func(q engine.Query) {
		t.Helper()
		res, err := engine.Collect(e.fanout(t, q, engine.StreamOpts{}))
		if err != nil {
			t.Fatal(err)
		}
		rows, err := e.v.VerifyResult(q, e.role, res)
		if err != nil {
			t.Fatalf("empty result rejected: %v", err)
		}
		if len(rows) != 0 {
			t.Fatalf("expected empty result, got %d rows", len(rows))
		}
	}

	// Find a gap interior to shard 1 and the gap across the 0-1 hand-off.
	sl := e.set.Slices[1]
	mid := len(sl.Recs) / 2
	if sl.Recs[mid+1].Key() > sl.Recs[mid].Key()+1 {
		verifyEmpty(engine.Query{Relation: e.sr.Schema.Name,
			KeyLo: sl.Recs[mid].Key() + 1, KeyHi: sl.Recs[mid+1].Key() - 1})
	}
	// Hand-off gap: keys strictly between shard 0's last owned record and
	// shard 1's first owned record; pred is shard 1's left context.
	lastOwned := e.set.Slices[0].Recs[len(e.set.Slices[0].Recs)-2].Key()
	firstOwned := e.set.Slices[1].Recs[1].Key()
	if firstOwned > lastOwned+1 {
		verifyEmpty(engine.Query{Relation: e.sr.Schema.Name, KeyLo: lastOwned + 1, KeyHi: firstOwned - 1})
	}
	// Domain start: pred is the global left delimiter.
	first := e.sr.Recs[1].Key()
	if first > 1 {
		verifyEmpty(engine.Query{Relation: e.sr.Schema.Name, KeyLo: 1, KeyHi: first - 1})
	}
}

// TestFanoutShardFeet: the footer must account every covering shard's
// entry contribution.
func TestFanoutShardFeet(t *testing.T) {
	e := newFanoutEnv(t, 80, 4)
	q := engine.Query{Relation: e.sr.Schema.Name}
	st := e.fanout(t, q, engine.StreamOpts{})
	var footer *engine.Chunk
	perShard := map[int]uint64{}
	for {
		c, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if c.Type == engine.ChunkEntries {
			perShard[c.Shard] += uint64(len(c.Entries))
		}
		if c.Type == engine.ChunkFooter {
			footer = c
		}
	}
	if footer == nil || len(footer.ShardFeet) != 4 {
		t.Fatalf("footer shard accounting missing: %+v", footer)
	}
	total := uint64(0)
	for _, f := range footer.ShardFeet {
		if perShard[f.Shard] != f.Entries {
			t.Fatalf("shard %d: footer claims %d entries, observed %d", f.Shard, f.Entries, perShard[f.Shard])
		}
		total += f.Entries
	}
	if total != uint64(e.sr.Len()) {
		t.Fatalf("footer accounts %d entries, want %d", total, e.sr.Len())
	}
}

// TestFanoutClose: an abandoned prefetching stream must release its
// producers without deadlock, and leave no producer goroutine behind
// once Close returns.
func TestFanoutClose(t *testing.T) {
	withProcs(t, 4)
	e := newFanoutEnv(t, 160, 8)
	q := engine.Query{Relation: e.sr.Schema.Name}
	st := e.fanout(t, q, engine.StreamOpts{ChunkRows: 4})
	closer, ok := st.(io.Closer)
	if !ok {
		t.Fatal("fan-out stream does not implement io.Closer")
	}
	t.Cleanup(func() { closer.Close() })
	if _, err := st.Next(); err != nil {
		t.Fatal(err)
	}
	if n := producers(); n != 8 {
		t.Fatalf("%d feed producers running with an 8-shard stream open, want 8", n)
	}
	if err := closer.Close(); err != nil {
		t.Fatal(err)
	}
	if n := producers(); n != 0 {
		t.Fatalf("%d feed producers left behind after Close", n)
	}
	// Draining after Close is allowed to fail, but must not hang.
	for i := 0; i < 1000; i++ {
		if _, err := st.Next(); err != nil {
			break
		}
	}
}

// producers counts the live goroutines started for prefetching feeds,
// whether or not they have been scheduled yet.
func producers() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "created by vcqr/internal/engine.newPrefetchFeed")
}

// TestFanoutTiling: sub-ranges that do not tile the effective range are
// rejected up front.
func TestFanoutTiling(t *testing.T) {
	e := newFanoutEnv(t, 40, 2)
	eff, err := engine.EffectiveQuery(e.sr.Params, e.sr.Schema, e.role, engine.Query{Relation: e.sr.Schema.Name})
	if err != nil {
		t.Fatal(err)
	}
	sub := e.set.Spec.Decompose(eff.KeyLo, eff.KeyHi)
	if len(sub) != 2 {
		t.Fatalf("want 2 sub-ranges, got %d", len(sub))
	}
	bad := []*core.SignedRelation{e.set.Slices[1]}
	if _, err := e.pub.MergeLocal(e.role, eff, bad, sub[1:], nil, engine.StreamOpts{}); err == nil {
		t.Fatal("non-tiling shard set accepted")
	}
}
