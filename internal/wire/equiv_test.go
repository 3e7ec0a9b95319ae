package wire_test

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"reflect"
	"testing"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/obs"
	"vcqr/internal/owner"
	"vcqr/internal/partition"
	"vcqr/internal/relation"
	"vcqr/internal/wire"
	"vcqr/internal/workload"
)

// The binary codec replaced gob on every response frame. These tests pin
// that nothing a verifier, a seam check or a transfer digest reads
// changed with it: every frame of a corpus covering each shape the
// system sends decodes reflect.DeepEqual to its gob round trip — nil
// byte fields stay nil, empty lists stay nil, optional proofs keep their
// presence.

// corpus is one signed Emp relation behind a publisher whose roles
// exercise every entry mode, plus its 3-way split.
type corpus struct {
	h   *hashx.Hasher
	sr  *core.SignedRelation
	set *partition.Set
	pub *engine.Publisher
}

func newCorpus(t *testing.T) *corpus {
	t.Helper()
	h := hashx.New()
	o := owner.NewWithKey(h, signKey(t))
	rel, err := workload.Employees(workload.EmployeeConfig{
		N: 40, L: 0, U: 1 << 20, Depts: 3, PhotoSize: 8, HiddenPct: 30, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two records sharing a key and a projection: DISTINCT elides one.
	for id := int64(90); id < 92; id++ {
		if _, err := rel.Insert(relation.Tuple{Key: 777, Attrs: []relation.Value{
			relation.IntVal(id), relation.StringVal("dup"), relation.IntVal(1),
			relation.BytesVal(nil), relation.BoolVal(true),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	sr, err := o.Publish(rel, 2)
	if err != nil {
		t.Fatal(err)
	}
	set, err := partition.Split(sr, 3)
	if err != nil {
		t.Fatal(err)
	}
	pub := engine.NewPublisher(h, signKey(t).Public(), accessctl.NewPolicy(
		accessctl.Role{Name: "all"},
		accessctl.Role{Name: "clerk", VisibilityCol: "vis_clerk"},
	))
	if err := pub.AddRelation(sr, false); err != nil {
		t.Fatal(err)
	}
	return &corpus{h: h, sr: sr, set: set, pub: pub}
}

func (c *corpus) drain(t *testing.T, role string, q engine.Query) []*engine.Chunk {
	t.Helper()
	st, err := c.pub.ExecuteStream(role, q, engine.StreamOpts{ChunkRows: 7})
	if err != nil {
		t.Fatal(err)
	}
	return collect(t, st)
}

func collect(t *testing.T, st engine.ResultStream) []*engine.Chunk {
	t.Helper()
	var out []*engine.Chunk
	for {
		ch, err := st.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ch)
	}
}

// gap returns a key range strictly between two adjacent records (after
// record i), which holds no record.
func (c *corpus) gap(t *testing.T, i int) (uint64, uint64) {
	t.Helper()
	for ; i+1 < len(c.sr.Recs)-1; i++ {
		lo, hi := c.sr.Recs[i].Key()+1, c.sr.Recs[i+1].Key()-1
		if lo <= hi {
			return lo, hi
		}
	}
	t.Fatal("no key gap in corpus")
	return 0, 0
}

// chunkCorpus is every chunk shape a stream can carry, by name.
func (c *corpus) chunkCorpus(t *testing.T) map[string][]*engine.Chunk {
	t.Helper()
	name := c.sr.Schema.Name
	all := engine.Query{Relation: name}
	out := map[string][]*engine.Chunk{
		"result":      c.drain(t, "all", engine.Query{Relation: name, Project: []string{"Name", "Dept"}}),
		"filtered":    c.drain(t, "all", engine.Query{Relation: name, Filters: []engine.Filter{{Col: "Dept", Op: engine.OpEq, Val: relation.IntVal(2)}}}),
		"hidden":      c.drain(t, "clerk", all),
		"distinct":    c.drain(t, "all", engine.Query{Relation: name, Project: []string{"Dept"}, Distinct: true}),
		"filteredStr": c.drain(t, "all", engine.Query{Relation: name, Filters: []engine.Filter{{Col: "Name", Op: engine.OpGe, Val: relation.StringVal("emp-0010")}}}),
		"emptyLeft":   c.drain(t, "all", engine.Query{Relation: name, KeyLo: 1, KeyHi: c.sr.Recs[1].Key() - 1}),
	}
	lo, hi := c.gap(t, 5)
	out["emptyMid"] = c.drain(t, "all", engine.Query{Relation: name, KeyLo: lo, KeyHi: hi})

	c.pub.Aggregate = false
	out["individual"] = c.drain(t, "all", all)
	out["individualEmpty"] = c.drain(t, "all", engine.Query{Relation: name, KeyLo: lo, KeyHi: hi})
	c.pub.Aggregate = true

	eff, err := engine.EffectiveQuery(c.sr.Params, c.sr.Schema, accessctl.Role{Name: "all"}, all)
	if err != nil {
		t.Fatal(err)
	}
	sub := c.set.Spec.Decompose(eff.KeyLo, eff.KeyHi)
	slices := make([]*core.SignedRelation, len(sub))
	for i, s := range sub {
		slices[i] = c.set.Slices[s.Shard]
	}
	noPrev := func() (hashx.Digest, error) { return nil, errors.New("no preceding slice") }
	st, err := c.pub.MergeLocal(accessctl.Role{Name: "all"}, eff, slices, sub, noPrev, engine.StreamOpts{ChunkRows: 5})
	if err != nil {
		t.Fatal(err)
	}
	out["sharded"] = collect(t, st)
	if feet := out["sharded"][len(out["sharded"])-1].ShardFeet; len(feet) != len(sub) {
		t.Fatalf("sharded footer carries %d ShardFeet, want %d", len(feet), len(sub))
	}

	out["trailers"] = []*engine.Chunk{
		{Type: engine.ChunkError, Seq: 3, Shard: 1, Err: "engine: boom"},
		{Type: engine.ChunkTiming, Trace: "0123456789abcdef", Timing: []obs.StageDur{
			{Stage: obs.StageStreamTotal, NS: 1 << 40}, {Stage: obs.StageWireEncode, NS: -1},
		}},
		{Type: engine.ChunkFooter, Seq: 9, AggSig: []byte{}, PredPrevG: []byte{}, Sigs: nil},
	}
	return out
}

// gobTrip round-trips v through gob into a fresh value of the same type.
func gobTrip[T any](t *testing.T, v *T) *T {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	out := new(T)
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatal(err)
	}
	return out
}

// hasMode reports whether any chunk carries an entry of mode m.
func hasMode(chunks []*engine.Chunk, m engine.EntryMode) bool {
	for _, c := range chunks {
		for _, e := range c.Entries {
			if e.Mode == m {
				return true
			}
		}
	}
	return false
}

func TestChunkFramesMatchGob(t *testing.T) {
	c := newCorpus(t)
	corpus := c.chunkCorpus(t)
	for name, m := range map[string]engine.EntryMode{
		"result": engine.EntryResult, "filtered": engine.EntryFilteredVisible,
		"hidden": engine.EntryFilteredHidden, "distinct": engine.EntryElidedDup,
	} {
		if !hasMode(corpus[name], m) {
			t.Fatalf("corpus %q has no %v entry", name, m)
		}
	}
	if corpus["emptyLeft"][len(corpus["emptyLeft"])-1].PredPrevG != nil {
		t.Fatal("empty range at the left delimiter should carry a nil PredPrevG")
	}
	if corpus["emptyMid"][len(corpus["emptyMid"])-1].PredPrevG == nil {
		t.Fatal("interior empty range should carry a PredPrevG")
	}
	for name, chunks := range corpus {
		for i, ch := range chunks {
			var buf bytes.Buffer
			if err := wire.WriteChunkFrame(&buf, ch); err != nil {
				t.Fatal(err)
			}
			got, err := wire.ReadChunkFrame(&buf)
			if err != nil {
				t.Fatalf("%s[%d]: %v", name, i, err)
			}
			if want := gobTrip(t, ch); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s[%d] (%v): binary decode differs from gob\n got %+v\nwant %+v", name, i, ch.Type, got, want)
			}
			// The same chunk inside a node frame decodes identically.
			buf.Reset()
			if err := wire.WriteNodeFrame(&buf, &wire.NodeFrame{Chunk: ch}); err != nil {
				t.Fatal(err)
			}
			nf, err := wire.ReadNodeFrame(&buf)
			if err != nil || !reflect.DeepEqual(nf.Chunk, got) {
				t.Fatalf("%s[%d]: node chunk frame differs (%v)", name, i, err)
			}
		}
	}
}

// nodeCorpus is every sub-stream frame shape: hellos with and without a
// left proof, chunks, feet with and without a right proof and with the
// empty-range predecessor material, and an error.
func (c *corpus) nodeCorpus(t *testing.T) []*wire.NodeFrame {
	t.Helper()
	var out []*wire.NodeFrame
	name := c.sr.Schema.Name
	lo, hi := c.gap(t, 1)
	for _, q := range []engine.Query{{Relation: name}, {Relation: name, KeyLo: lo, KeyHi: hi}} {
		eff, err := engine.EffectiveQuery(c.sr.Params, c.sr.Schema, accessctl.Role{Name: "all"}, q)
		if err != nil {
			t.Fatal(err)
		}
		sub := c.set.Spec.Decompose(eff.KeyLo, eff.KeyHi)
		for i, s := range sub {
			sl := c.set.Slices[s.Shard]
			sp, err := c.pub.ShardPartial(sl, "all", q, s.Shard, s.Lo, s.Hi, i == 0, i == len(sub)-1, engine.StreamOpts{ChunkRows: 6})
			if err != nil {
				t.Fatal(err)
			}
			head, err := sp.Head()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, &wire.NodeFrame{Hello: &wire.NodeHello{
				Shard: s.Shard, Epoch: uint64(i + 1), Edges: partition.EdgesOf(sl),
				Left: head.Left, Digest: partition.SliceDigest(c.h, sl),
			}})
			for _, ch := range collect(t, sp) {
				out = append(out, &wire.NodeFrame{Chunk: ch})
			}
			foot, err := sp.Foot()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, &wire.NodeFrame{Foot: &wire.NodeFoot{
				Entries: foot.Entries, Partial: foot.Partial, Right: foot.Right,
				PredSig: foot.PredSig, PredPrevG: foot.PredPrevG, NeedPrevG: foot.NeedPrevG,
				Timing: []obs.StageDur{{Stage: obs.StageSubStream, NS: int64(100 * i)}},
			}})
		}
	}
	return append(out,
		&wire.NodeFrame{Hello: &wire.NodeHello{Left: &core.BoundaryProof{}}},
		&wire.NodeFrame{Foot: &wire.NodeFoot{}},
		&wire.NodeFrame{Err: "not hosting shard 2"},
	)
}

func TestNodeFramesMatchGob(t *testing.T) {
	c := newCorpus(t)
	frames := c.nodeCorpus(t)
	var withLeft, withoutLeft, withRight, withPred bool
	for _, f := range frames {
		if f.Hello != nil {
			withLeft = withLeft || f.Hello.Left != nil
			withoutLeft = withoutLeft || f.Hello.Left == nil
		}
		if f.Foot != nil {
			withRight = withRight || f.Foot.Right != nil
			withPred = withPred || f.Foot.PredSig != nil
		}
	}
	if !withLeft || !withoutLeft || !withRight || !withPred {
		t.Fatalf("node corpus incomplete: left %v, no-left %v, right %v, pred %v", withLeft, withoutLeft, withRight, withPred)
	}
	for i, f := range frames {
		var buf bytes.Buffer
		if err := wire.WriteNodeFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
		got, err := wire.ReadNodeFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if want := gobTrip(t, f); !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: binary decode differs from gob\n got %+v\nwant %+v", i, got, want)
		}
	}
}

func TestControlFramesMatchGob(t *testing.T) {
	c := newCorpus(t)
	edges := []*wire.EdgeResponse{
		{Epoch: 4, Edges: partition.EdgesOf(c.set.Slices[1])},
		{Err: "not hosting shard 7"},
	}
	for i, e := range edges {
		var buf bytes.Buffer
		if err := wire.WriteEdgeResponse(&buf, e); err != nil {
			t.Fatal(err)
		}
		got, err := wire.ReadEdgeResponse(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if want := gobTrip(t, e); !reflect.DeepEqual(got, want) {
			t.Fatalf("edge response %d differs from gob", i)
		}
	}

	req := &wire.LeaseRequest{Coordinator: "http://coord", Epoch: 9, TTLMillis: -1, Seq: 1 << 63}
	var buf bytes.Buffer
	if err := wire.WriteLeaseRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	gotReq, err := wire.ReadLeaseRequest(&buf)
	if err != nil || !reflect.DeepEqual(gotReq, gobTrip(t, req)) {
		t.Fatalf("lease request differs from gob (%v)", err)
	}
	resp := &wire.LeaseResponse{Epoch: 9, Hosted: 3, Inflight: 2, Err: "stale coordinator"}
	if err := wire.WriteLeaseResponse(&buf, resp); err != nil {
		t.Fatal(err)
	}
	gotResp, err := wire.ReadLeaseResponse(&buf)
	if err != nil || !reflect.DeepEqual(gotResp, gobTrip(t, resp)) {
		t.Fatalf("lease response differs from gob (%v)", err)
	}

	sl := c.set.Slices[2]
	man := &wire.ShardManifest{Spec: c.set.Spec, Shard: 2, Params: sl.Params, Schema: sl.Schema,
		Records: len(sl.Recs), Epoch: 3, Deltas: 1}
	for i, f := range []*wire.TransferFrame{
		{Manifest: man},
		{Recs: sl.Recs},
		{Foot: &wire.TransferFoot{Digest: partition.SliceDigest(c.h, sl)}},
		{Foot: &wire.TransferFoot{}},
		{Err: "slice moved"},
	} {
		buf.Reset()
		if err := wire.WriteTransferFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
		got, err := wire.ReadTransferFrame(&buf)
		if err != nil {
			t.Fatalf("transfer frame %d: %v", i, err)
		}
		if want := gobTrip(t, f); !reflect.DeepEqual(got, want) {
			t.Fatalf("transfer frame %d differs from gob\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// TestCodecCanonical pins the strictness rules on hand-built payloads:
// each mutation of an honest frame is refused by name.
func TestCodecCanonical(t *testing.T) {
	var buf bytes.Buffer
	if err := wire.WriteLeaseResponse(&buf, &wire.LeaseResponse{Epoch: 1, Hosted: 2, Inflight: 3}); err != nil {
		t.Fatal(err)
	}
	honest := buf.Bytes()
	// Payload: version, tag, epoch=1, hosted=zigzag(2)=4, inflight=3, err len 0.
	mutate := func(edit func(p []byte) []byte) []byte {
		p := edit(append([]byte(nil), honest[4:]...))
		out := []byte{0, 0, 0, byte(len(p))}
		return append(out, p...)
	}
	cases := map[string][]byte{
		"trailing byte":     mutate(func(p []byte) []byte { return append(p, 0) }),
		"non-minimal":       mutate(func(p []byte) []byte { return append(p[:2], append([]byte{0x81, 0x00}, p[3:]...)...) }),
		"unknown tag":       mutate(func(p []byte) []byte { p[1] = 0xEE; return p }),
		"lying string len":  mutate(func(p []byte) []byte { p[len(p)-1] = 5; return p }),
		"missing last byte": mutate(func(p []byte) []byte { return p[:len(p)-1] }),
	}
	for name, frame := range cases {
		if _, err := wire.ReadLeaseResponse(bytes.NewReader(frame)); !errors.Is(err, wire.ErrFrameMalformed) {
			t.Errorf("%s: %v, want ErrFrameMalformed", name, err)
		}
	}

	// A bool byte other than 0/1, and a count the payload cannot hold.
	buf.Reset()
	if err := wire.WriteChunkFrame(&buf, &engine.Chunk{Type: engine.ChunkFooter}); err != nil {
		t.Fatal(err)
	}
	chunk := buf.Bytes()
	for _, tc := range []struct {
		name string
		off  int // offset into the payload after version and tag
		val  byte
	}{
		{"bool byte 2", 9, 2},          // Effective.Distinct
		{"huge entry count", 21, 0x7f}, // Entries
	} {
		frame := append([]byte(nil), chunk...)
		frame[4+2+tc.off] = tc.val
		if _, err := wire.ReadChunkFrame(bytes.NewReader(frame)); !errors.Is(err, wire.ErrFrameMalformed) {
			t.Errorf("%s: %v, want ErrFrameMalformed", tc.name, err)
		}
	}
}
