package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"reflect"
	"testing"

	"vcqr/internal/engine"
	"vcqr/internal/obs"
)

// The request-side tests pin the wire-compatibility claim of the tracing
// fields on gob request bodies: they are *optional* gob struct fields, so
// a peer built before they landed decodes the new encodings unchanged
// (gob drops fields the receiver lacks) and a new peer decodes old
// encodings with the fields zero. The "old" shapes below are literal
// copies of the structs as they existed before the trace fields landed.
// Response frames ride the binary codec instead, whose compatibility
// rule is the opposite: same version or refused (TestFrameVersionRefused).

// oldStreamRequest is StreamRequest before Trace/Timing.
type oldStreamRequest struct {
	Role      string
	Query     engine.Query
	ChunkRows int
}

// oldShardStreamRequest is ShardStreamRequest before Trace.
type oldShardStreamRequest struct {
	Role         string
	Query        engine.Query
	Shard        int
	Lo, Hi       uint64
	First, Last  bool
	ChunkRows    int
	RoutingEpoch uint64
}

func gobRoundTrip(t *testing.T, in, out any) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatalf("decode: %v", err)
	}
}

func TestOldReaderSkipsStreamRequestTrace(t *testing.T) {
	in := StreamRequest{
		Role: "all", Query: engine.Query{Relation: "r", KeyLo: 5, KeyHi: 9},
		ChunkRows: 64, Trace: "deadbeefdeadbeef", Timing: true,
	}
	var old oldStreamRequest
	gobRoundTrip(t, in, &old)
	if old.Role != "all" || old.Query.Relation != "r" || old.Query.KeyLo != 5 || old.ChunkRows != 64 {
		t.Fatalf("old reader lost pre-existing fields: %+v", old)
	}
}

func TestNewReaderAcceptsOldStreamRequest(t *testing.T) {
	in := oldStreamRequest{Role: "all", Query: engine.Query{Relation: "r", KeyHi: 7}, ChunkRows: 32}
	var cur StreamRequest
	gobRoundTrip(t, in, &cur)
	if cur.Role != "all" || cur.Query.KeyHi != 7 || cur.ChunkRows != 32 {
		t.Fatalf("new reader lost fields from old encoding: %+v", cur)
	}
	if cur.Trace != "" || cur.Timing {
		t.Fatalf("absent optional fields must decode to zero, got %+v", cur)
	}
}

func TestOldReaderSkipsShardStreamRequestTrace(t *testing.T) {
	in := ShardStreamRequest{
		Role: "all", Query: engine.Query{Relation: "r"},
		Shard: 2, Lo: 10, Hi: 20, First: true, ChunkRows: 16,
		RoutingEpoch: 3, Trace: "0123456789abcdef",
	}
	var old oldShardStreamRequest
	gobRoundTrip(t, in, &old)
	if old.Shard != 2 || old.Lo != 10 || old.Hi != 20 || !old.First || old.RoutingEpoch != 3 {
		t.Fatalf("old reader lost pre-existing fields: %+v", old)
	}
	var cur ShardStreamRequest
	gobRoundTrip(t, old, &cur)
	if cur.Trace != "" {
		t.Fatalf("absent Trace must decode empty, got %q", cur.Trace)
	}
	if cur.Shard != 2 || cur.RoutingEpoch != 3 {
		t.Fatalf("new reader lost fields: %+v", cur)
	}
}

func TestTimingTrailerFrameRoundTrip(t *testing.T) {
	in := &engine.Chunk{
		Type:  engine.ChunkTiming,
		Trace: "feedfacefeedface",
		Timing: []obs.StageDur{
			{Stage: obs.StageStreamTotal, NS: 123456},
			{Stage: obs.StageWireEncode, NS: 789},
		},
	}
	var buf bytes.Buffer
	if err := WriteChunkFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadChunkFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("trailer round trip mismatch: %+v", out)
	}
}

// gobEraFrame frames v the way builds before the binary codec did: a
// 4-byte length, then a self-contained gob encoding.
func gobEraFrame(t *testing.T, v any) []byte {
	t.Helper()
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(v); err != nil {
		t.Fatal(err)
	}
	out := binary.BigEndian.AppendUint32(nil, uint32(body.Len()))
	return append(out, body.Bytes()...)
}

// TestFrameVersionRefused pins the mixed-build guarantee: a frame from a
// gob-era peer, or from a codec of another version, is refused with
// ErrFrameVersion by every frame reader — never misread as data.
func TestFrameVersionRefused(t *testing.T) {
	trailer := &engine.Chunk{Type: engine.ChunkTiming, Trace: "t", Timing: []obs.StageDur{{Stage: "s", NS: 1}}}
	gobEra := map[string][]byte{
		"chunk":  gobEraFrame(t, trailer),
		"node":   gobEraFrame(t, &NodeFrame{Foot: &NodeFoot{Entries: 9}}),
		"lease":  gobEraFrame(t, &LeaseRequest{Coordinator: "c", Epoch: 1, TTLMillis: 1000, Seq: 1}),
		"edges":  gobEraFrame(t, &EdgeResponse{Epoch: 3}),
		"shards": gobEraFrame(t, &TransferFrame{Foot: &TransferFoot{}}),
	}
	var cur bytes.Buffer
	if err := WriteChunkFrame(&cur, trailer); err != nil {
		t.Fatal(err)
	}
	wrong := append([]byte(nil), cur.Bytes()...)
	wrong[4] = CodecVersion + 1
	gobEra["next-version"] = wrong

	readers := map[string]func([]byte) error{
		"ReadChunkFrame": func(b []byte) error { _, err := ReadChunkFrame(bytes.NewReader(b)); return err },
		"ReadNodeFrame":  func(b []byte) error { _, err := ReadNodeFrame(bytes.NewReader(b)); return err },
		"ReadLeaseRequest": func(b []byte) error {
			_, err := ReadLeaseRequest(bytes.NewReader(b))
			return err
		},
		"ReadEdgeResponse": func(b []byte) error {
			_, err := ReadEdgeResponse(bytes.NewReader(b))
			return err
		},
		"readTransferFrame": func(b []byte) error { _, err := readTransferFrame(bytes.NewReader(b)); return err },
		"ReadCacheFrame":    func(b []byte) error { _, err := ReadCacheFrame(bytes.NewReader(b)); return err },
	}
	for fname, frame := range gobEra {
		for rname, read := range readers {
			if err := read(frame); !errors.Is(err, ErrFrameVersion) {
				t.Errorf("%s on a %s frame: %v, want ErrFrameVersion", rname, fname, err)
			}
		}
	}
}

// TestNodeFootTimingOptional: the foot's advisory timing stays optional —
// a foot without it decodes with nil Timing, one with it round-trips
// exactly, and the seam fields are identical either way.
func TestNodeFootTimingOptional(t *testing.T) {
	for _, in := range []*NodeFoot{
		{Entries: 4},
		{Entries: 9, Timing: []obs.StageDur{{Stage: obs.StageVOAssemble, NS: 42}}},
	} {
		var buf bytes.Buffer
		if err := WriteNodeFrame(&buf, &NodeFrame{Foot: in}); err != nil {
			t.Fatal(err)
		}
		f, err := ReadNodeFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if f.Foot == nil || !reflect.DeepEqual(f.Foot, in) {
			t.Fatalf("foot round trip: got %+v, want %+v", f.Foot, in)
		}
	}
}
