package wire_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"

	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/wire"
)

func sampleChunks() []*engine.Chunk {
	h := hashx.New()
	return []*engine.Chunk{
		{
			Type:      engine.ChunkHeader,
			Seq:       0,
			Relation:  "Emp",
			Effective: engine.Query{Relation: "Emp", KeyLo: 10, KeyHi: 99},
			KeyLo:     10,
			KeyHi:     99,
		},
		{
			Type: engine.ChunkEntries,
			Seq:  1,
			Entries: []engine.VOEntry{{
				Mode:         engine.EntryElidedDup,
				G:            h.Hash([]byte("g")),
				HiddenLeaves: []hashx.Digest{h.Hash([]byte("leaf"))},
			}},
		},
		{Type: engine.ChunkFooter, Seq: 2, PredPrevG: h.Hash([]byte("pred"))},
	}
}

// TestChunkFrameRoundTrip writes frames back to back and reads them out
// again — each frame independently decodable, clean EOF at the end.
func TestChunkFrameRoundTrip(t *testing.T) {
	chunks := sampleChunks()
	var buf bytes.Buffer
	for _, c := range chunks {
		if err := wire.WriteChunkFrame(&buf, c); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(buf.Bytes())
	for i, want := range chunks {
		got, err := wire.ReadChunkFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, err := wire.ReadChunkFrame(r); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

// TestChunkFrameTruncation checks that a stream dying mid-frame is a
// named error, not a silent EOF.
func TestChunkFrameTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := wire.WriteChunkFrame(&buf, sampleChunks()[0]); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{1, 3, len(full) / 2, len(full) - 1} {
		if _, err := wire.ReadChunkFrame(bytes.NewReader(full[:cut])); !errors.Is(err, wire.ErrFrameTruncated) {
			t.Fatalf("cut at %d: %v, want ErrFrameTruncated", cut, err)
		}
	}
}

// TestChunkFrameSizeLimit checks the length-prefix cap: a frame claiming
// more than MaxChunkFrame bytes is rejected before allocation.
func TestChunkFrameSizeLimit(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(wire.MaxChunkFrame+1))
	if _, err := wire.ReadChunkFrame(bytes.NewReader(hdr[:])); !errors.Is(err, wire.ErrFrameTooBig) {
		t.Fatalf("oversized frame: %v, want ErrFrameTooBig", err)
	}
}

// TestChunkFrameGarbage checks that arbitrary bytes fail cleanly.
func TestChunkFrameGarbage(t *testing.T) {
	body := []byte("this is not gob")
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	buf.Write(hdr[:])
	buf.Write(body)
	if _, err := wire.ReadChunkFrame(&buf); err == nil {
		t.Fatal("garbage frame decoded")
	}
}

// FuzzReadChunkFrame fuzzes the frame decoder with raw bytes: it must
// never panic, and the codec is canonical — any chunk it accepts
// re-encodes to exactly the bytes it was read from.
func FuzzReadChunkFrame(f *testing.F) {
	var seed bytes.Buffer
	for _, c := range sampleChunks() {
		if err := wire.WriteChunkFrame(&seed, c); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 42})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		canonicalFrames(t, data, func(r io.Reader, w io.Writer) error {
			c, err := wire.ReadChunkFrame(r)
			if err != nil {
				return err
			}
			if err := wire.WriteChunkFrame(w, c); err != nil {
				t.Fatalf("accepted chunk does not re-encode: %v", err)
			}
			return nil
		})
	})
}

// canonicalFrames is the fuzz oracle of the frame codec: it decodes
// frames off data until the first refusal, and requires each accepted
// frame to re-encode (through roundTrip, which reads one frame from r
// and writes it back to w) to exactly the bytes it was read from.
func canonicalFrames(t *testing.T, data []byte, roundTrip func(r io.Reader, w io.Writer) error) {
	t.Helper()
	r := bytes.NewReader(data)
	for {
		start := len(data) - r.Len()
		var out bytes.Buffer
		if err := roundTrip(r, &out); err != nil {
			return
		}
		if in := data[start : len(data)-r.Len()]; !bytes.Equal(out.Bytes(), in) {
			t.Fatalf("accepted frame re-encodes differently:\n in %x\nout %x", in, out.Bytes())
		}
	}
}
