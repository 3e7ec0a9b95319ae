package wire_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"

	"vcqr/internal/hashx"
	"vcqr/internal/owner"
	"vcqr/internal/partition"
	"vcqr/internal/wire"
	"vcqr/internal/workload"
)

// splitFrames cuts a transfer stream back into its length-prefixed
// frames so tests can splice and truncate at frame granularity.
func splitFrames(t *testing.T, blob []byte) [][]byte {
	t.Helper()
	var frames [][]byte
	for len(blob) > 0 {
		if len(blob) < 4 {
			t.Fatal("dangling frame prefix")
		}
		n := int(binary.BigEndian.Uint32(blob[:4]))
		if len(blob) < 4+n {
			t.Fatal("frame overruns stream")
		}
		frames = append(frames, blob[:4+n])
		blob = blob[4+n:]
	}
	return frames
}

// TestShardTransferIntegrity pins the transfer codec's three outcomes:
// a clean round trip, a tampered stream rejected by the slice-digest
// compare (wire.ErrTransferDigest), and a truncated stream rejected as
// such (wire.ErrTransferTruncated).
func TestShardTransferIntegrity(t *testing.T) {
	h := hashx.New()
	o := owner.NewWithKey(h, signKey(t))
	rel, err := workload.Uniform(workload.UniformConfig{N: 40, L: 0, U: 1 << 20, PayloadSize: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := o.Publish(rel, 2)
	if err != nil {
		t.Fatal(err)
	}
	set, err := partition.Split(sr, 2)
	if err != nil {
		t.Fatal(err)
	}
	man := wire.ShardManifest{Spec: set.Spec, Shard: 0}

	var clean bytes.Buffer
	if err := wire.WriteShardTransfer(&clean, h, man, set.Slices[0]); err != nil {
		t.Fatal(err)
	}
	gotMan, got, err := wire.ReadShardTransfer(bytes.NewReader(clean.Bytes()), h)
	if err != nil {
		t.Fatalf("clean transfer rejected: %v", err)
	}
	if gotMan.Shard != 0 || len(got.Recs) != len(set.Slices[0].Recs) {
		t.Fatalf("round trip lost records: %d vs %d", len(got.Recs), len(set.Slices[0].Recs))
	}
	if !partition.SliceDigest(h, got).Equal(partition.SliceDigest(h, set.Slices[0])) {
		t.Fatal("round trip changed the slice digest")
	}

	// Tamper: ship the original records but a foot minted for a modified
	// slice — the receiver's recomputed digest must disagree, by name.
	tampered := set.Slices[0].Clone()
	tampered.Recs[2].Sig[0] ^= 0x01
	var evil bytes.Buffer
	if err := wire.WriteShardTransfer(&evil, h, man, tampered); err != nil {
		t.Fatal(err)
	}
	cleanFrames := splitFrames(t, clean.Bytes())
	evilFrames := splitFrames(t, evil.Bytes())
	var spliced bytes.Buffer
	for _, f := range cleanFrames[:len(cleanFrames)-1] {
		spliced.Write(f)
	}
	spliced.Write(evilFrames[len(evilFrames)-1]) // the tampered slice's foot
	if _, _, err := wire.ReadShardTransfer(bytes.NewReader(spliced.Bytes()), h); !errors.Is(err, wire.ErrTransferDigest) {
		t.Fatalf("spliced transfer error = %v, want ErrTransferDigest", err)
	}

	// Truncate: drop the foot entirely.
	var cut bytes.Buffer
	for _, f := range cleanFrames[:len(cleanFrames)-1] {
		cut.Write(f)
	}
	if _, _, err := wire.ReadShardTransfer(bytes.NewReader(cut.Bytes()), h); !errors.Is(err, wire.ErrTransferTruncated) {
		t.Fatalf("truncated transfer error = %v, want ErrTransferTruncated", err)
	}
}

// TestLeaseFrameRoundTrip pins the heartbeat codec: request and
// acknowledgement survive a frame round trip field-exact.
func TestLeaseFrameRoundTrip(t *testing.T) {
	req := &wire.LeaseRequest{Coordinator: "coord-a", Epoch: 7, TTLMillis: 15000, Seq: 42}
	var buf bytes.Buffer
	if err := wire.WriteLeaseRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	gotReq, err := wire.ReadLeaseRequest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if *gotReq != *req {
		t.Fatalf("request round trip: %+v != %+v", gotReq, req)
	}

	resp := &wire.LeaseResponse{Epoch: 7, Hosted: 3, Inflight: 11}
	buf.Reset()
	if err := wire.WriteLeaseResponse(&buf, resp); err != nil {
		t.Fatal(err)
	}
	gotResp, err := wire.ReadLeaseResponse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if *gotResp != *resp {
		t.Fatalf("response round trip: %+v != %+v", gotResp, resp)
	}
}

// FuzzReadLeaseFrame fuzzes both heartbeat decoders with raw bytes:
// neither may panic, and any frame either accepts must re-encode to
// exactly its input bytes. The coordinator feeds these decoders bytes
// from nodes it explicitly does not trust.
func FuzzReadLeaseFrame(f *testing.F) {
	var seed bytes.Buffer
	if err := wire.WriteLeaseRequest(&seed, &wire.LeaseRequest{Coordinator: "c", Epoch: 1, TTLMillis: 1000, Seq: 1}); err != nil {
		f.Fatal(err)
	}
	if err := wire.WriteLeaseResponse(&seed, &wire.LeaseResponse{Epoch: 1, Hosted: 2, Inflight: 3}); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 42})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		canonicalFrames(t, data, func(r io.Reader, w io.Writer) error {
			req, err := wire.ReadLeaseRequest(r)
			if err != nil {
				return err
			}
			if err := wire.WriteLeaseRequest(w, req); err != nil {
				t.Fatalf("accepted lease request does not re-encode: %v", err)
			}
			return nil
		})
		canonicalFrames(t, data, func(r io.Reader, w io.Writer) error {
			resp, err := wire.ReadLeaseResponse(r)
			if err != nil {
				return err
			}
			if err := wire.WriteLeaseResponse(w, resp); err != nil {
				t.Fatalf("accepted lease response does not re-encode: %v", err)
			}
			return nil
		})
	})
}

// FuzzReadNodeFrame fuzzes the sub-stream frame decoder — the bytes the
// coordinator's merge path, the edge-cache replay and the fault
// injector's frame parser all consume from untrusted peers. It must never
// panic, and accepted frames must re-encode to exactly their input bytes.
func FuzzReadNodeFrame(f *testing.F) {
	var seed bytes.Buffer
	h := hashx.New()
	for _, fr := range []*wire.NodeFrame{
		{Hello: &wire.NodeHello{Shard: 1, Epoch: 2, Digest: h.Hash([]byte("d"))}},
		{Chunk: sampleChunks()[1]},
		{Foot: &wire.NodeFoot{Entries: 1, Partial: []byte{7}, NeedPrevG: true}},
		{Err: "boom"},
	} {
		if err := wire.WriteNodeFrame(&seed, fr); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 42})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		canonicalFrames(t, data, func(r io.Reader, w io.Writer) error {
			fr, err := wire.ReadNodeFrame(r)
			if err != nil {
				return err
			}
			if err := wire.WriteNodeFrame(w, fr); err != nil {
				t.Fatalf("accepted node frame does not re-encode: %v", err)
			}
			return nil
		})
	})
}

// FuzzReadShardTransfer fuzzes the transfer decoder — the bytes a node
// installs from a peer it does not trust. Frame by frame the codec is
// canonical; a whole transfer it accepts must carry exactly the records
// its manifest claims, and must survive a re-encode and re-read
// unchanged.
func FuzzReadShardTransfer(f *testing.F) {
	h := hashx.New()
	o := owner.NewWithKey(h, signKey(f))
	rel, err := workload.Uniform(workload.UniformConfig{N: 6, L: 0, U: 1 << 16, PayloadSize: 4, Seed: 9})
	if err != nil {
		f.Fatal(err)
	}
	sr, err := o.Publish(rel, 2)
	if err != nil {
		f.Fatal(err)
	}
	set, err := partition.Split(sr, 2)
	if err != nil {
		f.Fatal(err)
	}
	var seed bytes.Buffer
	if err := wire.WriteShardTransfer(&seed, h, wire.ShardManifest{Spec: set.Spec, Shard: 1}, set.Slices[1]); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 42})
	f.Fuzz(func(t *testing.T, data []byte) {
		canonicalFrames(t, data, func(r io.Reader, w io.Writer) error {
			fr, err := wire.ReadTransferFrame(r)
			if err != nil {
				return err
			}
			if err := wire.WriteTransferFrame(w, fr); err != nil {
				t.Fatalf("accepted transfer frame does not re-encode: %v", err)
			}
			return nil
		})
		man, got, err := wire.ReadShardTransfer(bytes.NewReader(data), h)
		if err != nil {
			return
		}
		if len(got.Recs) != man.Records {
			t.Fatalf("accepted transfer is inconsistent: %d records, manifest says %d", len(got.Recs), man.Records)
		}
		var again bytes.Buffer
		if err := wire.WriteShardTransfer(&again, h, man, got); err != nil {
			t.Fatalf("accepted transfer does not re-encode: %v", err)
		}
		man2, got2, err := wire.ReadShardTransfer(&again, h)
		if err != nil || !reflect.DeepEqual(man2, man) || !reflect.DeepEqual(got2, got) {
			t.Fatalf("accepted transfer changes on a re-encode (%v)", err)
		}
	})
}
