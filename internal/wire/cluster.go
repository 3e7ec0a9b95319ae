package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"vcqr/internal/core"
	"vcqr/internal/delta"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/obs"
	"vcqr/internal/partition"
	"vcqr/internal/relation"
	"vcqr/internal/sig"
)

// This file is the coordinator/node half of the wire protocol
// (internal/cluster): per-shard sub-streams, shard slice transfer, edge
// and digest probes, and the two-phase distributed delta. Sub-streams,
// edge probes, leases and transfers ride the shared binary frame codec
// (codec.go) like the user-facing chunk streams; request bodies and the
// delta/admin control calls stay gob. As everywhere in this system,
// nothing in the transport is trusted: a node that lies produces a
// merged stream the user's verifier rejects, a tampered transfer dies on
// the receiver's digest compare and signature validation.

// Cluster transport errors.
var (
	// ErrTransferDigest reports a shard transfer whose streamed records
	// do not fold to the digest its foot claims — a tampered or corrupted
	// transfer, rejected before any signature work.
	ErrTransferDigest = errors.New("wire: shard transfer digest mismatch")
	// ErrTransferTruncated reports a transfer stream that ended before
	// its foot frame.
	ErrTransferTruncated = errors.New("wire: shard transfer truncated")
)

// NotHostingMsg is the error-string marker a node uses when refusing a
// shard request for a shard it does not host. The coordinator detects it
// (IsNotHosting) and re-reads its routing table: the usual cause is a
// request raced with a migration's routing swing.
const NotHostingMsg = "not hosting shard"

// IsNotHosting reports whether a remote error is a node's stale-routing
// refusal.
func IsNotHosting(err error) bool {
	return err != nil && strings.Contains(err.Error(), NotHostingMsg)
}

// --- shard sub-streams ------------------------------------------------

// ShardStreamRequest asks a node for one shard's partial of a fan-out:
// the entries covering [Lo, Hi] on the named shard's pinned slice, plus
// the boundary proofs its cover position (First/Last) obliges. The node
// recomputes the effective rewrite from Role and Query exactly as the
// coordinator did, so the two cannot disagree without failing fast.
type ShardStreamRequest struct {
	Role  string
	Query engine.Query
	Shard int
	// Lo, Hi is the sub-range of the effective query this shard covers.
	Lo, Hi uint64
	// First and Last mark the cover's edge positions, which must supply
	// the left/right boundary proofs of the whole effective range.
	First, Last bool
	ChunkRows   int
	// RoutingEpoch is the coordinator's routing-table version when it
	// issued the request; echoed in errors for operator diagnostics.
	RoutingEpoch uint64
	// Trace is the coordinator-minted trace ID, propagated so the node's
	// slow-query log and sub-stream timing carry the same ID as the
	// coordinator's span. Optional: old nodes decode requests without it
	// unchanged (gob skips unknown fields) and simply don't echo timing.
	// Advisory only — never part of the verified material.
	Trace string
}

// NodeHello is the first frame of a shard sub-stream: the pinned slice's
// epoch and seam material (the digest-compare input for cross-node
// hand-off checks), plus the left boundary proof when First.
type NodeHello struct {
	Shard int
	Epoch uint64
	Edges partition.Edges
	Left  *core.BoundaryProof
	// Digest is the pinned slice's identity (partition.SliceDigest) as
	// the node claims it. The coordinator uses it to pick a replica
	// hosting the byte-identical slice when a sub-stream fails over
	// mid-flight, and to attribute seam failures to a lying replica via
	// cross-replica compare. Like Edges it is a claim, not a proof: the
	// user's verifier is what catches a node lying here. May be empty: a
	// hello without one disables digest-pinned failover for that
	// sub-stream.
	Digest hashx.Digest
}

// NodeFoot is the last frame of a shard sub-stream: the shard's entry
// count and partial condensed signature, the right boundary proof when
// Last, and the empty-range predecessor material when First and empty
// (see engine.ShardFeedFoot, which this mirrors on the wire).
type NodeFoot struct {
	Entries   uint64
	Partial   sig.Signature
	Right     *core.BoundaryProof
	PredSig   sig.Signature
	PredPrevG hashx.Digest
	NeedPrevG bool

	// Timing is the node's advisory per-stage breakdown for this
	// sub-stream (assembly, agg-index lookups...), echoed so the
	// coordinator can attribute a slow merged stream to the node at
	// fault. May be empty; outside every digest and signature — the seam
	// material above it is what hand-off checks compare.
	Timing []obs.StageDur
}

// NodeFrame is one frame of a shard sub-stream: exactly one field set.
type NodeFrame struct {
	Hello *NodeHello
	Chunk *engine.Chunk
	Foot  *NodeFoot
	Err   string
}

// WriteNodeFrame writes one sub-stream frame; ReadNodeFrame is its
// counterpart (the client's NodeStream wraps it). A frame must set
// exactly one field.
func WriteNodeFrame(w io.Writer, f *NodeFrame) error {
	if !exactlyOne(f.Hello != nil, f.Chunk != nil, f.Foot != nil, f.Err != "") {
		return fmt.Errorf("wire: node frame must set exactly one field")
	}
	switch {
	case f.Hello != nil:
		h := f.Hello
		return sendFrame(w, tagNodeHello, func(b []byte) []byte {
			b = appendInt(b, h.Shard)
			b = binary.AppendUvarint(b, h.Epoch)
			b = appendEdges(b, &h.Edges)
			b = appendOptProof(b, h.Left)
			return appendBytes(b, h.Digest)
		})
	case f.Chunk != nil:
		return sendFrame(w, tagNodeChunk, func(b []byte) []byte { return appendChunk(b, f.Chunk) })
	case f.Foot != nil:
		ft := f.Foot
		return sendFrame(w, tagNodeFoot, func(b []byte) []byte {
			b = binary.AppendUvarint(b, ft.Entries)
			b = appendBytes(b, ft.Partial)
			b = appendOptProof(b, ft.Right)
			b = appendBytes(b, ft.PredSig)
			b = appendBytes(b, ft.PredPrevG)
			b = appendBool(b, ft.NeedPrevG)
			return appendTiming(b, ft.Timing)
		})
	}
	return sendFrame(w, tagNodeErr, func(b []byte) []byte { return appendString(b, f.Err) })
}

// ReadNodeFrame reads one sub-stream frame.
func ReadNodeFrame(r io.Reader) (*NodeFrame, error) {
	d, tag, err := recvFrame(r)
	if err != nil {
		return nil, err
	}
	f := new(NodeFrame)
	switch tag {
	case tagNodeHello:
		h := new(NodeHello)
		h.Shard = d.int()
		h.Epoch = d.uvarint()
		d.edges(&h.Edges)
		h.Left = d.optProof()
		h.Digest = d.bytes()
		f.Hello = h
	case tagNodeChunk:
		f.Chunk = new(engine.Chunk)
		d.chunk(f.Chunk)
	case tagNodeFoot:
		ft := new(NodeFoot)
		ft.Entries = d.uvarint()
		ft.Partial = d.bytes()
		ft.Right = d.optProof()
		ft.PredSig = d.bytes()
		ft.PredPrevG = d.bytes()
		ft.NeedPrevG = d.bool()
		ft.Timing = d.timing()
		f.Foot = ft
	case tagNodeErr:
		// An empty message would re-encode as no frame at all.
		if f.Err = d.str(); f.Err == "" {
			d.fail()
		}
	default:
		d.fail()
	}
	if err := d.done(); err != nil {
		return nil, fmt.Errorf("wire: decode node frame: %w", err)
	}
	return f, nil
}

func appendEdges(b []byte, e *partition.Edges) []byte {
	for i := range e.Head {
		b = appendRecord(b, &e.Head[i])
	}
	for i := range e.Tail {
		b = appendRecord(b, &e.Tail[i])
	}
	return b
}

func (d *frameDecoder) edges(e *partition.Edges) {
	for i := range e.Head {
		d.record(&e.Head[i])
	}
	for i := range e.Tail {
		d.record(&e.Tail[i])
	}
}

// NodeStream is a client-side shard sub-stream in consumption order:
// Hello (already read), Next until io.EOF, Foot, Close.
type NodeStream struct {
	body  io.ReadCloser
	hello NodeHello
	foot  *NodeFoot
	err   error
}

// ShardStream opens one shard sub-stream against a node. The hello frame
// is consumed before returning, so a stale-routing refusal surfaces here
// (IsNotHosting) rather than mid-merge.
func (c *Client) ShardStream(req ShardStreamRequest) (*NodeStream, error) {
	return c.ShardStreamTee(req, nil)
}

// ShardStreamTee is ShardStream with every raw byte the node sends — the
// hello, chunk and foot frames exactly as framed — copied into tee as it
// is consumed. The edge-cache fill path records sub-streams this way: a
// fully drained tee holds the byte-exact frame sequence a later replay
// decodes back into the merge. A nil tee is ShardStream.
func (c *Client) ShardStreamTee(req ShardStreamRequest, tee io.Writer) (*NodeStream, error) {
	body, err := c.postForFrames("/shard/stream", req)
	if err != nil {
		return nil, err
	}
	rbody := body
	if tee != nil {
		rbody = &teeReadCloser{r: io.TeeReader(body, tee), c: body}
	}
	f, err := ReadNodeFrame(rbody)
	if err != nil {
		rbody.Close()
		return nil, err
	}
	switch {
	case f.Err != "":
		rbody.Close()
		return nil, fmt.Errorf("wire: node error: %s", f.Err)
	case f.Hello == nil:
		rbody.Close()
		return nil, fmt.Errorf("wire: shard sub-stream did not open with a hello frame")
	}
	return &NodeStream{body: rbody, hello: *f.Hello}, nil
}

// teeReadCloser pairs a TeeReader with the underlying body's closer.
type teeReadCloser struct {
	r io.Reader
	c io.Closer
}

func (t *teeReadCloser) Read(p []byte) (int, error) { return t.r.Read(p) }
func (t *teeReadCloser) Close() error               { return t.c.Close() }

// Hello returns the sub-stream's opening frame.
func (ns *NodeStream) Hello() NodeHello { return ns.hello }

// Next returns the next entries chunk, io.EOF once the foot frame has
// arrived.
func (ns *NodeStream) Next() (*engine.Chunk, error) {
	if ns.err != nil {
		return nil, ns.err
	}
	if ns.foot != nil {
		return nil, io.EOF
	}
	f, err := ReadNodeFrame(ns.body)
	if err != nil {
		if err == io.EOF {
			err = fmt.Errorf("%w: sub-stream ended before its foot", ErrFrameTruncated)
		}
		ns.err = err
		return nil, err
	}
	switch {
	case f.Err != "":
		ns.err = fmt.Errorf("wire: node error: %s", f.Err)
		return nil, ns.err
	case f.Foot != nil:
		ns.foot = f.Foot
		return nil, io.EOF
	case f.Chunk != nil:
		return f.Chunk, nil
	}
	ns.err = fmt.Errorf("wire: empty sub-stream frame")
	return nil, ns.err
}

// Foot returns the sub-stream's summary; valid once Next returned io.EOF.
func (ns *NodeStream) Foot() (NodeFoot, error) {
	if ns.err != nil {
		return NodeFoot{}, ns.err
	}
	if ns.foot == nil {
		return NodeFoot{}, fmt.Errorf("wire: sub-stream foot before drain")
	}
	return *ns.foot, nil
}

// Close releases the underlying response body.
func (ns *NodeStream) Close() error { return ns.body.Close() }

// --- shard transfer ---------------------------------------------------

// ShardManifest opens a shard transfer: which slice of which layout is
// being shipped, with everything the receiver needs to reconstruct a
// servable SignedRelation.
type ShardManifest struct {
	Spec   partition.Spec
	Shard  int
	Params core.Params
	Schema relation.Schema
	// Records is the total entry count (owned + both context records).
	Records int
	// Epoch and Deltas are source-side bookkeeping: the store epoch the
	// slice was read at and the deltas it had absorbed since install.
	Epoch  uint64
	Deltas uint64
}

// TransferFoot closes a shard transfer with the slice digest
// (partition.SliceDigest) of everything that was streamed.
type TransferFoot struct {
	Digest hashx.Digest
}

// TransferFrame is one frame of a shard transfer: exactly one field set.
type TransferFrame struct {
	Manifest *ShardManifest
	Recs     []core.SignedRecord
	Foot     *TransferFoot
	Err      string
}

// transferBatch bounds records per transfer frame: large enough to
// amortize framing, small enough to keep frames well under the cap.
const transferBatch = 256

// writeTransferFrame writes one transfer frame; exactly one field must
// be set (a record batch must be non-empty).
func writeTransferFrame(w io.Writer, f *TransferFrame) error {
	if !exactlyOne(f.Manifest != nil, len(f.Recs) > 0, f.Foot != nil, f.Err != "") {
		return fmt.Errorf("wire: transfer frame must set exactly one field")
	}
	switch {
	case f.Manifest != nil:
		m := f.Manifest
		return sendFrame(w, tagTransferManifest, func(b []byte) []byte {
			b = appendString(b, m.Spec.Relation)
			b = binary.AppendUvarint(b, uint64(len(m.Spec.Cuts)))
			for _, c := range m.Spec.Cuts {
				b = binary.AppendUvarint(b, c)
			}
			b = binary.AppendUvarint(b, m.Spec.Version)
			b = appendInt(b, m.Shard)
			b = binary.AppendUvarint(b, m.Params.L)
			b = binary.AppendUvarint(b, m.Params.U)
			b = binary.AppendUvarint(b, m.Params.BP.B)
			b = appendInt(b, m.Params.BP.Digits)
			b = binary.AppendUvarint(b, m.Params.Version)
			b = appendString(b, m.Schema.Name)
			b = appendString(b, m.Schema.KeyName)
			b = binary.AppendUvarint(b, uint64(len(m.Schema.Cols)))
			for _, c := range m.Schema.Cols {
				b = appendString(b, c.Name)
				b = appendInt(b, int(c.Type))
			}
			b = appendInt(b, m.Records)
			b = binary.AppendUvarint(b, m.Epoch)
			return binary.AppendUvarint(b, m.Deltas)
		})
	case len(f.Recs) > 0:
		return sendFrame(w, tagTransferRecs, func(b []byte) []byte {
			b = binary.AppendUvarint(b, uint64(len(f.Recs)))
			for i := range f.Recs {
				b = appendRecord(b, &f.Recs[i])
			}
			return b
		})
	case f.Foot != nil:
		return sendFrame(w, tagTransferFoot, func(b []byte) []byte { return appendBytes(b, f.Foot.Digest) })
	}
	return sendFrame(w, tagTransferErr, func(b []byte) []byte { return appendString(b, f.Err) })
}

// readTransferFrame reads one transfer frame.
func readTransferFrame(r io.Reader) (*TransferFrame, error) {
	d, tag, err := recvFrame(r)
	if err != nil {
		return nil, err
	}
	f := new(TransferFrame)
	switch tag {
	case tagTransferManifest:
		m := new(ShardManifest)
		m.Spec.Relation = d.str()
		if n := d.count(minBytesField); n > 0 {
			m.Spec.Cuts = make([]uint64, n)
			for i := range m.Spec.Cuts {
				m.Spec.Cuts[i] = d.uvarint()
			}
		}
		m.Spec.Version = d.uvarint()
		m.Shard = d.int()
		m.Params.L = d.uvarint()
		m.Params.U = d.uvarint()
		m.Params.BP.B = d.uvarint()
		m.Params.BP.Digits = d.int()
		m.Params.Version = d.uvarint()
		m.Schema.Name = d.str()
		m.Schema.KeyName = d.str()
		if n := d.count(minColumn); n > 0 {
			m.Schema.Cols = make([]relation.Column, n)
			for i := range m.Schema.Cols {
				m.Schema.Cols[i].Name = d.str()
				m.Schema.Cols[i].Type = relation.Type(d.int())
			}
		}
		m.Records = d.int()
		m.Epoch = d.uvarint()
		m.Deltas = d.uvarint()
		f.Manifest = m
	case tagTransferRecs:
		n := d.count(minRecord)
		if n == 0 {
			d.fail()
		}
		f.Recs = make([]core.SignedRecord, n)
		for i := range f.Recs {
			d.record(&f.Recs[i])
		}
	case tagTransferFoot:
		f.Foot = &TransferFoot{Digest: d.bytes()}
	case tagTransferErr:
		if f.Err = d.str(); f.Err == "" {
			d.fail()
		}
	default:
		d.fail()
	}
	if err := d.done(); err != nil {
		return nil, fmt.Errorf("wire: decode transfer frame: %w", err)
	}
	return f, nil
}

// WriteShardTransfer streams one shard slice as transfer frames:
// manifest, record batches, foot with the slice digest.
func WriteShardTransfer(w io.Writer, h *hashx.Hasher, man ShardManifest, sr *core.SignedRelation) error {
	man.Records = len(sr.Recs)
	man.Params = sr.Params
	man.Schema = sr.Schema
	if err := writeTransferFrame(w, &TransferFrame{Manifest: &man}); err != nil {
		return err
	}
	for off := 0; off < len(sr.Recs); off += transferBatch {
		end := min(off+transferBatch, len(sr.Recs))
		if err := writeTransferFrame(w, &TransferFrame{Recs: sr.Recs[off:end]}); err != nil {
			return err
		}
	}
	return writeTransferFrame(w, &TransferFrame{Foot: &TransferFoot{Digest: partition.SliceDigest(h, sr)}})
}

// ReadShardTransfer consumes a transfer stream and reconstructs the
// slice, verifying the streamed records against the foot's slice digest
// — the transfer-integrity half of the trust story; the receiver still
// owes the signature validation of an untrusted feed.
func ReadShardTransfer(r io.Reader, h *hashx.Hasher) (ShardManifest, *core.SignedRelation, error) {
	f, err := readTransferFrame(r)
	if err != nil {
		if err == io.EOF {
			err = ErrTransferTruncated
		}
		return ShardManifest{}, nil, err
	}
	if f.Err != "" {
		return ShardManifest{}, nil, fmt.Errorf("wire: transfer error: %s", f.Err)
	}
	if f.Manifest == nil {
		return ShardManifest{}, nil, fmt.Errorf("wire: shard transfer did not open with a manifest")
	}
	man := *f.Manifest
	if man.Records < 3 || man.Records > MaxChunkFrame {
		return ShardManifest{}, nil, fmt.Errorf("wire: implausible transfer record count %d", man.Records)
	}
	// The claimed count sizes at most a few batches up front: the rest
	// grows as records actually arrive, in frames their length bounds.
	sr := &core.SignedRelation{Params: man.Params, Schema: man.Schema,
		Recs: make([]core.SignedRecord, 0, min(man.Records, 4*transferBatch))}
	for {
		f, err := readTransferFrame(r)
		if err != nil {
			if err == io.EOF {
				err = ErrTransferTruncated
			}
			return man, nil, err
		}
		switch {
		case f.Err != "":
			return man, nil, fmt.Errorf("wire: transfer error: %s", f.Err)
		case f.Foot != nil:
			if len(sr.Recs) != man.Records {
				return man, nil, fmt.Errorf("%w: %d records streamed, manifest says %d", ErrTransferTruncated, len(sr.Recs), man.Records)
			}
			if !partition.SliceDigest(h, sr).Equal(f.Foot.Digest) {
				return man, nil, ErrTransferDigest
			}
			return man, sr, nil
		case f.Manifest != nil:
			return man, nil, fmt.Errorf("wire: shard transfer carries a second manifest")
		}
		if len(sr.Recs)+len(f.Recs) > man.Records {
			return man, nil, fmt.Errorf("wire: transfer overran its manifest record count")
		}
		sr.Recs = append(sr.Recs, f.Recs...)
	}
}

// --- control-plane requests ------------------------------------------

// ShardRef names one shard of one relation.
type ShardRef struct {
	Relation string
	Shard    int
}

// EdgeResponse returns a hosted slice's seam material and epoch.
type EdgeResponse struct {
	Epoch uint64
	Edges partition.Edges
	Err   string
}

// DigestResponse returns a hosted slice's identity summary — the digest
// compare primitive of migration cutover and crash recovery.
type DigestResponse struct {
	Epoch  uint64
	Digest hashx.Digest
	// InstallDigest is the slice digest as it was when this copy was
	// installed on the node. Digest != InstallDigest means the copy has
	// absorbed writes since — the signal recovery uses to pick the
	// written-to copy of a double-hosted shard.
	InstallDigest hashx.Digest
	Records       int
	// Deltas counts update batches the slice absorbed since it was
	// installed on this node.
	Deltas uint64
	Err    string
}

// HostedShard is one hosted slice in a node's inventory.
type HostedShard struct {
	Shard         int
	Epoch         uint64
	Digest        hashx.Digest
	InstallDigest hashx.Digest
	Records       int
	Deltas        uint64
}

// HostedInfo is one relation's hosting state on a node.
type HostedInfo struct {
	Spec   partition.Spec
	Shards []HostedShard
}

// HostedResponse inventories everything a node hosts.
type HostedResponse struct {
	Relations map[string]HostedInfo
	Err       string
}

// OKResponse acknowledges a control operation.
type OKResponse struct {
	Epoch uint64
	Err   string
}

// --- leases / heartbeats ----------------------------------------------

// LeaseRequest is one coordinator→node heartbeat: the grant of a serving
// lease for TTLMillis, carrying the coordinator's current routing epoch
// so a node can detect it is being driven by a stale coordinator. Leases
// are an availability mechanism only — nothing in the verified material
// depends on them; a node serving past its lease can at worst waste a
// client's time, never forge a result.
type LeaseRequest struct {
	// Coordinator identifies the granting coordinator (its advertised
	// URL, or a process tag in tests) for the node's /statsz.
	Coordinator string
	// Epoch is the coordinator's routing epoch at grant time.
	Epoch uint64
	// TTLMillis is the lease duration; the node treats its lease as
	// expired TTLMillis after the last heartbeat it acknowledged.
	TTLMillis int64
	// Seq increments per heartbeat per coordinator, so a delayed
	// re-ordered heartbeat cannot roll a node's lease view backwards.
	Seq uint64
}

// LeaseResponse acknowledges a heartbeat with the node's load signals —
// the inputs to the coordinator's least-loaded replica selection.
type LeaseResponse struct {
	// Epoch echoes the highest routing epoch the node has seen.
	Epoch uint64
	// Hosted is the node's hosted-shard count across relations.
	Hosted int
	// Inflight is the node's count of active shard sub-streams.
	Inflight uint64
	Err      string
}

// WriteLeaseRequest / ReadLeaseRequest frame a heartbeat on the shared
// frame codec. Exported so the fuzz harness can hammer the decode path
// with raw bytes exactly as the endpoint receives them.
func WriteLeaseRequest(w io.Writer, req *LeaseRequest) error {
	return sendFrame(w, tagLeaseRequest, func(b []byte) []byte {
		b = appendString(b, req.Coordinator)
		b = binary.AppendUvarint(b, req.Epoch)
		b = binary.AppendVarint(b, req.TTLMillis)
		return binary.AppendUvarint(b, req.Seq)
	})
}

// ReadLeaseRequest reads one framed heartbeat.
func ReadLeaseRequest(r io.Reader) (*LeaseRequest, error) {
	d, err := recvTagged(r, tagLeaseRequest)
	if err != nil {
		return nil, err
	}
	req := &LeaseRequest{
		Coordinator: d.str(),
		Epoch:       d.uvarint(),
		TTLMillis:   d.varint(),
		Seq:         d.uvarint(),
	}
	if err := d.done(); err != nil {
		return nil, fmt.Errorf("wire: decode lease request: %w", err)
	}
	return req, nil
}

// WriteLeaseResponse frames a heartbeat acknowledgement.
func WriteLeaseResponse(w io.Writer, resp *LeaseResponse) error {
	return sendFrame(w, tagLeaseResponse, func(b []byte) []byte {
		b = binary.AppendUvarint(b, resp.Epoch)
		b = appendInt(b, resp.Hosted)
		b = binary.AppendUvarint(b, resp.Inflight)
		return appendString(b, resp.Err)
	})
}

// ReadLeaseResponse reads one framed heartbeat acknowledgement.
func ReadLeaseResponse(r io.Reader) (*LeaseResponse, error) {
	d, err := recvTagged(r, tagLeaseResponse)
	if err != nil {
		return nil, err
	}
	resp := &LeaseResponse{
		Epoch:    d.uvarint(),
		Hosted:   d.int(),
		Inflight: d.uvarint(),
		Err:      d.str(),
	}
	if err := d.done(); err != nil {
		return nil, fmt.Errorf("wire: decode lease response: %w", err)
	}
	return resp, nil
}

// WriteEdgeResponse frames a /shard/edges answer — the seam material the
// coordinator probes on every pinned cross-shard query.
func WriteEdgeResponse(w io.Writer, resp *EdgeResponse) error {
	return sendFrame(w, tagEdges, func(b []byte) []byte {
		b = binary.AppendUvarint(b, resp.Epoch)
		b = appendEdges(b, &resp.Edges)
		return appendString(b, resp.Err)
	})
}

// ReadEdgeResponse reads one framed edge-probe answer.
func ReadEdgeResponse(r io.Reader) (*EdgeResponse, error) {
	d, err := recvTagged(r, tagEdges)
	if err != nil {
		return nil, err
	}
	resp := new(EdgeResponse)
	resp.Epoch = d.uvarint()
	d.edges(&resp.Edges)
	resp.Err = d.str()
	if err := d.done(); err != nil {
		return nil, fmt.Errorf("wire: decode edge response: %w", err)
	}
	return resp, nil
}

// --- two-phase distributed delta -------------------------------------

// NodeDeltaRequest asks a node to *stage* an update batch against the
// shards it hosts: apply, stitch co-hosted mirrors, validate everything
// checkable locally — but publish nothing. The coordinator follows with
// cross-node mirror fixes and seam checks, then commits or aborts.
type NodeDeltaRequest struct {
	Delta delta.Delta
}

// ModifiedShard reports one staged slice's post-delta seam material.
type ModifiedShard struct {
	Shard int
	Edges partition.Edges
}

// NodeDeltaResponse returns the staging token and the staged edges.
type NodeDeltaResponse struct {
	Token    uint64
	Modified []ModifiedShard
	Err      string
}

// MirrorRequest refreshes one staged slice's context record with the
// adjacent shard's (staged) edge record — the cross-node half of mirror
// stitching. Token 0 opens a new staging transaction on the node.
type MirrorRequest struct {
	Token    uint64
	Relation string
	Shard    int
	// Left selects which context record to refresh: the slice's left
	// (position 0) or right (last position).
	Left bool
	Rec  core.SignedRecord
}

// MirrorResponse acknowledges a mirror fix with the staging token (fresh
// when the request opened one) and the fixed slice's staged edges.
type MirrorResponse struct {
	Token uint64
	Edges partition.Edges
	Err   string
}

// TxRequest commits or aborts a node's staged delta.
type TxRequest struct {
	Relation string
	Token    uint64
	Commit   bool
}

// --- client methods ---------------------------------------------------

// postGob posts a gob request and decodes a gob response.
func (c *Client) postGob(path string, req, resp any) error {
	httpc := c.HTTP
	if httpc == nil {
		httpc = http.DefaultClient
	}
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(req); err != nil {
		return fmt.Errorf("wire: encode request: %w", err)
	}
	hresp, err := httpc.Post(c.BaseURL+path, "application/octet-stream", &body)
	if err != nil {
		return fmt.Errorf("wire: post %s: %w", path, err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hresp.Body, 1024))
		return fmt.Errorf("wire: node returned %s on %s: %s", hresp.Status, path, strings.TrimSpace(string(msg)))
	}
	if err := gob.NewDecoder(hresp.Body).Decode(resp); err != nil {
		return fmt.Errorf("wire: decode %s response: %w", path, err)
	}
	return nil
}

// ObsExport scrapes a peer's /metrics.json histogram snapshot — the
// coordinator uses it to fold node-level latency into its cluster-wide
// /metrics aggregate. The data is advisory monitoring state; a node that
// lies here can only corrupt dashboards, never results.
func (c *Client) ObsExport() (obs.Export, error) {
	httpc := c.HTTP
	if httpc == nil {
		httpc = http.DefaultClient
	}
	resp, err := httpc.Get(c.BaseURL + "/metrics.json")
	if err != nil {
		return obs.Export{}, fmt.Errorf("wire: get metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return obs.Export{}, fmt.Errorf("wire: node returned %s on /metrics.json", resp.Status)
	}
	return obs.DecodeExport(io.LimitReader(resp.Body, 8<<20))
}

// postForFrames posts a gob request body and returns the response body
// of frames on 200; any other status is an error carrying the node's
// message.
func (c *Client) postForFrames(path string, req any) (io.ReadCloser, error) {
	httpc := c.HTTP
	if httpc == nil {
		httpc = http.DefaultClient
	}
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(req); err != nil {
		return nil, fmt.Errorf("wire: encode %s request: %w", path, err)
	}
	resp, err := httpc.Post(c.BaseURL+path, "application/octet-stream", &body)
	if err != nil {
		return nil, fmt.Errorf("wire: post %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		resp.Body.Close()
		return nil, fmt.Errorf("wire: node returned %s on %s: %s", resp.Status, path, strings.TrimSpace(string(msg)))
	}
	return resp.Body, nil
}

// ShardEdges fetches a hosted slice's seam material.
func (c *Client) ShardEdges(ref ShardRef) (EdgeResponse, error) {
	body, err := c.postForFrames("/shard/edges", ref)
	if err != nil {
		return EdgeResponse{}, err
	}
	defer body.Close()
	out, err := ReadEdgeResponse(body)
	if err != nil {
		return EdgeResponse{}, err
	}
	if out.Err != "" {
		return *out, fmt.Errorf("wire: node error: %s", out.Err)
	}
	return *out, nil
}

// ShardDigest fetches a hosted slice's digest summary.
func (c *Client) ShardDigest(ref ShardRef) (DigestResponse, error) {
	var out DigestResponse
	if err := c.postGob("/shard/digest", ref, &out); err != nil {
		return out, err
	}
	if out.Err != "" {
		return out, fmt.Errorf("wire: node error: %s", out.Err)
	}
	return out, nil
}

// ShardRemove drops a hosted slice from a node. In-flight streams keep
// their pinned snapshots; only new requests are refused.
func (c *Client) ShardRemove(ref ShardRef) error {
	var out OKResponse
	if err := c.postGob("/shard/remove", ref, &out); err != nil {
		return err
	}
	if out.Err != "" {
		return fmt.Errorf("wire: node error: %s", out.Err)
	}
	return nil
}

// Hosted inventories the node.
func (c *Client) Hosted() (HostedResponse, error) {
	var out HostedResponse
	if err := c.postGob("/node/hosted", struct{}{}, &out); err != nil {
		return out, err
	}
	if out.Err != "" {
		return out, fmt.Errorf("wire: node error: %s", out.Err)
	}
	return out, nil
}

// ShardFetch opens a transfer stream for a hosted slice. The caller owns
// the returned body (positioned at the manifest frame) and must close it.
func (c *Client) ShardFetch(ref ShardRef) (io.ReadCloser, error) {
	return c.postForFrames("/shard/fetch", ref)
}

// ShardInstall streams transfer frames from r into a node's install
// endpoint. The reader is typically a ShardFetch body (migration) or a
// local WriteShardTransfer pipe (initial placement).
func (c *Client) ShardInstall(r io.Reader) (OKResponse, error) {
	httpc := c.HTTP
	if httpc == nil {
		httpc = http.DefaultClient
	}
	resp, err := httpc.Post(c.BaseURL+"/shard/install", "application/octet-stream", r)
	if err != nil {
		return OKResponse{}, fmt.Errorf("wire: post install: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return OKResponse{}, fmt.Errorf("wire: node returned %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	var out OKResponse
	if err := gob.NewDecoder(resp.Body).Decode(&out); err != nil {
		return OKResponse{}, fmt.Errorf("wire: decode install response: %w", err)
	}
	if out.Err != "" {
		return out, fmt.Errorf("wire: node rejected install: %s", out.Err)
	}
	return out, nil
}

// NodeDeltaPrepare stages an update batch on a node.
func (c *Client) NodeDeltaPrepare(d delta.Delta) (NodeDeltaResponse, error) {
	var out NodeDeltaResponse
	if err := c.postGob("/node/delta", NodeDeltaRequest{Delta: d}, &out); err != nil {
		return out, err
	}
	if out.Err != "" {
		return out, fmt.Errorf("wire: node rejected delta: %s", out.Err)
	}
	return out, nil
}

// NodeMirror applies one cross-node mirror fix to a staged delta.
func (c *Client) NodeMirror(req MirrorRequest) (MirrorResponse, error) {
	var out MirrorResponse
	if err := c.postGob("/node/mirror", req, &out); err != nil {
		return out, err
	}
	if out.Err != "" {
		return out, fmt.Errorf("wire: node rejected mirror fix: %s", out.Err)
	}
	return out, nil
}

// NodeLease sends one heartbeat to a node's lease endpoint. Unlike the
// gob control calls this rides the frame codec in both directions, so
// the decode surface on both sides is the fuzzed one.
func (c *Client) NodeLease(req LeaseRequest) (LeaseResponse, error) {
	httpc := c.HTTP
	if httpc == nil {
		httpc = http.DefaultClient
	}
	var body bytes.Buffer
	if err := WriteLeaseRequest(&body, &req); err != nil {
		return LeaseResponse{}, err
	}
	hresp, err := httpc.Post(c.BaseURL+"/node/lease", "application/octet-stream", &body)
	if err != nil {
		return LeaseResponse{}, fmt.Errorf("wire: post lease: %w", err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hresp.Body, 1024))
		return LeaseResponse{}, fmt.Errorf("wire: node returned %s: %s", hresp.Status, strings.TrimSpace(string(msg)))
	}
	resp, err := ReadLeaseResponse(hresp.Body)
	if err != nil {
		return LeaseResponse{}, err
	}
	if resp.Err != "" {
		return *resp, fmt.Errorf("wire: node error: %s", resp.Err)
	}
	return *resp, nil
}

// NodeTx commits or aborts a node's staged delta.
func (c *Client) NodeTx(req TxRequest) (OKResponse, error) {
	var out OKResponse
	if err := c.postGob("/node/tx", req, &out); err != nil {
		return out, err
	}
	if out.Err != "" {
		return out, fmt.Errorf("wire: node error: %s", out.Err)
	}
	return out, nil
}
