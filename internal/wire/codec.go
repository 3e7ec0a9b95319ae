package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"vcqr/internal/core"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/mht"
	"vcqr/internal/obs"
	"vcqr/internal/relation"
	"vcqr/internal/sig"
)

// The frame codec: every length-prefixed frame a tier writes — chunk
// streams, node sub-streams, edge probes, leases, shard transfers and
// the cache protocol — is one binary format:
//
//	[4-byte big-endian payload length][version][tag][fields...]
//
// Fields are written in a fixed order per tag: integers as (u)varints,
// strings, digests and signatures as a uvarint length then the bytes,
// lists as a uvarint count then the elements, bools and optional-pointer
// markers as one byte 0/1, floats as their 8 IEEE bits. There is no field
// skipping: adding or reordering a field is a CodecVersion bump, and a
// peer on another version is refused by the first payload byte
// (ErrFrameVersion) before any field is read.
//
// Decoding is strict, so every accepted frame has exactly one encoding:
// unknown tags, non-minimal varints, bool bytes other than 0/1 and
// trailing bytes are malformed, and every element count is checked
// against the payload bytes left before anything is allocated. Byte
// fields of a decoded frame alias that frame's own payload allocation
// (never a pooled buffer), and zero-length ones decode as nil — the
// verifier reads a nil AggSig or PredPrevG as meaningful.
//
// Nothing in the codec is trusted: a frame that decodes is still only a
// claim, which the verifier, the seam checks and the transfer digest
// judge.

// CodecVersion is the first payload byte of every frame. It lies outside
// the leading byte of any gob message (1–127 or 0xF8–0xFE), so a frame
// from a gob-era build is refused as a version mismatch rather than
// misread.
const CodecVersion byte = 0xC1

// MaxChunkFrame bounds one frame's payload. An engine chunk holds at
// most MaxChunkRows entries of digests and values; anything larger is a
// malformed or malicious stream, rejected before allocation.
const MaxChunkFrame = 64 << 20

// Framing errors.
var (
	// ErrFrameTooBig reports a length prefix beyond MaxChunkFrame.
	ErrFrameTooBig = errors.New("wire: chunk frame exceeds size limit")
	// ErrFrameTruncated reports a stream that ended inside a frame.
	ErrFrameTruncated = errors.New("wire: chunk frame truncated")
	// ErrFrameVersion reports a frame written by another codec version —
	// a peer running a different build.
	ErrFrameVersion = errors.New("wire: frame codec version mismatch (peers must run the same build)")
	// ErrFrameMalformed reports a payload that does not decode strictly
	// as the frame its tag names.
	ErrFrameMalformed = errors.New("wire: malformed frame")
)

// Frame tags. Every frame kind has its own, so a frame fed to the wrong
// reader is malformed rather than misread.
const (
	tagChunk byte = 1 + iota
	tagNodeHello
	tagNodeChunk
	tagNodeFoot
	tagNodeErr
	tagEdges
	tagLeaseRequest
	tagLeaseResponse
	tagTransferManifest
	tagTransferRecs
	tagTransferFoot
	tagTransferErr
	tagCacheGet
	tagCachePut
	tagCacheInvalidate
	tagCacheStats
	tagCacheReply
)

// --- encoding ---------------------------------------------------------

// framePool holds encode scratch: a frame's payload is appended once,
// its length header patched in place, and the whole frame leaves in one
// Write. Buffers that grew beyond maxPooledFrame are dropped instead of
// pooled so one pathological frame cannot pin megabytes.
var framePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

const maxPooledFrame = 1 << 20

// sendFrame encodes one frame with enc (which appends the tag's fields)
// and writes it.
func sendFrame(w io.Writer, tag byte, enc func([]byte) []byte) error {
	bp := framePool.Get().(*[]byte)
	b := enc(append((*bp)[:0], 0, 0, 0, 0, CodecVersion, tag))
	defer func() {
		if cap(b) <= maxPooledFrame {
			*bp = b[:0]
			framePool.Put(bp)
		}
	}()
	n := len(b) - 4
	if n > MaxChunkFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooBig, n)
	}
	binary.BigEndian.PutUint32(b[:4], uint32(n))
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// exactlyOne reports whether exactly one of a frame's alternative fields
// is set: a frame carries one of them, so encoding two would silently
// drop one.
func exactlyOne(set ...bool) bool {
	n := 0
	for _, s := range set {
		if s {
			n++
		}
	}
	return n == 1
}

func appendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

func appendDigests(b []byte, ds []hashx.Digest) []byte {
	b = binary.AppendUvarint(b, uint64(len(ds)))
	for _, d := range ds {
		b = appendBytes(b, d)
	}
	return b
}

// appendValue writes a value's type and the one field that type selects
// — the same fields relation.Value.Encode hashes.
func appendValue(b []byte, v relation.Value) []byte {
	b = appendInt(b, int(v.Type))
	switch v.Type {
	case relation.TypeInt:
		b = binary.AppendVarint(b, v.Int)
	case relation.TypeFloat:
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float))
	case relation.TypeString:
		b = appendString(b, v.Str)
	case relation.TypeBytes:
		b = appendBytes(b, v.Bytes)
	case relation.TypeBool:
		b = appendBool(b, v.Bool)
	}
	return b
}

func appendQuery(b []byte, q *engine.Query) []byte {
	b = appendString(b, q.Relation)
	b = binary.AppendUvarint(b, q.KeyLo)
	b = binary.AppendUvarint(b, q.KeyHi)
	b = binary.AppendUvarint(b, uint64(len(q.Filters)))
	for _, f := range q.Filters {
		b = appendString(b, f.Col)
		b = appendInt(b, int(f.Op))
		b = appendValue(b, f.Val)
	}
	b = binary.AppendUvarint(b, uint64(len(q.Project)))
	for _, c := range q.Project {
		b = appendString(b, c)
	}
	return appendBool(b, q.Distinct)
}

func appendProof(b []byte, p *core.BoundaryProof) []byte {
	b = append(b, byte(p.Kind))
	c := &p.Chain
	b = appendBool(b, c.Canonical)
	b = appendInt(b, c.Index)
	b = appendDigests(b, c.Intermediates)
	b = appendBytes(b, c.RepRoot)
	b = appendBytes(b, c.CanonDigest)
	b = binary.AppendUvarint(b, uint64(len(c.RepPath)))
	for _, e := range c.RepPath {
		b = appendBytes(b, e.Sibling)
		b = appendBool(b, e.Right)
	}
	b = appendBytes(b, p.OtherCombined)
	return appendBytes(b, p.AttrRoot)
}

// appendOptProof writes a presence byte, then the proof when present.
func appendOptProof(b []byte, p *core.BoundaryProof) []byte {
	if p == nil {
		return append(b, 0)
	}
	return appendProof(append(b, 1), p)
}

func appendEntry(b []byte, e *engine.VOEntry) []byte {
	b = append(b, byte(e.Mode))
	b = binary.AppendUvarint(b, e.Key)
	b = binary.AppendUvarint(b, uint64(len(e.Disclosed)))
	for _, a := range e.Disclosed {
		b = appendInt(b, a.Col)
		b = appendValue(b, a.Val)
	}
	b = appendDigests(b, e.HiddenLeaves)
	b = appendBytes(b, e.Chain.UpRoot)
	b = appendBytes(b, e.Chain.DownRoot)
	b = appendBytes(b, e.UpCombined)
	b = appendBytes(b, e.DownCombined)
	return appendBytes(b, e.G)
}

func appendTiming(b []byte, ts []obs.StageDur) []byte {
	b = binary.AppendUvarint(b, uint64(len(ts)))
	for _, t := range ts {
		b = appendString(b, t.Stage)
		b = binary.AppendVarint(b, t.NS)
	}
	return b
}

// appendChunk writes every field of a chunk, whatever its Type: a field
// the type leaves zero costs one byte, and the decode is exact.
func appendChunk(b []byte, c *engine.Chunk) []byte {
	b = append(b, byte(c.Type))
	b = binary.AppendUvarint(b, c.Seq)
	b = appendInt(b, c.Shard)
	b = appendString(b, c.Relation)
	b = appendQuery(b, &c.Effective)
	b = binary.AppendUvarint(b, c.KeyLo)
	b = binary.AppendUvarint(b, c.KeyHi)
	b = appendProof(b, &c.Left)
	b = binary.AppendUvarint(b, uint64(len(c.Entries)))
	for i := range c.Entries {
		b = appendEntry(b, &c.Entries[i])
	}
	b = binary.AppendUvarint(b, uint64(len(c.Sigs)))
	for _, s := range c.Sigs {
		b = appendBytes(b, s)
	}
	b = appendProof(b, &c.Right)
	b = appendBytes(b, c.AggSig)
	b = appendBytes(b, c.PredPrevG)
	b = binary.AppendUvarint(b, uint64(len(c.ShardFeet)))
	for _, f := range c.ShardFeet {
		b = appendInt(b, f.Shard)
		b = binary.AppendUvarint(b, f.Entries)
	}
	b = appendString(b, c.Err)
	b = appendString(b, c.Trace)
	return appendTiming(b, c.Timing)
}

func appendRecord(b []byte, r *core.SignedRecord) []byte {
	b = append(b, byte(r.Kind))
	b = binary.AppendUvarint(b, r.Tuple.Key)
	b = binary.AppendUvarint(b, r.Tuple.RowID)
	b = binary.AppendUvarint(b, uint64(len(r.Tuple.Attrs)))
	for _, v := range r.Tuple.Attrs {
		b = appendValue(b, v)
	}
	b = appendBytes(b, r.UpRoot)
	b = appendBytes(b, r.DownRoot)
	b = appendBytes(b, r.UpCombined)
	b = appendBytes(b, r.DownCombined)
	b = appendBytes(b, r.AttrRoot)
	b = appendBytes(b, r.G)
	return appendBytes(b, r.Sig)
}

// --- decoding ---------------------------------------------------------

// Minimum encoded sizes of list elements: a claimed count is checked
// against the bytes left divided by these before anything is allocated.
const (
	minBytesField = 1  // uvarint length
	minValue      = 1  // type varint (unknown types carry nothing more)
	minAttr       = 2  // col + value
	minFilter     = 3  // col + op + value
	minPathElem   = 2  // sibling + bool
	minEntry      = 9  // mode, key, two counts, five digests
	minShardFoot  = 2  // shard + entries
	minStageDur   = 2  // stage + ns
	minRecord     = 11 // kind, key, row id, attr count, seven byte fields
	minColumn     = 2  // name + type
)

// readStep is the first allocation toward a frame's claimed length;
// larger frames grow by doubling as their bytes actually arrive.
const readStep = 64 << 10

// readPayload reads one frame's payload. It returns io.EOF exactly at a
// frame boundary, ErrFrameTruncated when the stream dies mid-frame and
// ErrFrameTooBig for a length past the cap. The buffer grows toward the
// claimed length only as bytes arrive, so a lying length prefix on a
// short stream costs at most readStep, not MaxChunkFrame.
func readPayload(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: length prefix: %w", ErrFrameTruncated, err)
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > MaxChunkFrame {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, n)
	}
	b := make([]byte, 0, min(n, readStep))
	for len(b) < n {
		if len(b) == cap(b) {
			b = slices.Grow(b, min(len(b), n-len(b)))
		}
		m, err := io.ReadFull(r, b[len(b):min(n, cap(b))])
		b = b[:len(b)+m]
		if err != nil {
			return nil, fmt.Errorf("%w: body: %w", ErrFrameTruncated, err)
		}
	}
	return b, nil
}

// recvFrame reads one frame, checks its version byte and returns a
// decoder positioned after the tag, plus the tag.
func recvFrame(r io.Reader) (frameDecoder, byte, error) {
	p, err := readPayload(r)
	if err != nil {
		return frameDecoder{}, 0, err
	}
	if len(p) == 0 {
		return frameDecoder{}, 0, fmt.Errorf("%w: empty payload", ErrFrameMalformed)
	}
	if p[0] != CodecVersion {
		return frameDecoder{}, 0, fmt.Errorf("%w: frame version 0x%02x, this build speaks 0x%02x",
			ErrFrameVersion, p[0], CodecVersion)
	}
	d := frameDecoder{b: p[1:]}
	return d, d.byte(), d.err
}

// recvTagged is recvFrame for a reader that accepts exactly one tag.
func recvTagged(r io.Reader, want byte) (frameDecoder, error) {
	d, tag, err := recvFrame(r)
	if err == nil && tag != want {
		err = fmt.Errorf("%w: tag %d where %d belongs", ErrFrameMalformed, tag, want)
	}
	return d, err
}

// frameDecoder is a sticky-error cursor over one frame payload. The
// first failure marks the frame malformed; every later read returns
// zero values, so decode functions need no per-field error checks.
type frameDecoder struct {
	b   []byte
	err error

	// Slabs that many short per-element lists are carved from, so a
	// chunk of hundreds of entries costs a handful of allocations.
	digests []hashx.Digest
	attrs   []engine.DisclosedAttr
	values  []relation.Value
}

func (d *frameDecoder) fail() {
	if d.err == nil {
		d.err = ErrFrameMalformed
	}
}

func (d *frameDecoder) byte() byte {
	if d.err != nil || len(d.b) == 0 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *frameDecoder) bool() bool {
	switch d.byte() {
	case 0:
		return false
	case 1:
		return true
	}
	d.fail()
	return false
}

// uvarint reads a minimal uvarint: a multi-byte encoding whose last byte
// is zero has a shorter form and is malformed.
func (d *frameDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 || (n > 1 && d.b[n-1] == 0) {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// varint reads a minimal zig-zag varint (the zig-zag map is a bijection,
// so minimality of the underlying uvarint is the whole check).
func (d *frameDecoder) varint() int64 {
	u := d.uvarint()
	x := int64(u >> 1)
	if u&1 != 0 {
		x = ^x
	}
	return x
}

func (d *frameDecoder) int() int { return int(d.varint()) }

// count reads an element count, refusing one the bytes left cannot hold
// at minSize bytes per element.
func (d *frameDecoder) count(minSize int) int {
	n := d.uvarint()
	if d.err != nil || n > uint64(len(d.b)/minSize) {
		d.fail()
		return 0
	}
	return int(n)
}

// bytes returns a length-prefixed field aliasing the frame payload
// (capacity clipped, so an append by the holder never runs into the next
// field); zero length decodes as nil.
func (d *frameDecoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil || n > uint64(len(d.b)) {
		d.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	out := d.b[:n:n]
	d.b = d.b[n:]
	return out
}

func (d *frameDecoder) str() string { return string(d.bytes()) }

// done fails the decode unless the payload was consumed exactly.
func (d *frameDecoder) done() error {
	if d.err == nil && len(d.b) != 0 {
		d.fail()
	}
	return d.err
}

// carve takes n elements from a slab, replacing it (twice as large, at
// least n) when it runs short. Earlier carvings keep the old array alive.
func carve[T any](slab *[]T, n int) []T {
	if n == 0 {
		return nil
	}
	s := *slab
	if cap(s)-len(s) < n {
		s = make([]T, 0, max(n, 2*cap(s), 16))
	}
	out := s[len(s) : len(s)+n : len(s)+n]
	*slab = s[:len(s)+n]
	return out
}

func (d *frameDecoder) digestList() []hashx.Digest {
	out := carve(&d.digests, d.count(minBytesField))
	for i := range out {
		out[i] = d.bytes()
	}
	return out
}

func (d *frameDecoder) value(v *relation.Value) {
	v.Type = relation.Type(d.int())
	switch v.Type {
	case relation.TypeInt:
		v.Int = d.varint()
	case relation.TypeFloat:
		if d.err != nil || len(d.b) < 8 {
			d.fail()
			return
		}
		v.Float = math.Float64frombits(binary.LittleEndian.Uint64(d.b))
		d.b = d.b[8:]
	case relation.TypeString:
		v.Str = d.str()
	case relation.TypeBytes:
		v.Bytes = d.bytes()
	case relation.TypeBool:
		v.Bool = d.bool()
	}
}

func (d *frameDecoder) query(q *engine.Query) {
	q.Relation = d.str()
	q.KeyLo = d.uvarint()
	q.KeyHi = d.uvarint()
	if n := d.count(minFilter); n > 0 {
		q.Filters = make([]engine.Filter, n)
		for i := range q.Filters {
			f := &q.Filters[i]
			f.Col = d.str()
			f.Op = engine.Op(d.int())
			d.value(&f.Val)
		}
	}
	if n := d.count(minBytesField); n > 0 {
		q.Project = make([]string, n)
		for i := range q.Project {
			q.Project[i] = d.str()
		}
	}
	q.Distinct = d.bool()
}

func (d *frameDecoder) proof(p *core.BoundaryProof) {
	p.Kind = core.Kind(d.byte())
	c := &p.Chain
	c.Canonical = d.bool()
	c.Index = d.int()
	c.Intermediates = d.digestList()
	c.RepRoot = d.bytes()
	c.CanonDigest = d.bytes()
	if n := d.count(minPathElem); n > 0 {
		c.RepPath = make([]mht.PathElem, n)
		for i := range c.RepPath {
			c.RepPath[i].Sibling = d.bytes()
			c.RepPath[i].Right = d.bool()
		}
	}
	p.OtherCombined = d.bytes()
	p.AttrRoot = d.bytes()
}

func (d *frameDecoder) optProof() *core.BoundaryProof {
	if !d.bool() {
		return nil
	}
	p := new(core.BoundaryProof)
	d.proof(p)
	return p
}

func (d *frameDecoder) entry(e *engine.VOEntry) {
	e.Mode = engine.EntryMode(d.byte())
	e.Key = d.uvarint()
	e.Disclosed = carve(&d.attrs, d.count(minAttr))
	for i := range e.Disclosed {
		a := &e.Disclosed[i]
		a.Col = d.int()
		d.value(&a.Val)
	}
	e.HiddenLeaves = d.digestList()
	e.Chain.UpRoot = d.bytes()
	e.Chain.DownRoot = d.bytes()
	e.UpCombined = d.bytes()
	e.DownCombined = d.bytes()
	e.G = d.bytes()
}

func (d *frameDecoder) timing() []obs.StageDur {
	n := d.count(minStageDur)
	if n == 0 {
		return nil
	}
	ts := make([]obs.StageDur, n)
	for i := range ts {
		ts[i].Stage = d.str()
		ts[i].NS = d.varint()
	}
	return ts
}

func (d *frameDecoder) chunk(c *engine.Chunk) {
	c.Type = engine.ChunkType(d.byte())
	c.Seq = d.uvarint()
	c.Shard = d.int()
	c.Relation = d.str()
	d.query(&c.Effective)
	c.KeyLo = d.uvarint()
	c.KeyHi = d.uvarint()
	d.proof(&c.Left)
	if n := d.count(minEntry); n > 0 {
		c.Entries = make([]engine.VOEntry, n)
		for i := range c.Entries {
			d.entry(&c.Entries[i])
		}
	}
	if n := d.count(minBytesField); n > 0 {
		c.Sigs = make([]sig.Signature, n)
		for i := range c.Sigs {
			c.Sigs[i] = d.bytes()
		}
	}
	d.proof(&c.Right)
	c.AggSig = d.bytes()
	c.PredPrevG = d.bytes()
	if n := d.count(minShardFoot); n > 0 {
		c.ShardFeet = make([]engine.ShardFoot, n)
		for i := range c.ShardFeet {
			c.ShardFeet[i].Shard = d.int()
			c.ShardFeet[i].Entries = d.uvarint()
		}
	}
	c.Err = d.str()
	c.Trace = d.str()
	c.Timing = d.timing()
}

func (d *frameDecoder) record(r *core.SignedRecord) {
	r.Kind = core.Kind(d.byte())
	r.Tuple.Key = d.uvarint()
	r.Tuple.RowID = d.uvarint()
	r.Tuple.Attrs = carve(&d.values, d.count(minValue))
	for i := range r.Tuple.Attrs {
		d.value(&r.Tuple.Attrs[i])
	}
	r.UpRoot = d.bytes()
	r.DownRoot = d.bytes()
	r.UpCombined = d.bytes()
	r.DownCombined = d.bytes()
	r.AttrRoot = d.bytes()
	r.G = d.bytes()
	r.Sig = d.bytes()
}
