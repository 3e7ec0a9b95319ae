package cache

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vcqr/internal/costmodel"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/obs"
	"vcqr/internal/wire"
	"vcqr/internal/workload"
)

// Named failures a reader can assert on. Both are recoverable by
// construction: the caller treats the entry as a miss and serves from
// origin.
var (
	// ErrSumMismatch: the peer returned bytes whose digest does not
	// match the digest stored at fill time — corruption or lazy
	// tampering caught before any decode work.
	ErrSumMismatch = errors.New("cache: entry bytes do not match their stored digest")
	// ErrEntryMalformed: the bytes pass the digest compare but do not
	// decode as the frame sequence the key promises.
	ErrEntryMalformed = errors.New("cache: entry does not decode as a shard sub-stream")
)

// StreamShard is the Key.Shard value grouping whole merged streams: such
// an entry depends on every covering shard, so it lives in a single
// per-relation group that any epoch bump clears.
const StreamShard = -1

// Key identifies one cacheable byte range. Sub-stream entries carry the
// covering shard and its content epoch; whole-stream entries (Shard ==
// StreamShard) carry the full per-shard epoch vector instead, so a bump
// of any covering shard changes the key. Everything that shapes the
// bytes is in the key: spec version, frame codec version, role, the full
// query shape, the covering sub-range, the first/last anchors and the
// chunking.
type Key struct {
	Relation    string
	SpecVersion uint64
	Shard       int
	Epoch       uint64
	Epochs      []uint64 // whole-stream entries: content epoch per shard
	Role        string
	Query       engine.Query
	Lo, Hi      uint64
	First, Last bool
	ChunkRows   int
}

// String renders the canonical key (the server-side VO cache key idiom,
// extended with the placement coordinates).
func (k Key) String() string {
	var b strings.Builder
	b.Grow(96)
	b.WriteString(k.Relation)
	b.WriteByte(0)
	b.WriteString("v")
	b.WriteString(strconv.FormatUint(k.SpecVersion, 10))
	b.WriteByte(0)
	// The frame codec version: entries hold raw frames (whole-stream
	// ones are served without a decode), so a build speaking another
	// version must never hit them.
	b.WriteString("w")
	b.WriteString(strconv.Itoa(int(wire.CodecVersion)))
	b.WriteByte(0)
	b.WriteString("s")
	b.WriteString(strconv.Itoa(k.Shard))
	b.WriteByte(0)
	b.WriteString("e")
	if k.Shard == StreamShard {
		for i, e := range k.Epochs {
			if i > 0 {
				b.WriteByte('.')
			}
			b.WriteString(strconv.FormatUint(e, 10))
		}
	} else {
		b.WriteString(strconv.FormatUint(k.Epoch, 10))
	}
	b.WriteByte(0)
	b.WriteString(k.Role)
	b.WriteByte(0)
	b.WriteString(strconv.FormatUint(k.Lo, 10))
	b.WriteByte('-')
	b.WriteString(strconv.FormatUint(k.Hi, 10))
	if k.First {
		b.WriteString("|F")
	}
	if k.Last {
		b.WriteString("|L")
	}
	b.WriteString("|c")
	b.WriteString(strconv.Itoa(k.ChunkRows))
	b.WriteByte(0)
	b.WriteString(strconv.FormatUint(k.Query.KeyLo, 10))
	b.WriteByte('-')
	b.WriteString(strconv.FormatUint(k.Query.KeyHi, 10))
	if k.Query.Distinct {
		b.WriteString("|d")
	}
	for _, c := range k.Query.Project {
		b.WriteString("|p:")
		b.WriteString(c)
	}
	for _, f := range k.Query.Filters {
		b.WriteString("|f:")
		b.WriteString(f.Col)
		b.WriteString(f.Op.String())
		b.Write(f.Val.Encode())
	}
	return b.String()
}

// Config parameterizes a Client.
type Config struct {
	// Peers are the cache peers' base URLs; keys spread over them by
	// consistent hashing. Empty peers means the client is nil-like:
	// every lookup misses without a fill.
	Peers []string
	// HTTP overrides the transport (tests). When nil, peer traffic runs
	// on a private client bounded by PeerTimeout — never on
	// http.DefaultClient, whose missing timeout would let one hung peer
	// wedge the query path that treats every peer failure as a miss.
	HTTP *http.Client
	// PeerTimeout bounds every peer exchange on the default transport
	// (ignored when HTTP is set — the caller owns its budgets then). A
	// peer slower than this is slower than origin, so failing toward
	// origin is strictly better than waiting. 0 picks
	// DefaultPeerTimeout.
	PeerTimeout time.Duration
	// Obs records cache_get / cache_fill timings when set.
	Obs *obs.Registry
	// MinAccesses overrides the admission threshold — how many times a
	// key must be seen before a fill is pushed to a peer. 0 picks the
	// cost-model default; 1 admits everything.
	MinAccesses uint32
	// MaxEntryBytes caps a single entry; larger fills are discarded. 0
	// picks costmodel.CacheEntryCap(DefaultBudget).
	MaxEntryBytes int
	// WaitTimeout bounds how long a collapsed miss waits for the
	// in-flight fill before giving up and going to origin (default 10s).
	WaitTimeout time.Duration
	// TrackedKeys bounds the admission frequency tracker (default 4096).
	TrackedKeys int
}

type ringSlot struct {
	hash uint32
	peer int
}

// Client is the coordinator-side cache tier: consistent-hash placement
// over the configured peers, digest-checked reads, a singleflight table
// collapsing concurrent misses per key, and cost-model-gated admission.
// All methods are safe for concurrent use.
type Client struct {
	peers []*wire.Client
	ring  []ringSlot
	h     *hashx.Hasher

	minAccesses uint32
	maxEntry    int
	wait        time.Duration
	freq        *workload.AccessStats
	hGet, hFill *obs.Histogram

	mu      sync.Mutex
	flights map[string]*flight

	hits, misses, collapsed         atomic.Uint64
	fills, fillDrops                atomic.Uint64
	fallthroughs, peerErrs          atomic.Uint64
	invalidations, admissionsDenied atomic.Uint64
}

// ringVnodes is how many ring slots each peer claims; enough that a
// two-peer tier splits keys close to evenly.
const ringVnodes = 64

// DefaultPeerTimeout is the dial-to-drain budget for one cache-peer
// exchange when Config.HTTP is nil. The tier is an optimization: a peer
// that cannot answer inside it reads as a miss and the query serves
// from origin.
const DefaultPeerTimeout = 2 * time.Second

// NewClient builds a cache-tier client over the given peers.
func NewClient(cfg Config) *Client {
	c := &Client{
		h:           hashx.New(),
		minAccesses: cfg.MinAccesses,
		maxEntry:    cfg.MaxEntryBytes,
		wait:        cfg.WaitTimeout,
		flights:     make(map[string]*flight),
		hGet:        cfg.Obs.Hist(obs.StageCacheGet),
		hFill:       cfg.Obs.Hist(obs.StageCacheFill),
	}
	if c.minAccesses == 0 {
		// Default admission: assume a fill costs about one extra origin
		// drain and a hit saves about the same, i.e. cache on the
		// second sighting.
		c.minAccesses = costmodel.CacheMinAccesses(time.Millisecond, time.Millisecond)
	}
	if c.maxEntry <= 0 {
		c.maxEntry = costmodel.CacheEntryCap(DefaultBudget)
	}
	if c.wait <= 0 {
		c.wait = 10 * time.Second
	}
	tracked := cfg.TrackedKeys
	if tracked <= 0 {
		tracked = 4096
	}
	c.freq = workload.NewAccessStats(tracked)
	hc := cfg.HTTP
	if hc == nil {
		to := cfg.PeerTimeout
		if to <= 0 {
			to = DefaultPeerTimeout
		}
		hc = &http.Client{Timeout: to}
	}
	for i, url := range cfg.Peers {
		c.peers = append(c.peers, &wire.Client{BaseURL: strings.TrimRight(url, "/"), HTTP: hc})
		for v := 0; v < ringVnodes; v++ {
			h := fnv.New32a()
			fmt.Fprintf(h, "%s#%d", url, v)
			c.ring = append(c.ring, ringSlot{hash: h.Sum32(), peer: i})
		}
	}
	sort.Slice(c.ring, func(a, b int) bool { return c.ring[a].hash < c.ring[b].hash })
	return c
}

// peerFor maps a key string onto the ring.
func (c *Client) peerFor(ks string) *wire.Client {
	if len(c.ring) == 0 {
		return nil
	}
	h := fnv.New32a()
	h.Write([]byte(ks))
	hv := h.Sum32()
	i := sort.Search(len(c.ring), func(i int) bool { return c.ring[i].hash >= hv })
	if i == len(c.ring) {
		i = 0
	}
	return c.peers[c.ring[i].peer]
}

// flight is one in-progress fill: the leader streams from origin while
// every collapsed waiter blocks on done. A nil bytes at done means the
// fill aborted.
type flight struct {
	done  chan struct{}
	bytes []byte
	sum   hashx.Digest
	// waiters counts collapsed lookups; a fill with waiters is pushed
	// to the peer even below the admission threshold — concurrency is
	// itself evidence of heat.
	waiters atomic.Int32
}

// Fill is the leader's handle on a miss: the caller tees the origin
// bytes through Write and settles with exactly one Commit (full, clean
// drain) or Abort (anything else). Both are idempotent; an unsettled
// Fill that is garbage-collected strands its waiters until their
// timeout, so settle it.
type Fill struct {
	c     *Client
	key   Key
	ks    string
	admit bool
	fl    *flight

	mu      sync.Mutex
	buf     bytes.Buffer
	over    bool
	settled bool
}

// Write buffers origin bytes (io.Writer, so a Fill can be a tee target).
// Oversized fills flip to discard mode and die at Commit.
func (f *Fill) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.settled {
		return len(p), nil
	}
	if !f.over && f.buf.Len()+len(p) > f.c.maxEntry {
		f.over = true
		f.buf.Reset()
	}
	if !f.over {
		f.buf.Write(p)
	}
	return len(p), nil
}

// Commit publishes the buffered bytes to collapsed waiters and, when the
// key is admitted (or anyone waited), pushes the entry to its peer
// asynchronously. A pushed flight stays joinable until the peer's Put
// returns: a lookup whose peer Get missed while the bytes were still in
// transit collapses onto the finished flight instead of leading a
// second origin fill.
func (f *Fill) Commit() {
	f.mu.Lock()
	if f.settled {
		f.mu.Unlock()
		return
	}
	f.settled = true
	over := f.over
	b := f.buf.Bytes()
	f.mu.Unlock()

	c := f.c
	if over || len(b) == 0 {
		c.endFlight(f.ks)
		c.fillDrops.Add(1)
		close(f.fl.done)
		return
	}
	sum := c.h.Hash(b)
	f.fl.bytes, f.fl.sum = b, sum
	close(f.fl.done)
	if !f.admit && f.fl.waiters.Load() == 0 {
		c.endFlight(f.ks)
		c.admissionsDenied.Add(1)
		return
	}
	peer := c.peerFor(f.ks)
	if peer == nil {
		c.endFlight(f.ks)
		return
	}
	c.fills.Add(1)
	go func() {
		defer c.endFlight(f.ks)
		t0 := time.Now()
		_, err := peer.CacheOp(&wire.CacheFrame{Put: &wire.CachePut{
			Key:      f.ks,
			Relation: f.key.Relation,
			Shard:    f.key.Shard,
			Epoch:    f.key.Epoch,
			Sum:      sum,
			Bytes:    b,
		}})
		c.hFill.ObserveSince(t0)
		if err != nil {
			c.peerErrs.Add(1)
		}
	}()
}

// Abort releases waiters empty-handed and drops the buffer.
func (f *Fill) Abort() {
	f.mu.Lock()
	if f.settled {
		f.mu.Unlock()
		return
	}
	f.settled = true
	f.buf.Reset()
	f.mu.Unlock()
	c := f.c
	c.endFlight(f.ks)
	c.fillDrops.Add(1)
	close(f.fl.done)
}

// endFlight removes a settled flight from the singleflight table; the
// next miss on its key leads a fresh fill.
func (c *Client) endFlight(ks string) {
	c.mu.Lock()
	delete(c.flights, ks)
	c.mu.Unlock()
}

// Hit is a validated sub-stream entry decoded for replay into the merge.
type Hit struct {
	Hello  wire.NodeHello
	Chunks []*engine.Chunk
	Foot   wire.NodeFoot
}

// lookup is the shared miss/hit/singleflight machinery. validate turns
// raw entry bytes into the caller's value; returning an error counts as
// a fall-through (the entry is dropped from its peer asynchronously).
// Exactly one of (value, fill) is non-nil, or both are nil (serve from
// origin without filling — peer unreachable or an in-flight fill
// aborted).
func (c *Client) lookup(k Key, validate func([]byte) (any, error)) (any, *Fill) {
	ks := k.String()
	admit := c.freq.Touch(ks) >= c.minAccesses
	peer := c.peerFor(ks)
	if peer == nil {
		return nil, nil
	}
	t0 := time.Now()
	rp, err := peer.CacheOp(&wire.CacheFrame{Get: &wire.CacheGet{Key: ks}})
	c.hGet.ObserveSince(t0)
	if err != nil {
		c.peerErrs.Add(1)
		return nil, nil
	}
	if rp.Hit {
		v, verr := c.check(ks, rp.Bytes, rp.Sum, validate)
		if verr == nil {
			c.hits.Add(1)
			return v, nil
		}
	}
	c.misses.Add(1)

	c.mu.Lock()
	if fl, ok := c.flights[ks]; ok {
		fl.waiters.Add(1)
		c.mu.Unlock()
		c.collapsed.Add(1)
		select {
		case <-fl.done:
		case <-time.After(c.wait):
			return nil, nil
		}
		if fl.bytes == nil {
			return nil, nil
		}
		if v, verr := validate(fl.bytes); verr == nil {
			return v, nil
		}
		return nil, nil
	}
	fl := &flight{done: make(chan struct{})}
	c.flights[ks] = fl
	c.mu.Unlock()
	return nil, &Fill{c: c, key: k, ks: ks, admit: admit, fl: fl}
}

// check runs the untrusted-peer defenses on returned bytes: digest
// compare first, then the caller's structural decode. Any failure drops
// the suspect entry from its peer and reads as a miss.
func (c *Client) check(ks string, b []byte, sum hashx.Digest, validate func([]byte) (any, error)) (any, error) {
	if !c.h.Hash(b).Equal(sum) {
		c.dropSuspect(ks)
		return nil, ErrSumMismatch
	}
	v, err := validate(b)
	if err != nil {
		c.dropSuspect(ks)
		return nil, err
	}
	return v, nil
}

func (c *Client) dropSuspect(ks string) {
	c.fallthroughs.Add(1)
	c.DropAsync(ks)
}

// Lookup consults the tier for one shard sub-stream. On a validated hit
// it returns the decoded replay material; on a leader miss it returns
// the Fill to tee the origin sub-stream through; (nil, nil) means plain
// origin.
func (c *Client) Lookup(k Key) (*Hit, *Fill) {
	v, fill := c.lookup(k, func(b []byte) (any, error) { return decodeSubStream(k.Shard, b) })
	if v == nil {
		return nil, fill
	}
	return v.(*Hit), fill
}

// LookupStream consults the tier for a whole merged stream: raw
// chunk-frame bytes ready to write to the client verbatim, or the Fill
// to tee the freshly merged stream through.
func (c *Client) LookupStream(k Key) ([]byte, *Fill) {
	// A whole-stream entry is served without decoding (that is the
	// point: it short-circuits decode/merge/re-encode), so its defense
	// is the digest compare here plus the user's own stream verifier.
	v, fill := c.lookup(k, func(b []byte) (any, error) { return b, nil })
	if v == nil {
		return nil, fill
	}
	return v.([]byte), fill
}

// Probe fetches and validates one sub-stream entry, surfacing the named
// error a Lookup would swallow into a fall-through. Test and tooling
// seam; no admission tracking, no singleflight.
func (c *Client) Probe(k Key) (*Hit, error) {
	ks := k.String()
	peer := c.peerFor(ks)
	if peer == nil {
		return nil, errors.New("cache: no peers configured")
	}
	rp, err := peer.CacheOp(&wire.CacheFrame{Get: &wire.CacheGet{Key: ks}})
	if err != nil {
		return nil, err
	}
	if !rp.Hit {
		return nil, nil
	}
	v, err := c.check(ks, rp.Bytes, rp.Sum, func(b []byte) (any, error) { return decodeSubStream(k.Shard, b) })
	if err != nil {
		return nil, err
	}
	return v.(*Hit), nil
}

// decodeSubStream strictly decodes a cached entry back into hello +
// chunks + foot. Anything unexpected — error frames, a wrong shard, a
// missing foot, trailing bytes — is ErrEntryMalformed.
func decodeSubStream(shard int, raw []byte) (*Hit, error) {
	r := bytes.NewReader(raw)
	f, err := wire.ReadNodeFrame(r)
	if err != nil || f.Err != "" || f.Hello == nil || f.Hello.Shard != shard {
		return nil, ErrEntryMalformed
	}
	hit := &Hit{Hello: *f.Hello}
	for {
		f, err = wire.ReadNodeFrame(r)
		if err != nil || f.Err != "" {
			return nil, ErrEntryMalformed
		}
		if f.Foot != nil {
			if r.Len() != 0 {
				return nil, ErrEntryMalformed
			}
			hit.Foot = *f.Foot
			return hit, nil
		}
		if f.Chunk == nil {
			return nil, ErrEntryMalformed
		}
		hit.Chunks = append(hit.Chunks, f.Chunk)
	}
}

// Invalidate pushes one epoch-scoped group invalidation to every peer
// (entries can live anywhere once the peer set changes, and a broadcast
// of a group drop is cheap). keep == 0 drops the whole group.
func (c *Client) Invalidate(relation string, shard int, keep uint64) {
	c.invalidations.Add(1)
	for _, peer := range c.peers {
		if _, err := peer.CacheOp(&wire.CacheFrame{Invalidate: &wire.CacheInvalidate{
			Relation: relation, Shard: shard, Keep: keep,
		}}); err != nil {
			c.peerErrs.Add(1)
		}
	}
}

// DropAsync removes one entry by key string on its peer, off the hot
// path.
func (c *Client) DropAsync(ks string) {
	peer := c.peerFor(ks)
	if peer == nil {
		return
	}
	go func() {
		if _, err := peer.CacheOp(&wire.CacheFrame{Invalidate: &wire.CacheInvalidate{Key: ks}}); err != nil {
			c.peerErrs.Add(1)
		}
	}()
}

// PeerStats scrapes every peer's counter snapshot (nil entry on scrape
// failure), URL-keyed in peer order.
func (c *Client) PeerStats() map[string]*wire.CacheStats {
	out := make(map[string]*wire.CacheStats, len(c.peers))
	for _, peer := range c.peers {
		rp, err := peer.CacheOp(&wire.CacheFrame{Stats: true})
		if err != nil || rp.Stats == nil {
			c.peerErrs.Add(1)
			out[peer.BaseURL] = nil
			continue
		}
		out[peer.BaseURL] = rp.Stats
	}
	return out
}

// Peers returns the configured peer base URLs.
func (c *Client) Peers() []string {
	out := make([]string, len(c.peers))
	for i, p := range c.peers {
		out[i] = p.BaseURL
	}
	return out
}

// ClientStats is the coordinator-side counter snapshot.
type ClientStats struct {
	Hits, Misses     uint64 // validated hits / misses (incl. fall-throughs)
	Collapsed        uint64 // misses that waited on another lookup's fill
	Fills            uint64 // entries pushed to peers
	FillDrops        uint64 // fills discarded (aborted, oversized, empty)
	Fallthroughs     uint64 // entries rejected by digest or structure checks
	PeerErrors       uint64 // cache-protocol I/O failures
	Invalidations    uint64 // epoch-scoped group invalidations pushed
	AdmissionsDenied uint64 // fills skipped by the cost-model gate
}

// Stats snapshots the client's counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Hits:             c.hits.Load(),
		Misses:           c.misses.Load(),
		Collapsed:        c.collapsed.Load(),
		Fills:            c.fills.Load(),
		FillDrops:        c.fillDrops.Load(),
		Fallthroughs:     c.fallthroughs.Load(),
		PeerErrors:       c.peerErrs.Load(),
		Invalidations:    c.invalidations.Load(),
		AdmissionsDenied: c.admissionsDenied.Load(),
	}
}
