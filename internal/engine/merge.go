package engine

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync"
	"time"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/hashx"
	"vcqr/internal/obs"
	"vcqr/internal/partition"
	"vcqr/internal/sig"
)

// This file is the fan-out pipeline: one query whose effective range
// spans several partition shards is answered as a single chunk stream
// that concatenates per-shard entry runs. Because the shards of
// internal/partition are contiguous slices of one global signature
// chain, the merged stream is indistinguishable — to the chain-
// verification rules — from the stream an unpartitioned publisher would
// emit for the same range: one header with the left boundary proof
// (from the first covering shard), the covered entries in global key
// order, and one footer with the right boundary proof (from the last
// covering shard) and the condensed signature over every entry (the
// per-shard partials multiply, so they combine in any order). The only
// additions are the per-chunk Shard tags and the footer's ShardFeet
// accounting, which give verifiers shard-attributed fail-fast errors.
//
// The pipeline has two halves, and one implementation of each:
//
//   - ShardPartial is the shard half: one shard's contribution — its
//     entry chunks, its partial condensed signature, and whichever
//     boundary proofs its position in the cover obliges it to supply.
//
//   - MergeShards is the merge half: it concatenates per-shard feeds (in
//     hand-off order) into the canonical chunk sequence.
//
// Every serving path is the merge over some feeds. In one process
// (MergeLocal) the feeds are ShardPartials over pinned local slices; in a
// cluster (internal/cluster) they are node sub-streams or replays of
// edge-cached sub-stream bytes. The feeds are indistinguishable to the
// merger, which is what keeps every path byte-identical and lets the
// unmodified stream verifiers accept a cluster-served stream exactly as
// they accept a local one.
//
// Nothing in the seam is trusted: a node that lies in its chunks,
// partial, or boundary proof produces a merged stream the user's
// verifier rejects. The seam's correctness obligations are only about
// the honest path staying byte-identical.

// ShardHead is what the merger needs from a feed before its first
// entries chunk: the shard index and, for the first covering shard, the
// left boundary proof of the whole effective range.
type ShardHead struct {
	Shard int
	Left  *core.BoundaryProof
}

// ShardFeedFoot summarizes a drained feed: how many entries it
// contributed, its partial condensed signature (nil when empty or in
// individual-signature mode), the right boundary proof when the feed is
// the last covering shard, and the empty-range predecessor material when
// the feed is the first covering shard and covered no records.
type ShardFeedFoot struct {
	Entries uint64
	Partial sig.Signature
	Right   *core.BoundaryProof
	// PredSig and PredPrevG carry the Section 3.2 Case 2 material for a
	// globally empty range: the predecessor's signature and the g digest
	// of the record before it. NeedPrevG reports that g lives one shard
	// to the left (the predecessor is this slice's left context), in
	// which case the merger resolves it through its PrevG callback.
	PredSig   sig.Signature
	PredPrevG hashx.Digest
	NeedPrevG bool
}

// ShardFeed is one covering shard's contribution to a merged fan-out, in
// consumption order: Head once, Next until io.EOF, then Foot. Close
// releases the feed's resources at any point; the merger closes every
// feed when the stream errors or is abandoned.
//
// Implementations: ShardPartial (in-process, behind a prefetching
// wrapper when MergeLocal runs feeds in parallel), internal/cluster's
// wire adapter over node sub-streams, and internal/cluster's replay of
// edge-cached sub-stream bytes — all indistinguishable to the merger,
// which is what keeps every serving path byte-identical.
type ShardFeed interface {
	Head() (ShardHead, error)
	Next() (*Chunk, error)
	Foot() (ShardFeedFoot, error)
	Close() error
}

// PrevG resolves the g digest of the record preceding the first covering
// shard's left context — needed in exactly one corner: a globally empty
// result whose predecessor is that context record. The in-process
// caller reads it from the preceding slice it pinned with the cover; the
// distributed caller from the preceding shard's edge material.
type PrevG func() (hashx.Digest, error)

// ShardPartial produces one shard's partial fan-out: the entries chunks
// covering [lo, hi] on this slice, then a summary foot. It implements
// ShardFeed; shard nodes serve it over the wire (internal/server), and
// MergeLocal merges it in-process.
//
// The caller supplies the already-pinned slice and the sub-range the
// shard covers; role resolution and the effective rewrite are recomputed
// here exactly as the serving layer's planner does, and the sub-range
// must tile into the effective range ([lo, hi] inside it, anchored at
// its ends when first/last are set).
func (p *Publisher) ShardPartial(sr *core.SignedRelation, roleName string, q Query, shard int, lo, hi uint64, first, last bool, opts StreamOpts) (*ShardPartial, error) {
	role, err := p.policy.Role(roleName)
	if err != nil {
		return nil, err
	}
	if err := q.Validate(sr.Schema); err != nil {
		return nil, err
	}
	eff, err := rewrite(sr, role, q)
	if err != nil {
		return nil, err
	}
	if eff.Distinct {
		// Duplicate elision is a cross-shard dependency: it needs one
		// sequential pass over the merged run, which a partial served on
		// its own cannot provide. (MergeLocal serves DISTINCT by sharing
		// one suppression set across its sequential local feeds.)
		return nil, fmt.Errorf("engine: DISTINCT cannot be served as a shard partial")
	}
	return p.shardPartial(sr, role, eff, shard, lo, hi, first, last, opts, nil)
}

// shardPartial builds a partial for an already-resolved role and
// effective query; seen is the DISTINCT suppression set shared by the
// feeds of one query (nil otherwise).
func (p *Publisher) shardPartial(sr *core.SignedRelation, role accessctl.Role, eff Query, shard int, lo, hi uint64, first, last bool, opts StreamOpts, seen map[string]bool) (*ShardPartial, error) {
	if lo > hi || lo < eff.KeyLo || hi > eff.KeyHi {
		return nil, fmt.Errorf("engine: sub-range [%d,%d] outside effective range [%d,%d]", lo, hi, eff.KeyLo, eff.KeyHi)
	}
	if first && lo != eff.KeyLo {
		return nil, fmt.Errorf("engine: first shard partial must start at %d, got %d", eff.KeyLo, lo)
	}
	if last && hi != eff.KeyHi {
		return nil, fmt.Errorf("engine: last shard partial must end at %d, got %d", eff.KeyHi, hi)
	}
	return &ShardPartial{
		cur: p.newCursor(sr, role, eff, shard, lo, hi, opts, seen),
		lo:  lo, hi: hi, first: first, last: last,
	}, nil
}

// ShardPartial is the shard half of a fan-out; see
// Publisher.ShardPartial.
type ShardPartial struct {
	cur         entryCursor
	lo, hi      uint64
	first, last bool
	err         error
}

// Head returns the shard index and, for the first covering shard, the
// left boundary proof of the effective range.
func (sp *ShardPartial) Head() (ShardHead, error) {
	cur := &sp.cur
	head := ShardHead{Shard: cur.shard}
	if sp.first {
		left, err := cur.sr.ProveBoundary(cur.p.h, cur.a-1, core.Up, sp.lo)
		if err != nil {
			return head, fmt.Errorf("engine: left boundary: %w", err)
		}
		head.Left = &left
	}
	return head, nil
}

// Next returns the next entries chunk, io.EOF when the covered interval
// is exhausted.
func (sp *ShardPartial) Next() (*Chunk, error) {
	if sp.err != nil {
		return nil, sp.err
	}
	c, err := sp.cur.next()
	switch {
	case err != nil:
		sp.err = err
		return nil, err
	case c == nil:
		return nil, io.EOF
	}
	return c, nil
}

// Foot summarizes the drained partial. It must not be called before Next
// has returned io.EOF — the partial condensed signature is only complete
// then.
func (sp *ShardPartial) Foot() (ShardFeedFoot, error) {
	cur := &sp.cur
	if sp.err != nil {
		return ShardFeedFoot{}, sp.err
	}
	if cur.pos < cur.b {
		return ShardFeedFoot{}, fmt.Errorf("engine: shard partial foot before drain")
	}
	partial, err := cur.partial()
	if err != nil {
		return ShardFeedFoot{}, err
	}
	foot := ShardFeedFoot{Entries: uint64(cur.b - cur.a), Partial: partial}
	if sp.last {
		right, err := cur.sr.ProveBoundary(cur.p.h, cur.b, core.Down, sp.hi)
		if err != nil {
			return ShardFeedFoot{}, fmt.Errorf("engine: right boundary: %w", err)
		}
		foot.Right = &right
	}
	if sp.first && cur.a == cur.b {
		// Locally empty first shard: ship the predecessor material the
		// merger needs if the range turns out globally empty (it can only
		// be globally empty if every covering shard is — interior shards
		// never are).
		predIdx := cur.a - 1
		recs := cur.sr.Recs
		foot.PredSig = sig.Signature(recs[predIdx].Sig)
		switch {
		case predIdx > 0:
			foot.PredPrevG = recs[predIdx-1].G.Clone()
		case recs[0].Kind == core.KindDelimLeft:
			// pred is the global left delimiter: the verifier substitutes
			// the virtual end digest, no PredPrevG needed.
		default:
			foot.NeedPrevG = true
		}
	}
	return foot, nil
}

// Close implements ShardFeed; a partial holds no resources beyond its
// pinned slice, which the garbage collector releases with the value.
func (sp *ShardPartial) Close() error { return nil }

// MergeLocal answers an already-rewritten query over pinned in-process
// shard slices: MergeShards over one local feed per covering shard.
// slices[i] is the pinned slice of sub[i].Shard, and the sub-ranges must
// tile the effective range in shard order (partition.Spec.Decompose
// derives them). prevG resolves the empty-range corner when the cover
// does not start at shard 0.
//
// With more than one covering shard, GOMAXPROCS > 1 and no DISTINCT,
// each feed runs on its own goroutine a few chunks ahead of the merge,
// so the shards' entry assembly and partial signatures proceed in
// parallel. DISTINCT stays sequential: duplicate elision is a
// cross-shard dependency, met by the feeds sharing one suppression set.
// Close the returned stream when abandoning it mid-drain.
func (p *Publisher) MergeLocal(role accessctl.Role, eff Query, slices []*core.SignedRelation, sub []partition.SubRange, prevG PrevG, opts StreamOpts) (ResultStream, error) {
	if len(sub) == 0 || len(slices) != len(sub) {
		return nil, fmt.Errorf("engine: %d slices for %d shard sub-ranges", len(slices), len(sub))
	}
	var seen map[string]bool
	if eff.Distinct {
		seen = map[string]bool{}
	}
	prefetch := len(sub) > 1 && runtime.GOMAXPROCS(0) > 1 && !eff.Distinct
	if prefetch {
		opts.ReuseChunks = false
	}
	feeds := make([]ShardFeed, len(sub))
	for i, s := range sub {
		if i > 0 && s.Lo != sub[i-1].Hi+1 {
			return nil, fmt.Errorf("engine: shard sub-ranges not contiguous at shard %d", s.Shard)
		}
		sp, err := p.shardPartial(slices[i], role, eff, s.Shard, s.Lo, s.Hi, i == 0, i == len(sub)-1, opts, seen)
		if err != nil {
			return nil, err
		}
		feeds[i] = sp
	}
	if prefetch {
		// Started only once every partial is built, so a refusal above
		// leaves no producer behind.
		for i, s := range sub {
			feeds[i] = newPrefetchFeed(feeds[i], p.Obs.Hist(obs.Labeled(obs.StageSubStream, "shard", strconv.Itoa(s.Shard))))
		}
	}
	return MergeShards(p.pub, p.Aggregate, eff, feeds, prevG)
}

// prefetchDepth bounds how far a prefetching feed runs ahead of the
// merge: enough to keep its producer busy while the merger ships the
// previous chunk, small enough that a stalled consumer bounds memory at
// O(shards · chunk).
const prefetchDepth = 2

// errFeedClosed ends a prefetching feed that was closed mid-drain.
var errFeedClosed = errors.New("engine: shard feed closed")

// prefetchFeed drains one local feed on its own goroutine, including its
// foot (so the partial signature is computed off the merge's goroutine
// too). The source's Head must be safe beside its running Next, as a
// ShardPartial's is: it reads only the partial's immutable position.
// hWait receives, once per feed, the total time the merger spent
// waiting on the producer.
type prefetchFeed struct {
	src    ShardFeed
	ch     chan *Chunk
	done   chan struct{}
	closer sync.Once

	// foot and err are the producer's result, written before ch closes.
	foot ShardFeedFoot
	err  error

	hWait  *obs.Histogram
	waitNS int64
}

func newPrefetchFeed(src ShardFeed, hWait *obs.Histogram) *prefetchFeed {
	f := &prefetchFeed{
		src: src, hWait: hWait,
		ch:   make(chan *Chunk, prefetchDepth),
		done: make(chan struct{}),
	}
	go f.produce()
	return f
}

func (f *prefetchFeed) produce() {
	defer close(f.ch)
	for {
		c, err := f.src.Next()
		if err == io.EOF {
			f.foot, f.err = f.src.Foot()
			return
		}
		if err != nil {
			f.err = err
			return
		}
		select {
		case f.ch <- c:
		case <-f.done:
			f.err = errFeedClosed
			return
		}
	}
}

func (f *prefetchFeed) Head() (ShardHead, error) { return f.src.Head() }

func (f *prefetchFeed) Next() (*Chunk, error) {
	t0 := time.Now()
	c, ok := <-f.ch
	f.waitNS += int64(time.Since(t0))
	switch {
	case ok:
		return c, nil
	case f.err != nil:
		return nil, f.err
	}
	return nil, io.EOF
}

func (f *prefetchFeed) Foot() (ShardFeedFoot, error) {
	f.hWait.Observe(time.Duration(f.waitNS))
	return f.foot, f.err
}

// Close stops the producer, waits for it to exit (discarding any chunks
// it had buffered), then closes the source. Safe at any point, more than
// once.
func (f *prefetchFeed) Close() error {
	f.closer.Do(func() { close(f.done) })
	for range f.ch {
	}
	return f.src.Close()
}

// MergeShards assembles the canonical fan-out chunk stream from one feed
// per covering shard, in hand-off order. The first feed must supply the
// left boundary proof, the last the right one; prevG may be nil when the
// caller can prove the empty-range corner cannot need it (a cover
// starting at shard 0). The merged stream is accepted by the unmodified
// stream verifiers.
//
// The returned stream implements io.Closer; abandoning callers should
// close it to release the feeds (a fully drained stream needs no Close).
func MergeShards(pub *sig.PublicKey, aggregate bool, eff Query, feeds []ShardFeed, prevG PrevG) (ResultStream, error) {
	if len(feeds) == 0 {
		return nil, fmt.Errorf("engine: merge over zero shard feeds")
	}
	st := &mergeStream{
		eff: eff, feeds: feeds, prevG: prevG,
		feet: make([]ShardFoot, len(feeds)),
	}
	if aggregate {
		st.agg = pub.NewAggregator()
	}
	return st, nil
}

// mergeStream concatenates shard feeds into the canonical chunk order.
type mergeStream struct {
	eff   Query
	feeds []ShardFeed
	prevG PrevG

	agg  *sig.Aggregator
	feet []ShardFoot

	cur       int
	curHead   ShardHead
	headDone  bool
	firstFoot ShardFeedFoot
	lastFoot  ShardFeedFoot
	seq       uint64

	stage streamStage
	err   error
}

// Next returns the next merged chunk, io.EOF after the footer, or the
// first feed error (sticky).
func (st *mergeStream) Next() (*Chunk, error) {
	if st.err != nil {
		return nil, st.err
	}
	c, err := st.next()
	if err != nil {
		st.err = err
		st.Close()
		return nil, err
	}
	c.Seq = st.seq
	st.seq++
	return c, nil
}

func (st *mergeStream) next() (*Chunk, error) {
	switch st.stage {
	case stageHeader:
		head, err := st.feeds[0].Head()
		if err != nil {
			return nil, err
		}
		if head.Left == nil {
			return nil, fmt.Errorf("engine: merge: first feed supplied no left boundary proof")
		}
		st.curHead, st.headDone = head, true
		st.feet[0] = ShardFoot{Shard: head.Shard}
		st.stage = stageEntries
		return &Chunk{
			Type:      ChunkHeader,
			Shard:     head.Shard,
			Relation:  st.eff.Relation,
			Effective: st.eff,
			KeyLo:     st.eff.KeyLo,
			KeyHi:     st.eff.KeyHi,
			Left:      *head.Left,
		}, nil

	case stageEntries:
		for st.cur < len(st.feeds) {
			if !st.headDone {
				head, err := st.feeds[st.cur].Head()
				if err != nil {
					return nil, err
				}
				st.curHead, st.headDone = head, true
				st.feet[st.cur] = ShardFoot{Shard: head.Shard}
			}
			c, err := st.feeds[st.cur].Next()
			if err == io.EOF {
				foot, err := st.feeds[st.cur].Foot()
				if err != nil {
					return nil, err
				}
				if st.agg != nil && foot.Partial != nil {
					if err := st.agg.Add(foot.Partial); err != nil {
						return nil, fmt.Errorf("engine: combining shard aggregate: %w", err)
					}
				}
				if st.cur == 0 {
					st.firstFoot = foot
				}
				if st.cur == len(st.feeds)-1 {
					st.lastFoot = foot
				}
				st.cur++
				st.headDone = false
				continue
			}
			if err != nil {
				return nil, err
			}
			if c.Type != ChunkEntries {
				return nil, fmt.Errorf("engine: merge: feed produced %v chunk", c.Type)
			}
			if c.Shard != st.curHead.Shard {
				return nil, fmt.Errorf("engine: merge: feed for shard %d produced chunk tagged %d", st.curHead.Shard, c.Shard)
			}
			st.feet[st.cur].Entries += uint64(len(c.Entries))
			return c, nil
		}
		st.stage = stageFooter
		return st.next()

	case stageFooter:
		return st.footer()

	default:
		return nil, io.EOF
	}
}

// footer assembles the merged footer from the first and last feeds'
// summaries: the right boundary proof, the empty-range predecessor
// material when nothing was covered, the combined condensed signature,
// and the per-shard continuity accounting.
func (st *mergeStream) footer() (*Chunk, error) {
	if st.lastFoot.Right == nil {
		return nil, fmt.Errorf("engine: merge: last feed supplied no right boundary proof")
	}
	c := &Chunk{Type: ChunkFooter, Shard: st.feet[len(st.feet)-1].Shard, Right: *st.lastFoot.Right}
	var total uint64
	for _, f := range st.feet {
		total += f.Entries
	}
	if total == 0 {
		if st.firstFoot.PredSig == nil {
			return nil, fmt.Errorf("engine: merge: empty range without predecessor material")
		}
		if st.agg != nil {
			if err := st.agg.Add(st.firstFoot.PredSig); err != nil {
				return nil, fmt.Errorf("engine: aggregation: %w", err)
			}
		} else {
			c.Sigs = []sig.Signature{st.firstFoot.PredSig}
		}
		switch {
		case st.firstFoot.NeedPrevG:
			if st.prevG == nil {
				return nil, fmt.Errorf("engine: merge needs the preceding shard for an empty range")
			}
			g, err := st.prevG()
			if err != nil {
				return nil, fmt.Errorf("engine: merge: resolving predecessor digest: %w", err)
			}
			c.PredPrevG = g
		default:
			c.PredPrevG = st.firstFoot.PredPrevG
		}
	}
	if st.agg != nil {
		agg, err := st.agg.Sum()
		if err != nil {
			return nil, fmt.Errorf("engine: aggregation: %w", err)
		}
		c.AggSig = agg
	}
	c.ShardFeet = append([]ShardFoot(nil), st.feet...)
	st.stage = stageDone
	return c, nil
}

// Close releases every feed. Safe to call at any time, more than once.
func (st *mergeStream) Close() error {
	for _, f := range st.feeds {
		f.Close()
	}
	return nil
}
