package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"encoding/gob"

	"vcqr/internal/core"
	"vcqr/internal/delta"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/obs"
	"vcqr/internal/partition"
	"vcqr/internal/relation"
	"vcqr/internal/store"
	"vcqr/internal/wire"
)

// This file is shard-node mode: the server side of the distributed tier
// (internal/cluster). A node hosts individual shard slices — installed,
// served, and removed one at a time by a coordinator — instead of a
// whole partitioned publication. Each hosted slice is a regular store
// entry with its own copy-on-write epoch, so everything the in-process
// partitioned server guarantees (pinned streams across cutovers, per-
// shard isolation) holds per node for free.
//
// The node stays untrusted exactly like a whole publisher: nothing it
// serves is believed without verification, so the coordinator/node
// protocol needs integrity *signals* (slice digests, seam material), not
// integrity guarantees. What the node does owe the control plane is
// fail-fast honesty about its own state — refusing shards it does not
// host (the stale-routing signal), refusing transfers that do not
// validate, and staging deltas all-or-nothing.
//
// Distributed deltas run in two phases because mirror stitching spans
// processes: prepare applies and validates everything checkable locally
// and publishes nothing; the coordinator then pushes cross-node mirror
// fixes, re-checks every affected seam from shipped edge material, and
// only then commits each node's staged slices. A crashed coordinator
// leaves at most a staged transaction, which the next prepare discards.

// Node-mode errors.
var (
	// ErrNodeNotHosting refuses a shard request for a shard this node
	// does not host. The message embeds wire.NotHostingMsg so the
	// coordinator recognizes the stale-routing signal and re-reads its
	// routing table.
	ErrNodeNotHosting = errors.New("server: " + wire.NotHostingMsg)
	// ErrSpecVersion refuses an install whose partition spec disagrees
	// with the layout this node already hosts slices of.
	ErrSpecVersion = errors.New("server: partition spec version mismatch")
	// ErrStagedToken refuses a staged-delta operation whose token does
	// not match the staged transaction (a crashed or confused
	// coordinator).
	ErrStagedToken = errors.New("server: staged delta token mismatch")
	// ErrInstallInvalid refuses a shard install that fails validation.
	ErrInstallInvalid = errors.New("server: shard install failed validation")
)

// hostedShard is the per-slice bookkeeping of node mode.
type hostedShard struct {
	// installDigest is the slice digest at install time. Comparing it
	// with the current digest tells whether this copy has been written
	// to since it was installed — the recovery signal that identifies
	// the written-to copy of a double-hosted shard (coordinator crash
	// mid-migration) regardless of either copy's prior history.
	installDigest hashx.Digest
	// digest is the current slice digest, refreshed by every publish
	// path (install, delta commit) under nt.mu so sub-stream hellos can
	// claim the hosting slice's identity without an O(slice) rehash per
	// stream. Decisive compares (migration cutover) keep recomputing
	// from bytes via ShardDigestInfo.
	digest hashx.Digest
	// deltas counts update batches committed against the slice since it
	// was installed on this node.
	deltas  atomic.Uint64
	streams atomic.Uint64
}

// stagedTx is one prepared-but-unpublished distributed delta.
type stagedTx struct {
	token  uint64
	slices map[int]*core.SignedRelation
}

// nodeTable is the node-mode state of one relation.
type nodeTable struct {
	spec   partition.Spec
	params core.Params
	schema relation.Schema

	// mu serializes installs, removes and staged-delta operations for
	// this relation; queries never take it.
	mu     sync.Mutex
	hosted map[int]*hostedShard
	staged *stagedTx
}

// nodeFor returns the node table for a relation, or nil.
func (s *Server) nodeFor(name string) *nodeTable {
	s.nodeMu.RLock()
	nt := s.nodeRels[name]
	s.nodeMu.RUnlock()
	return nt
}

// InstallShard hosts one shard slice received over a transfer stream.
// The slice is validated as far as a slice can be: span containment,
// delimiter placement, every entry's digest material, and the signature
// of every record whose chain neighbours travel with the slice (all but
// the two context records — their signatures bind records on other
// shards and are re-checked at seam level by the control plane).
// Reinstalling a hosted shard replaces it (migration catch-up);
// in-flight streams keep their pinned epochs.
func (s *Server) InstallShard(man wire.ShardManifest, sr *core.SignedRelation) error {
	if err := man.Spec.Validate(); err != nil {
		return err
	}
	if man.Shard < 0 || man.Shard >= man.Spec.K() {
		return fmt.Errorf("%w: shard %d of %d", ErrInstallInvalid, man.Shard, man.Spec.K())
	}
	if err := s.validateSlice(man.Spec, man.Shard, sr); err != nil {
		return fmt.Errorf("%w: %v", ErrInstallInvalid, err)
	}
	name := man.Spec.Relation

	// Lock order is partMu before nodeMu everywhere (AddRelation and
	// AddPartition hold partMu and peek at nodeRels through nodeFor);
	// taking them in the other order here would be an ABBA deadlock.
	// s.parts is read directly instead of via partFor because RLock is
	// not reentrant once a writer queues.
	s.partMu.RLock()
	defer s.partMu.RUnlock()
	s.nodeMu.Lock()
	defer s.nodeMu.Unlock()
	if s.parts[name] != nil {
		return fmt.Errorf("%w: %q (partitioned)", ErrAlreadyHosted, name)
	}
	if _, _, plain := s.store.View(name); plain {
		return fmt.Errorf("%w: %q", ErrAlreadyHosted, name)
	}
	nt := s.nodeRels[name]
	if nt == nil {
		nt = &nodeTable{
			spec:   man.Spec,
			params: sr.Params,
			schema: sr.Schema,
			hosted: map[int]*hostedShard{},
		}
		s.nodeRels[name] = nt
	}

	// The spec check-and-adopt and the hosting write share one nt.mu
	// critical section: every other reader of nt.spec holds nt.mu too.
	nt.mu.Lock()
	defer nt.mu.Unlock()
	if !nt.spec.Same(man.Spec) {
		if man.Spec.Version <= nt.spec.Version {
			return fmt.Errorf("%w: hosting v%d, install carries v%d", ErrSpecVersion, nt.spec.Version, man.Spec.Version)
		}
		if len(nt.hosted) > 1 || (len(nt.hosted) == 1 && nt.hosted[man.Shard] == nil) {
			// Slices of the old layout cannot coexist with the new one.
			return fmt.Errorf("%w: still hosting v%d slices", ErrSpecVersion, nt.spec.Version)
		}
		nt.spec = man.Spec
	}
	// Append-before-acknowledge: the install lands in the durable WAL
	// (synced) before it is published or the coordinator hears success.
	// A failed append refuses the install — the node never acknowledges
	// state a SIGKILL would lose.
	dg := partition.SliceDigest(s.h, sr)
	if s.nstore != nil {
		if err := s.nstore.LogInstall(name, man.Spec, man.Shard, sr, dg); err != nil {
			return fmt.Errorf("server: install not durable: %w", err)
		}
	}
	s.store.AddNamed(shardName(name, man.Shard), sr)
	hs := &hostedShard{installDigest: dg, digest: dg}
	nt.hosted[man.Shard] = hs
	s.installs.Add(1)
	return nil
}

// validateSlice checks what a slice can prove about itself: structural
// shape, span containment, digest material everywhere, and every
// locally-checkable signature.
func (s *Server) validateSlice(spec partition.Spec, shard int, sr *core.SignedRelation) error {
	n := len(sr.Recs)
	if n < 3 {
		return fmt.Errorf("slice has %d entries", n)
	}
	if shard == 0 && sr.Recs[0].Kind != core.KindDelimLeft {
		return fmt.Errorf("first shard without left delimiter")
	}
	if shard == spec.K()-1 && sr.Recs[n-1].Kind != core.KindDelimRight {
		return fmt.Errorf("last shard without right delimiter")
	}
	lo, hi := spec.Span(shard)
	for j := 1; j < n-1; j++ {
		if sr.Recs[j].Kind != core.KindRecord {
			return fmt.Errorf("interior entry %d is a %v", j, sr.Recs[j].Kind)
		}
		if k := sr.Recs[j].Key(); k < lo || k > hi {
			return fmt.Errorf("owned key %d outside span [%d,%d]", k, lo, hi)
		}
	}
	for j := 0; j < n; j++ {
		if err := sr.CheckEntryDigests(s.h, j); err != nil {
			return err
		}
		if (j == 0 || j == n-1) && sr.Recs[j].Kind == core.KindRecord {
			continue // context record: signature binds off-slice records
		}
		if !sr.VerifyEntrySig(s.h, s.pub, j) {
			return fmt.Errorf("entry %d signature invalid", j)
		}
	}
	return nil
}

// RemoveShard drops a hosted slice. In-flight streams keep their pinned
// epochs; new requests for the shard get the not-hosting refusal.
func (s *Server) RemoveShard(ref wire.ShardRef) error {
	nt := s.nodeFor(ref.Relation)
	if nt == nil {
		return fmt.Errorf("%w %d of %q", ErrNodeNotHosting, ref.Shard, ref.Relation)
	}
	nt.mu.Lock()
	defer nt.mu.Unlock()
	if nt.hosted[ref.Shard] == nil {
		return fmt.Errorf("%w %d of %q", ErrNodeNotHosting, ref.Shard, ref.Relation)
	}
	if s.nstore != nil {
		if err := s.nstore.LogRemove(ref.Relation, ref.Shard); err != nil {
			return fmt.Errorf("server: remove not durable: %w", err)
		}
	}
	delete(nt.hosted, ref.Shard)
	s.store.Remove(shardName(ref.Relation, ref.Shard))
	return nil
}

// viewHosted pins a hosted slice, returning the pinned snapshot, its
// store epoch and the cached slice digest as one consistent triple:
// every publish path (install, delta commit) swaps the store entry and
// refreshes the cached digest inside the same nt.mu critical section
// this read holds, so the digest always names exactly the returned
// slice. Holding nt.mu across store.View matches the existing lock
// order (publishers already call store.AddNamed under nt.mu).
func (s *Server) viewHosted(ref wire.ShardRef) (*nodeTable, *core.SignedRelation, uint64, hashx.Digest, error) {
	nt := s.nodeFor(ref.Relation)
	if nt == nil {
		return nil, nil, 0, nil, fmt.Errorf("%w %d of %q", ErrNodeNotHosting, ref.Shard, ref.Relation)
	}
	nt.mu.Lock()
	defer nt.mu.Unlock()
	hs := nt.hosted[ref.Shard]
	if hs == nil {
		return nil, nil, 0, nil, fmt.Errorf("%w %d of %q", ErrNodeNotHosting, ref.Shard, ref.Relation)
	}
	sl, epoch, ok := s.store.View(shardName(ref.Relation, ref.Shard))
	if !ok {
		return nil, nil, 0, nil, fmt.Errorf("%w %d of %q", ErrNodeNotHosting, ref.Shard, ref.Relation)
	}
	return nt, sl, epoch, hs.digest, nil
}

// ShardEdges returns a hosted slice's seam material.
func (s *Server) ShardEdges(ref wire.ShardRef) (wire.EdgeResponse, error) {
	_, sl, epoch, _, err := s.viewHosted(ref)
	if err != nil {
		return wire.EdgeResponse{}, err
	}
	return wire.EdgeResponse{Epoch: epoch, Edges: partition.EdgesOf(sl)}, nil
}

// ShardDigestInfo returns a hosted slice's digest summary.
func (s *Server) ShardDigestInfo(ref wire.ShardRef) (wire.DigestResponse, error) {
	nt, sl, epoch, _, err := s.viewHosted(ref)
	if err != nil {
		return wire.DigestResponse{}, err
	}
	nt.mu.Lock()
	var deltas uint64
	var installDigest hashx.Digest
	if hs := nt.hosted[ref.Shard]; hs != nil {
		deltas = hs.deltas.Load()
		installDigest = hs.installDigest
	}
	nt.mu.Unlock()
	return wire.DigestResponse{
		Epoch:         epoch,
		Digest:        partition.SliceDigest(s.h, sl),
		InstallDigest: installDigest,
		Records:       sl.Len(),
		Deltas:        deltas,
	}, nil
}

// HostedInventory lists everything this node hosts, with per-slice
// digests — the discovery input of coordinator recovery.
func (s *Server) HostedInventory() wire.HostedResponse {
	out := wire.HostedResponse{Relations: map[string]wire.HostedInfo{}}
	s.nodeMu.RLock()
	names := make([]string, 0, len(s.nodeRels))
	for name := range s.nodeRels {
		names = append(names, name)
	}
	s.nodeMu.RUnlock()
	sort.Strings(names)
	for _, name := range names {
		nt := s.nodeFor(name)
		if nt == nil {
			continue
		}
		nt.mu.Lock()
		shards := make([]int, 0, len(nt.hosted))
		for i := range nt.hosted {
			shards = append(shards, i)
		}
		spec := nt.spec
		nt.mu.Unlock()
		sort.Ints(shards)
		info := wire.HostedInfo{Spec: spec}
		for _, i := range shards {
			dg, err := s.ShardDigestInfo(wire.ShardRef{Relation: name, Shard: i})
			if err != nil {
				continue // removed between listing and probing
			}
			info.Shards = append(info.Shards, wire.HostedShard{
				Shard: i, Epoch: dg.Epoch, Digest: dg.Digest, InstallDigest: dg.InstallDigest,
				Records: dg.Records, Deltas: dg.Deltas,
			})
		}
		out.Relations[name] = info
	}
	return out
}

// WriteShardTo streams a hosted slice as transfer frames — the fetch
// half of a migration.
func (s *Server) WriteShardTo(w io.Writer, ref wire.ShardRef) error {
	nt, sl, epoch, _, err := s.viewHosted(ref)
	if err != nil {
		return err
	}
	nt.mu.Lock()
	var deltas uint64
	if hs := nt.hosted[ref.Shard]; hs != nil {
		deltas = hs.deltas.Load()
	}
	spec := nt.spec
	nt.mu.Unlock()
	man := wire.ShardManifest{Spec: spec, Shard: ref.Shard, Epoch: epoch, Deltas: deltas}
	return wire.WriteShardTransfer(w, s.h, man, sl)
}

// --- leases / heartbeats ----------------------------------------------

// nodeLease is the node's view of its most recent coordinator lease.
// Leases are purely advisory on the node: it serves whatever it hosts
// regardless (an expired lease means the *coordinator* stops routing
// here, not that the node goes dark), so this state exists for /statsz
// and operators, never for admission control.
type nodeLease struct {
	mu          sync.Mutex
	coordinator string
	epoch       uint64
	seq         uint64
	ttl         time.Duration
	granted     time.Time
	renewals    uint64
}

// NodeLeaseStat is the /statsz rendering of the node's lease view.
type NodeLeaseStat struct {
	// Coordinator identifies the granting coordinator; Epoch is the
	// routing epoch the last heartbeat carried.
	Coordinator string
	Epoch       uint64
	Seq         uint64
	TTLMillis   int64
	// Renewals counts accepted heartbeats; Live reports whether the
	// lease TTL has elapsed since the last one.
	Renewals uint64
	Live     bool
}

// RecordLease ingests one coordinator heartbeat and returns the load
// acknowledgement. Heartbeats from the recorded coordinator must move
// Seq forward — a delayed, re-ordered heartbeat cannot roll the lease
// view backwards; a different coordinator (failover of the control
// plane itself) always takes over.
func (s *Server) RecordLease(req wire.LeaseRequest) wire.LeaseResponse {
	s.lease.mu.Lock()
	if req.Coordinator != s.lease.coordinator || req.Seq > s.lease.seq {
		s.lease.coordinator = req.Coordinator
		s.lease.epoch = req.Epoch
		s.lease.seq = req.Seq
		s.lease.ttl = time.Duration(req.TTLMillis) * time.Millisecond
		s.lease.granted = time.Now()
		s.lease.renewals++
	}
	epoch := s.lease.epoch
	s.lease.mu.Unlock()

	hosted := 0
	s.nodeMu.RLock()
	names := make([]string, 0, len(s.nodeRels))
	for name := range s.nodeRels {
		names = append(names, name)
	}
	s.nodeMu.RUnlock()
	for _, name := range names {
		if nt := s.nodeFor(name); nt != nil {
			nt.mu.Lock()
			hosted += len(nt.hosted)
			nt.mu.Unlock()
		}
	}
	inflight := s.subInflight.Load()
	if inflight < 0 {
		inflight = 0
	}
	return wire.LeaseResponse{Epoch: epoch, Hosted: hosted, Inflight: uint64(inflight)}
}

// leaseStat snapshots the lease view for Stats; nil when no coordinator
// has ever heartbeated this process.
func (s *Server) leaseStat() *NodeLeaseStat {
	s.lease.mu.Lock()
	defer s.lease.mu.Unlock()
	if s.lease.coordinator == "" && s.lease.renewals == 0 {
		return nil
	}
	return &NodeLeaseStat{
		Coordinator: s.lease.coordinator,
		Epoch:       s.lease.epoch,
		Seq:         s.lease.seq,
		TTLMillis:   s.lease.ttl.Milliseconds(),
		Renewals:    s.lease.renewals,
		Live:        s.lease.ttl <= 0 || time.Since(s.lease.granted) < s.lease.ttl,
	}
}

// --- shard sub-streams ------------------------------------------------

// serveShardPartial answers one fan-out sub-query as node frames: hello
// (pinned epoch + seam material + left proof when first), entry chunks,
// foot (partial signature + right proof when last). The slice's epoch is
// pinned for the stream's whole lifetime, exactly like a user-facing
// stream.
func (s *Server) serveShardPartial(w io.Writer, flush func(), req wire.ShardStreamRequest) error {
	// The span carries the coordinator's trace ID (advisory, propagated in
	// an optional wire field) so one trace stitches the fan-out together
	// across processes; assembleNS isolates chunk-building time from the
	// write/flush share.
	span := obs.StartSpan(req.Trace)
	var assembleNS int64
	defer func() {
		span.AddNS(obs.StageVOAssemble, assembleNS)
		s.obs.Hist(obs.StageSubStream).ObserveSince(span.Start())
		s.obs.Slow.Finish(span, "substream",
			fmt.Sprintf("relation=%s shard=%d", req.Query.Relation, req.Shard))
	}()
	ref := wire.ShardRef{Relation: req.Query.Relation, Shard: req.Shard}
	nt, sl, epoch, dg, err := s.viewHosted(ref)
	if err != nil {
		writeNodeErr(w, flush, err)
		return err
	}
	sp, err := s.exec.ShardPartial(sl, req.Role, req.Query, req.Shard, req.Lo, req.Hi, req.First, req.Last,
		engine.StreamOpts{ChunkRows: req.ChunkRows, ReuseChunks: true})
	if err != nil {
		writeNodeErr(w, flush, err)
		return err
	}
	t0 := time.Now()
	head, err := sp.Head()
	assembleNS += int64(time.Since(t0))
	if err != nil {
		writeNodeErr(w, flush, err)
		return err
	}
	nt.mu.Lock()
	if hs := nt.hosted[req.Shard]; hs != nil {
		hs.streams.Add(1)
	}
	nt.mu.Unlock()
	s.shardStreams.Add(1)
	s.subInflight.Add(1)
	defer s.subInflight.Add(-1)
	hello := wire.NodeHello{Shard: req.Shard, Epoch: epoch, Edges: partition.EdgesOf(sl), Left: head.Left, Digest: dg}
	if err := wire.WriteNodeFrame(w, &wire.NodeFrame{Hello: &hello}); err != nil {
		return err
	}
	flush()
	for {
		tn := time.Now()
		c, err := sp.Next()
		assembleNS += int64(time.Since(tn))
		if err == io.EOF {
			break
		}
		if err != nil {
			writeNodeErr(w, flush, err)
			return err
		}
		if err := wire.WriteNodeFrame(w, &wire.NodeFrame{Chunk: c}); err != nil {
			return err
		}
		flush()
	}
	t0 = time.Now()
	foot, err := sp.Foot()
	assembleNS += int64(time.Since(t0))
	if err != nil {
		writeNodeErr(w, flush, err)
		return err
	}
	nf := wire.NodeFoot{
		Entries: foot.Entries, Partial: foot.Partial,
		Right: foot.Right, PredSig: foot.PredSig, PredPrevG: foot.PredPrevG, NeedPrevG: foot.NeedPrevG,
		// Advisory per-stage breakdown, outside every digest and signature:
		// the coordinator folds it into its trace and /metrics aggregate.
		Timing: []obs.StageDur{
			{Stage: obs.StageSubStream, NS: int64(span.Elapsed())},
			{Stage: obs.StageVOAssemble, NS: assembleNS},
		},
	}
	if err := wire.WriteNodeFrame(w, &wire.NodeFrame{Foot: &nf}); err != nil {
		return err
	}
	flush()
	return nil
}

func writeNodeErr(w io.Writer, flush func(), err error) {
	if wire.WriteNodeFrame(w, &wire.NodeFrame{Err: err.Error()}) == nil {
		flush()
	}
}

// --- two-phase distributed delta -------------------------------------

// PrepareNodeDelta stages an update batch against this node's hosted
// shards: apply each shard's sub-batch on a clone, stitch mirrors among
// co-hosted slices, and validate every touched neighbourhood that can be
// checked without a cross-node mirror. Nothing publishes; the staged
// slices wait for mirror fixes and a commit. A previous staged
// transaction (crashed coordinator) is discarded.
func (s *Server) PrepareNodeDelta(d delta.Delta) (wire.NodeDeltaResponse, error) {
	nt := s.nodeFor(d.Relation)
	if nt == nil {
		return wire.NodeDeltaResponse{}, fmt.Errorf("%w 0 of %q", ErrNodeNotHosting, d.Relation)
	}
	nt.mu.Lock()
	defer nt.mu.Unlock()
	nt.staged = nil // discard any crashed coordinator's leftovers

	k := nt.spec.K()
	groups := map[int][]delta.Op{}
	for _, op := range d.Ops {
		var shard int
		switch {
		case op.Kind == delta.OpUpsert && op.Rec.Kind == core.KindDelimLeft:
			shard = 0
		case op.Kind == delta.OpUpsert && op.Rec.Kind == core.KindDelimRight:
			shard = k - 1
		default:
			var err error
			shard, err = nt.spec.ShardFor(op.Key)
			if err != nil {
				return wire.NodeDeltaResponse{}, fmt.Errorf("server: delta rejected: %w", err)
			}
		}
		if nt.hosted[shard] == nil {
			return wire.NodeDeltaResponse{}, fmt.Errorf("%w %d of %q (delta misrouted)", ErrNodeNotHosting, shard, d.Relation)
		}
		groups[shard] = append(groups[shard], op)
	}
	affected := make([]int, 0, len(groups))
	for i := range groups {
		affected = append(affected, i)
	}
	sort.Ints(affected)

	// Phase 1: apply each sub-batch on a clone, validation deferred.
	news := map[int]*core.SignedRelation{}
	touched := map[int][]int{}
	current := func(i int) (*core.SignedRelation, error) {
		if sl := news[i]; sl != nil {
			return sl, nil
		}
		if nt.hosted[i] == nil {
			return nil, fmt.Errorf("%w %d of %q", ErrNodeNotHosting, i, d.Relation)
		}
		sl, _, ok := s.store.View(shardName(d.Relation, i))
		if !ok {
			return nil, fmt.Errorf("%w %d of %q", ErrNodeNotHosting, i, d.Relation)
		}
		return sl, nil
	}
	for _, i := range affected {
		cur, err := current(i)
		if err != nil {
			return wire.NodeDeltaResponse{}, err
		}
		next := cur.Clone()
		idxs, err := delta.ApplyOps(next, delta.Delta{Relation: d.Relation, Ops: groups[i]})
		if err != nil {
			return wire.NodeDeltaResponse{}, fmt.Errorf("server: delta rejected: %w", err)
		}
		if next.Len() < 1 {
			return wire.NodeDeltaResponse{}, fmt.Errorf("%w: shard %d", ErrShardUnderflow, i)
		}
		news[i] = next
		touched[i] = idxs
	}

	// Phase 2: stitch mirrors among co-hosted slices; cross-node mirrors
	// arrive later as MirrorRequests from the coordinator.
	mutable := func(i int) (*core.SignedRelation, error) {
		if sl := news[i]; sl != nil {
			return sl, nil
		}
		cur, err := current(i)
		if err != nil {
			return nil, err
		}
		news[i] = cur.Clone()
		return news[i], nil
	}
	for _, i := range affected {
		sl := news[i]
		if i > 0 && nt.hosted[i-1] != nil {
			want := sl.Recs[1]
			left, err := current(i - 1)
			if err != nil {
				return wire.NodeDeltaResponse{}, err
			}
			if !partition.SameRecord(left.Recs[len(left.Recs)-1], want) {
				left, err = mutable(i - 1)
				if err != nil {
					return wire.NodeDeltaResponse{}, err
				}
				left.Recs[len(left.Recs)-1] = want.Clone()
				touched[i-1] = append(touched[i-1], len(left.Recs)-1)
			}
		}
		if i < k-1 && nt.hosted[i+1] != nil {
			want := sl.Recs[len(sl.Recs)-2]
			right, err := current(i + 1)
			if err != nil {
				return wire.NodeDeltaResponse{}, err
			}
			if !partition.SameRecord(right.Recs[0], want) {
				right, err = mutable(i + 1)
				if err != nil {
					return wire.NodeDeltaResponse{}, err
				}
				right.Recs[0] = want.Clone()
				touched[i+1] = append(touched[i+1], 0)
			}
		}
	}

	// Phase 3: refresh index leaves the stitch edited directly, then
	// validate every touched neighbourhood that is locally checkable. A
	// position adjacent to an off-node mirror is deferred: the
	// coordinator's seam checks cover it before commit.
	for i, sl := range news {
		sl.RefreshAggIndex(touched[i])
		leftFresh := i == 0 || nt.hosted[i-1] != nil
		rightFresh := i == k-1 || nt.hosted[i+1] != nil
		if err := validateStagedSlice(s, sl, touched[i], leftFresh, rightFresh); err != nil {
			return wire.NodeDeltaResponse{}, fmt.Errorf("server: delta rejected: shard %d: %w", i, err)
		}
	}

	tx := &stagedTx{token: s.stagedTokens.Add(1), slices: news}
	nt.staged = tx
	resp := wire.NodeDeltaResponse{Token: tx.token}
	modified := make([]int, 0, len(news))
	for i := range news {
		modified = append(modified, i)
	}
	sort.Ints(modified)
	for _, i := range modified {
		resp.Modified = append(resp.Modified, wire.ModifiedShard{Shard: i, Edges: partition.EdgesOf(news[i])})
	}
	return resp, nil
}

// validateStagedSlice is delta.ValidateTouched with the cross-node
// deferral: context-record signatures are always skipped (they bind
// off-slice records), and the edge-most owned record's signature is
// skipped when the adjacent mirror lives on another node and may be
// stale until the coordinator's mirror fix. Digest material is checked
// everywhere regardless.
func validateStagedSlice(s *Server, sl *core.SignedRelation, touched []int, leftFresh, rightFresh bool) error {
	n := len(sl.Recs)
	for _, i := range touched {
		if i < 0 || i >= n {
			continue
		}
		if err := sl.CheckEntryDigests(s.h, i); err != nil {
			return fmt.Errorf("%w: %v", delta.ErrValidation, err)
		}
		switch {
		case (i == 0 || i == n-1) && sl.Recs[i].Kind == core.KindRecord:
			continue
		case i == 1 && !leftFresh:
			continue
		case i == n-2 && !rightFresh:
			continue
		}
		if !sl.VerifyEntrySig(s.h, s.pub, i) {
			return fmt.Errorf("%w: entry %d signature", delta.ErrValidation, i)
		}
	}
	return nil
}

// StageMirror applies one cross-node mirror fix to the staged delta:
// the named context record is replaced with the neighbour shard's staged
// edge record, and the adjacent owned record — whose signature binds the
// new context digest — is validated in full. Token 0 opens a fresh
// staging transaction (the fixed shard had no local ops).
func (s *Server) StageMirror(req wire.MirrorRequest) (wire.MirrorResponse, error) {
	nt := s.nodeFor(req.Relation)
	if nt == nil {
		return wire.MirrorResponse{}, fmt.Errorf("%w %d of %q", ErrNodeNotHosting, req.Shard, req.Relation)
	}
	nt.mu.Lock()
	defer nt.mu.Unlock()
	if nt.hosted[req.Shard] == nil {
		return wire.MirrorResponse{}, fmt.Errorf("%w %d of %q", ErrNodeNotHosting, req.Shard, req.Relation)
	}
	switch {
	case req.Token == 0:
		// Opening a new transaction; leftovers from a crashed
		// coordinator's unfinished delta must not ride along.
		nt.staged = &stagedTx{token: s.stagedTokens.Add(1), slices: map[int]*core.SignedRelation{}}
	case nt.staged == nil || nt.staged.token != req.Token:
		return wire.MirrorResponse{}, ErrStagedToken
	}
	tx := nt.staged
	sl := tx.slices[req.Shard]
	if sl == nil {
		cur, _, ok := s.store.View(shardName(req.Relation, req.Shard))
		if !ok {
			return wire.MirrorResponse{}, fmt.Errorf("%w %d of %q", ErrNodeNotHosting, req.Shard, req.Relation)
		}
		sl = cur.Clone()
		tx.slices[req.Shard] = sl
	}
	pos, adj := 0, 1
	if !req.Left {
		pos, adj = len(sl.Recs)-1, len(sl.Recs)-2
	}
	sl.Recs[pos] = req.Rec.Clone()
	sl.RefreshAggIndex([]int{pos})
	if err := sl.CheckEntryDigests(s.h, pos); err != nil {
		return wire.MirrorResponse{}, fmt.Errorf("server: mirror fix rejected: %w", err)
	}
	if !sl.VerifyEntrySig(s.h, s.pub, adj) {
		return wire.MirrorResponse{}, fmt.Errorf("server: mirror fix rejected: %w: entry %d signature", delta.ErrValidation, adj)
	}
	return wire.MirrorResponse{Token: tx.token, Edges: partition.EdgesOf(sl)}, nil
}

// FinishNodeDelta commits or aborts the staged transaction. Commit
// publishes every staged slice — one epoch swap per shard, the same
// non-atomicity as the in-process partitioned publish, absorbed by
// reader re-pinning — and bumps the per-shard delta counters.
func (s *Server) FinishNodeDelta(req wire.TxRequest) (uint64, error) {
	nt := s.nodeFor(req.Relation)
	if nt == nil {
		return 0, fmt.Errorf("%w 0 of %q", ErrNodeNotHosting, req.Relation)
	}
	nt.mu.Lock()
	defer nt.mu.Unlock()
	if nt.staged == nil || nt.staged.token != req.Token {
		return 0, ErrStagedToken
	}
	tx := nt.staged
	nt.staged = nil
	if !req.Commit {
		return 0, nil
	}
	shards := make([]int, 0, len(tx.slices))
	for i := range tx.slices {
		shards = append(shards, i)
	}
	sort.Ints(shards)
	// Append-before-acknowledge: the committed delta lands in the
	// durable WAL before any slice publishes. A failed append refuses
	// the commit with the staged transaction already discarded — the
	// coordinator sees the error and re-drives the delta; nothing was
	// published, so the node's served state never disagrees with what a
	// restart would recover.
	digests := make(map[int]hashx.Digest, len(shards))
	for _, i := range shards {
		digests[i] = partition.SliceDigest(s.h, tx.slices[i])
	}
	if s.nstore != nil {
		cs := make([]store.CommitShard, 0, len(shards))
		for _, i := range shards {
			var old *core.SignedRelation
			if sl, _, ok := s.store.View(shardName(req.Relation, i)); ok {
				old = sl
			}
			cs = append(cs, store.CommitShard{Shard: i, Old: old, New: tx.slices[i], PostDigest: digests[i]})
		}
		if err := s.nstore.LogCommit(req.Relation, cs); err != nil {
			return 0, fmt.Errorf("server: delta commit not durable: %w", err)
		}
	}
	var epoch uint64
	for _, i := range shards {
		e := s.store.AddNamed(shardName(req.Relation, i), tx.slices[i])
		if e > epoch {
			epoch = e
		}
		if hs := nt.hosted[i]; hs != nil {
			hs.deltas.Add(1)
			hs.digest = digests[i]
		}
	}
	s.deltasApplied.Add(1)
	return epoch, nil
}

// --- HTTP wiring ------------------------------------------------------

// nodeHandlers registers the coordinator-facing endpoints.
func (s *Server) nodeHandlers(mux *http.ServeMux) {
	gobEndpoint := func(path string, handle func(dec *gob.Decoder) (any, error)) {
		mux.Handle(path, wire.CapBody(wire.MaxDeltaBody, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				http.Error(w, "POST only", http.StatusMethodNotAllowed)
				return
			}
			resp, err := handle(gob.NewDecoder(r.Body))
			if err != nil {
				s.errors.Add(1)
			}
			writeGob(w, resp)
		})))
	}

	// The edge probe runs on every pinned cross-shard query, so its
	// answer rides the frame codec rather than the gob control envelope.
	mux.Handle("/shard/edges", wire.CapBody(wire.MaxQueryBody, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var ref wire.ShardRef
		if err := gob.NewDecoder(r.Body).Decode(&ref); err != nil {
			http.Error(w, err.Error(), wire.BodyStatus(err))
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		out, err := s.ShardEdges(ref)
		if err != nil {
			s.errors.Add(1)
			out.Err = err.Error()
		}
		wire.WriteEdgeResponse(w, &out)
	})))
	gobEndpoint("/shard/digest", func(dec *gob.Decoder) (any, error) {
		var ref wire.ShardRef
		if err := dec.Decode(&ref); err != nil {
			return wire.DigestResponse{Err: err.Error()}, err
		}
		out, err := s.ShardDigestInfo(ref)
		if err != nil {
			out.Err = err.Error()
		}
		return out, err
	})
	gobEndpoint("/shard/remove", func(dec *gob.Decoder) (any, error) {
		var ref wire.ShardRef
		if err := dec.Decode(&ref); err != nil {
			return wire.OKResponse{Err: err.Error()}, err
		}
		if err := s.RemoveShard(ref); err != nil {
			return wire.OKResponse{Err: err.Error()}, err
		}
		return wire.OKResponse{}, nil
	})
	gobEndpoint("/node/hosted", func(dec *gob.Decoder) (any, error) {
		return s.HostedInventory(), nil
	})
	gobEndpoint("/node/delta", func(dec *gob.Decoder) (any, error) {
		var req wire.NodeDeltaRequest
		if err := dec.Decode(&req); err != nil {
			return wire.NodeDeltaResponse{Err: err.Error()}, err
		}
		out, err := s.PrepareNodeDelta(req.Delta)
		if err != nil {
			out.Err = err.Error()
		}
		return out, err
	})
	gobEndpoint("/node/mirror", func(dec *gob.Decoder) (any, error) {
		var req wire.MirrorRequest
		if err := dec.Decode(&req); err != nil {
			return wire.MirrorResponse{Err: err.Error()}, err
		}
		out, err := s.StageMirror(req)
		if err != nil {
			out.Err = err.Error()
		}
		return out, err
	})
	gobEndpoint("/node/tx", func(dec *gob.Decoder) (any, error) {
		var req wire.TxRequest
		if err := dec.Decode(&req); err != nil {
			return wire.OKResponse{Err: err.Error()}, err
		}
		epoch, err := s.FinishNodeDelta(req)
		if err != nil {
			return wire.OKResponse{Err: err.Error()}, err
		}
		return wire.OKResponse{Epoch: epoch}, nil
	})

	// The lease endpoint rides the frame codec in both directions (not
	// the gob control envelope), so both decode surfaces are the fuzzed
	// ones (FuzzReadLeaseFrame).
	mux.Handle("/node/lease", wire.CapBody(wire.MaxQueryBody, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		req, err := wire.ReadLeaseRequest(r.Body)
		if err != nil {
			s.errors.Add(1)
			wire.WriteLeaseResponse(w, &wire.LeaseResponse{Err: err.Error()})
			return
		}
		resp := s.RecordLease(*req)
		wire.WriteLeaseResponse(w, &resp)
	})))

	mux.Handle("/shard/install", wire.CapBody(wire.MaxDeltaBody, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		man, sr, err := wire.ReadShardTransfer(r.Body, s.h)
		if err == nil {
			err = s.InstallShard(man, sr)
		}
		if err != nil {
			s.errors.Add(1)
			writeGob(w, wire.OKResponse{Err: err.Error()})
			return
		}
		writeGob(w, wire.OKResponse{})
	})))
	mux.Handle("/shard/fetch", wire.CapBody(wire.MaxQueryBody, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var ref wire.ShardRef
		if err := gob.NewDecoder(r.Body).Decode(&ref); err != nil {
			http.Error(w, err.Error(), wire.BodyStatus(err))
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		if err := s.WriteShardTo(w, ref); err != nil {
			// Pre-frame failures can still use the status line; mid-stream
			// ones surface as a truncated transfer at the receiver.
			s.errors.Add(1)
			http.Error(w, err.Error(), http.StatusNotFound)
		}
	})))
	mux.Handle("/shard/stream", wire.CapBody(wire.MaxQueryBody, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req wire.ShardStreamRequest
		if err := gob.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), wire.BodyStatus(err))
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		flush := func() {}
		if f, ok := w.(http.Flusher); ok {
			flush = f.Flush
		}
		if err := s.serveShardPartial(w, flush, req); err != nil {
			s.errors.Add(1)
		}
	})))
}

// NodeShardStat is one hosted slice's line in /statsz.
type NodeShardStat struct {
	Shard   int
	Epoch   uint64
	Records int
	// Deltas counts committed distributed deltas since install; Streams
	// counts fan-out sub-streams served from the slice.
	Deltas, Streams uint64
}

// nodeStats snapshots the node-mode hosting state.
func (s *Server) nodeStats() map[string][]NodeShardStat {
	s.nodeMu.RLock()
	names := make([]string, 0, len(s.nodeRels))
	for name := range s.nodeRels {
		names = append(names, name)
	}
	s.nodeMu.RUnlock()
	if len(names) == 0 {
		return nil
	}
	sort.Strings(names)
	out := map[string][]NodeShardStat{}
	for _, name := range names {
		nt := s.nodeFor(name)
		if nt == nil {
			continue
		}
		nt.mu.Lock()
		shards := make([]int, 0, len(nt.hosted))
		for i := range nt.hosted {
			shards = append(shards, i)
		}
		stats := make(map[int]NodeShardStat, len(shards))
		for i, hs := range nt.hosted {
			stats[i] = NodeShardStat{Shard: i, Deltas: hs.deltas.Load(), Streams: hs.streams.Load()}
		}
		nt.mu.Unlock()
		sort.Ints(shards)
		for _, i := range shards {
			st := stats[i]
			if sl, epoch, ok := s.store.View(shardName(name, i)); ok {
				st.Epoch = epoch
				st.Records = sl.Len()
			}
			out[name] = append(out[name], st)
		}
	}
	return out
}
