package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"vcqr/internal/accessctl"
	"vcqr/internal/cache"
	"vcqr/internal/cluster"
	"vcqr/internal/hashx"
	"vcqr/internal/partition"
	"vcqr/internal/server"
	"vcqr/internal/wire"
)

// endToEnd lists the metrics an untraced run reports, in the order
// BENCHMARK.json names them. Every workload yields every one: the
// read-only cluster-serve window is followed by a separate write burst
// so its delta path is measured without disturbing its reads, and each
// topology's recover_s is its own restart path.
var endToEnd = []struct{ Name, Unit string }{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"query_p50_ms", "ms"},
	{"ttfr_p50_ms", "ms"},
	{"delta_p50_ms", "ms"},
	{"recover_s", "s"},
	{"mem_peak_mb", "MB"},
}

// tails are the highest percentiles a 10 s run supports (at least ten
// samples beyond them on every workload). They are printed and kept in
// the record but not gated: on a shared 2-vCPU host their run-to-run
// spread exceeds any bound BENCHMARK.json may set.
var tails = []string{"query_p95_ms", "delta_p80_ms"}

// prepare generates a run's inputs from its seed, sets the topology up
// (several times for an untraced run: setup_s is the median; the last
// set-up is kept), signs the deltas and, for byte-compared reads,
// captures and verifies the references. The caller closes b.d.
func prepare(o options, w workload, dataRoot string, tr *tracer) (b *bench, setups []float64, genDur time.Duration, err error) {
	p := o.Params
	tGen := time.Now()
	in, err := genInputs(w, p, o.Seed)
	if err != nil {
		return nil, nil, 0, err
	}
	genDur = time.Since(tGen)
	reps := p.SetupReps
	if tr != nil {
		reps = 1
	}
	var d *deployment
	for i := 0; i < reps; i++ {
		if d != nil {
			d.close()
		}
		if d, err = deploy(w, p, in.rel, tr, dataRoot); err != nil {
			return nil, nil, 0, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.setup.Seconds())
	}
	b = newBench(w, in, d, tr)
	windows := 1
	if tr != nil {
		windows = 2 // untraced, then traced
	}
	tGen = time.Now()
	count := int(w.WriteRate*o.Seconds+1)*windows + w.PostDeltas
	if b.deltas, err = genDeltas(d.h, d.key, d.master, victimPool(w, in), count, p.Payload, o.Seed); err != nil {
		d.close()
		return nil, nil, 0, err
	}
	if !w.Verified {
		if err := b.captureRefs(); err != nil {
			d.close()
			return nil, nil, 0, fmt.Errorf("references: %w", err)
		}
	}
	genDur += time.Since(tGen)
	return b, setups, genDur, nil
}

// run executes one invocation: set-up, the timed window(s),
// post-window writes, recovery, metrics.
func run(o options) (*record, error) {
	w, err := lookupWorkload(o.Workload)
	if err != nil {
		return nil, err
	}
	dataRoot, cleanup, err := scratchDir(o)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	rec := &record{Workload: w.Name, Seed: o.Seed, Trace: o.Trace, Seconds: o.Seconds,
		Env: collectEnv(o.Root, dataRoot), Params: o.Params, Shape: w, Correct: true}

	var tr *tracer
	if o.Trace {
		tr = newTracer()
	}
	b, setups, genDur, err := prepare(o, w, dataRoot, tr)
	if err != nil {
		return nil, err
	}
	defer b.d.close()
	T := time.Duration(o.Seconds * float64(time.Second))
	if err := b.warmUp(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	ws, err := b.window(T)
	if err != nil {
		return nil, err
	}
	var traced *windowStats
	var before, after counters
	if o.Trace {
		before = b.counters()
		tr.on.Store(true)
		traced, err = b.window(T)
		if err != nil {
			return nil, err
		}
	}
	// The read-only workload's write path, measured after its reads.
	writes := ws
	if w.PostDeltas > 0 {
		if writes, err = b.writeLoop(time.Now(), time.Time{}, w.PostDeltas, w.PostRate, nil); err != nil {
			return nil, err
		}
	}
	var layers map[string]metric
	if o.Trace {
		tr.on.Store(false)
		after = b.counters()
		if layers, err = b.perLayer(ws, traced, writes, before, after, genDur); err != nil {
			return nil, err
		}
		rec.Spans = filepath.Join(o.Build, fmt.Sprintf("spans-%s-seed%d.jsonl", w.Name, o.Seed))
		if err := tr.dump(rec.Spans, tr.aggregate()); err != nil {
			return nil, err
		}
	}
	rec.Quarantined = b.quarantined()
	for _, q := range rec.Quarantined {
		fmt.Fprintln(os.Stderr, "perfbench: program fault: honest node quarantined in a fault-free run:", q)
	}
	recovers, err := b.recover(dataRoot)
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}

	for _, s := range []*windowStats{ws, traced} {
		if s != nil {
			rec.Attempted += s.ReadAttempted + s.DeltaAttempted
			rec.Failed += s.ReadFailed + s.DeltaFailed
		}
	}
	if w.PostDeltas > 0 {
		rec.Attempted += writes.DeltaAttempted
		rec.Failed += writes.DeltaFailed
	}
	if err, _ := b.deltaErr.Load().(error); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first refused delta:", err)
	}
	rec.PerSecond = ws.PerSecond
	e2e := b.endToEnd(ws, writes, setups, recovers)
	if !o.Trace {
		rec.Tails = map[string]metric{}
		for _, name := range tails {
			rec.Tails[name] = e2e[name]
			delete(e2e, name)
		}
		rec.Metrics = e2e
		return rec, nil
	}
	rec.Untraced = e2e
	tracedWrites := writes
	if w.PostDeltas == 0 {
		tracedWrites = traced
	}
	rec.Traced = b.endToEnd(traced, tracedWrites, setups, recovers)
	layers["trace.qps_change_pct"] = metric{pctChange(rec.Traced["qps"].Value, e2e["qps"].Value), "%", 2}
	layers["trace.query_p50_change_pct"] = metric{pctChange(rec.Traced["query_p50_ms"].Value, e2e["query_p50_ms"].Value), "%", 2}
	rec.Metrics = layers
	return rec, nil
}

func pctChange(now, base float64) float64 { return 100 * ratio(now-base, base) }

// endToEnd turns one window's samples into the end-to-end metrics.
// writes holds the delta samples (the window itself, or the post-window
// burst of a read-only workload).
func (b *bench) endToEnd(ws, writes *windowStats, setups, recovers []float64) map[string]metric {
	n, nd := len(ws.QueryMS), len(writes.DeltaMS)
	return map[string]metric{
		"setup_s":      {median(setups), "s", len(setups)},
		"qps":          {float64(ws.Queries) / ws.Elapsed.Seconds(), "1/s", ws.Queries},
		"query_p50_ms": {quantile(ws.QueryMS, 0.5), "ms", n},
		"query_p95_ms": {quantile(ws.QueryMS, 0.95), "ms", n},
		"ttfr_p50_ms":  {quantile(ws.TTFRMS, 0.5), "ms", len(ws.TTFRMS)},
		"delta_p50_ms": {quantile(writes.DeltaMS, 0.5), "ms", nd},
		"delta_p80_ms": {quantile(writes.DeltaMS, 0.8), "ms", nd},
		"recover_s":    {median(recovers), "s", len(recovers)},
		"mem_peak_mb":  {peakRSSMB(), "MB", 1},
	}
}

// counters snapshots the program's own counters around the traced phase.
type counters struct {
	coord      cluster.Stats
	cache      cache.ClientStats
	wal, snaps uint64
}

func (b *bench) counters() counters {
	var c counters
	if b.d.coord != nil {
		c.coord = b.d.coord.Stats()
		if c.coord.Cache != nil {
			c.cache = *c.coord.Cache
		}
	}
	for _, n := range b.d.nodes {
		if n.store != nil {
			st := n.store.Stats()
			c.wal += st.WALAppends
			c.snaps += st.Snapshots
		}
	}
	return c
}

// quarantined lists the nodes the coordinator has drained, as
// "URL: reason". No workload injects a fault, so every node is honest
// and each entry is a program fault. The program documents a wrongly
// drained honest node as costing capacity, never correctness (its
// reads fail over, writes skip it), so the run reports it instead of
// aborting; the answer checks stay in force.
func (b *bench) quarantined() []string {
	if b.d.coord == nil {
		return nil
	}
	var out []string
	for _, n := range b.d.coord.Stats().Nodes {
		if n.State == cluster.NodeQuarantined {
			out = append(out, n.URL+": "+n.QuarantineReason)
		}
	}
	return out
}

// A run restarts the lost process until a second of restarts has been
// timed (at most recoverMaxReps times), so a restart that takes
// milliseconds still yields a steady median.
const recoverMaxReps = 25

// recover measures recover_s: the time from a serving process's loss
// until its replacement answers, on the topology's own restart path
// (the median of several restarts).
//   - single process: vcserve's restart, loading the owner's current
//     signed snapshot from disk, validating it and serving;
//   - memory-only cluster: a coordinator restart that adopts the
//     placement the nodes report (Coordinator.Recover);
//   - durable cluster: one node killed, reopened from its data dir
//     (store.OpenNode + Server.RecoverHosted) — with the durability
//     check that nothing was re-transferred and every recovered shard
//     matches both the digest the node served before it was killed and
//     every live replica that still takes writes.
//
// Each ends with the replacement answering a request.
func (b *bench) recover(dataRoot string) ([]float64, error) {
	var once func() (time.Duration, error)
	var err error
	switch {
	case !b.w.Cluster:
		once, err = b.recoverSingle(dataRoot)
	case b.w.Durable:
		once, err = b.recoverNode()
	default:
		once = b.recoverCoordinator
	}
	if err != nil {
		return nil, err
	}
	var out []float64
	var total time.Duration
	for i := 0; i < recoverMaxReps && total < time.Second; i++ {
		d, err := once()
		if err != nil {
			return nil, err
		}
		total += d
		out = append(out, d.Seconds())
	}
	return out, nil
}

func (b *bench) recoverSingle(dataRoot string) (func() (time.Duration, error), error) {
	set, err := partition.Split(b.d.master, b.d.p.Shards)
	if err != nil {
		return nil, err
	}
	blob, err := wire.EncodeSnapshot(&wire.Snapshot{Partition: set})
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dataRoot, "publication.snap")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return nil, err
	}
	return func() (time.Duration, error) {
		start := time.Now()
		raw, err := os.ReadFile(path)
		if err != nil {
			return 0, err
		}
		snap, err := wire.DecodeSnapshot(raw)
		if err != nil {
			return 0, err
		}
		if snap.Partition == nil {
			return 0, fmt.Errorf("snapshot holds no partitioned publication")
		}
		s := server.New(server.Config{Hasher: hashx.New(), Pub: b.d.key.Public(), Policy: accessctl.NewPolicy(role)})
		defer s.Close()
		if err := s.AddPartition(snap.Partition, true); err != nil {
			return 0, err
		}
		p, err := listen("restarted", s.Handler())
		if err != nil {
			return 0, err
		}
		defer p.kill()
		if err := b.firstAnswer(p.url); err != nil {
			return 0, err
		}
		return time.Since(start), nil
	}, nil
}

func (b *bench) recoverCoordinator() (time.Duration, error) {
	start := time.Now()
	c, err := cluster.New(b.d.ccfg)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	if _, err := c.Recover(); err != nil {
		return 0, err
	}
	p, err := listen("coord-restarted", c.Handler())
	if err != nil {
		return 0, err
	}
	defer p.kill()
	if err := b.firstAnswer(p.url); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// firstAnswer sends one verified read to url.
func (b *bench) firstAnswer(url string) error {
	res, err := b.readVerified(url, b.in.ranges[0], &http.Client{Transport: b.base}, nil)
	if err != nil {
		return err
	}
	return res.err
}

func (b *bench) recoverNode() (func() (time.Duration, error), error) {
	// The victim is the last node that still takes writes: a drained
	// node's copies are stale by design, so only a node in the write
	// set can be held to its live replicas. Its siblings are the other
	// replicas that take writes.
	drained := map[string]bool{}
	for _, n := range b.d.coord.Stats().Nodes {
		if n.State == cluster.NodeQuarantined {
			drained[n.URL] = true
		}
	}
	cur := b.d.nodes[len(b.d.nodes)-1]
	for i := len(b.d.nodes) - 1; i >= 0; i-- {
		if !drained[b.d.nodes[i].p.url] {
			cur = b.d.nodes[i]
			break
		}
	}
	var hosted []int
	siblings := map[int][]string{}
	for shard, set := range b.d.coord.ReplicaSets() {
		mine := false
		for _, u := range set {
			switch {
			case u == cur.p.url:
				mine = true
			case !drained[u]:
				siblings[shard] = append(siblings[shard], u)
			}
		}
		if mine {
			hosted = append(hosted, shard)
		}
	}
	if len(hosted) == 0 {
		return nil, fmt.Errorf("node %s hosts no shard", cur.name)
	}
	hc := &http.Client{Transport: b.base}
	rel := b.d.set.Spec.Relation
	// Before the first kill: the digest of every shard the victim holds.
	held := map[int]hashx.Digest{}
	for _, shard := range hosted {
		resp, err := (&wire.Client{BaseURL: cur.p.url, HTTP: hc}).ShardDigest(wire.ShardRef{Relation: rel, Shard: shard})
		if err != nil {
			return nil, err
		}
		held[shard] = resp.Digest
	}
	return func() (time.Duration, error) {
		// Each repetition kills the node the previous one reopened.
		victim := cur
		victim.p.kill()
		victim.srv.Close()
		if err := victim.store.Close(); err != nil {
			return 0, err
		}
		dir := victim.dir
		victim.store, victim.dir = nil, ""

		start := time.Now()
		n, err := b.d.startNode(victim.name, "", dir)
		if err != nil {
			return 0, err
		}
		b.d.nodes = append(b.d.nodes, n)
		cur = n
		rep, err := n.srv.RecoverHosted()
		if err != nil {
			return 0, err
		}
		if err := b.d.serveNode(n); err != nil {
			return 0, err
		}
		cl := &wire.Client{BaseURL: n.p.url, HTTP: hc}
		if _, err := cl.ShardDigest(wire.ShardRef{Relation: rel, Shard: hosted[0]}); err != nil {
			return 0, err
		}
		dur := time.Since(start)

		if len(rep.Refused) > 0 {
			return 0, fmt.Errorf("recovery refused slices: %v", rep.Refused)
		}
		if got := n.srv.Stats().Installs; got != 0 {
			return 0, fmt.Errorf("recovered node took %d installs, want 0", got)
		}
		for _, shard := range hosted {
			ref := wire.ShardRef{Relation: rel, Shard: shard}
			mine, err := cl.ShardDigest(ref)
			if err != nil {
				return 0, err
			}
			if !mine.Digest.Equal(held[shard]) {
				return 0, fmt.Errorf("%w: recovered shard %d digest differs from the one the node held before it was killed", errWrongAnswer, shard)
			}
			for _, sib := range siblings[shard] {
				live, err := (&wire.Client{BaseURL: sib, HTTP: hc}).ShardDigest(ref)
				if err != nil {
					return 0, err
				}
				if !mine.Digest.Equal(live.Digest) {
					return 0, fmt.Errorf("%w: recovered shard %d digest differs from its live replica", errWrongAnswer, shard)
				}
			}
		}
		return dur, nil
	}, nil
}

// storeBytes is the recovered-store footprint the space amplification
// metric compares with the encoded live slices.
func (b *bench) storeBytes() (disk, live float64, err error) {
	set, err := partition.Split(b.d.master, b.d.p.Shards)
	if err != nil {
		return 0, 0, err
	}
	sizes := make([]float64, len(set.Slices))
	for i, sl := range set.Slices {
		enc, err := wire.EncodeRelation(sl)
		if err != nil {
			return 0, 0, err
		}
		sizes[i] = float64(len(enc))
	}
	for shard, rs := range b.d.coord.ReplicaSets() {
		live += sizes[shard] * float64(len(rs))
	}
	for _, n := range b.d.nodes {
		if n.dir != "" {
			disk += float64(dirBytes(n.dir))
		}
	}
	return disk, live, nil
}
