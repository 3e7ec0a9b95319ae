package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"time"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/costmodel"
	"vcqr/internal/delta"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/partition"
	"vcqr/internal/planner"
	"vcqr/internal/relation"
	"vcqr/internal/server"
	"vcqr/internal/verify"
)

// E-shard: the partitioned-publisher sweep. One relation is signed once,
// split K ∈ {1,2,4,8} ways (splitting is free — the global chain is
// untouched), and each configuration serves the *same* workload:
//
//   - a serving loop interleaving live owner deltas with a hot set of
//     point queries (the headline: query throughput under updates, where
//     per-shard epochs keep K-1 shards' VO caches hot across every
//     cutover and the delta clone shrinks from n to n/K records);
//   - one cross-shard range stream, drained through the shard-aware
//     incremental verifier (correctness: the fan-out verifies at every K);
//   - a pure delta stream (update throughput: clone-bound, ~linear in K).
//
// Every configuration applies the identical pre-generated delta
// sequence, so the K=1 row is a true baseline on the same data and the
// reported ratios are like-for-like.

// ShardRow is one K configuration's measurements.
type ShardRow struct {
	K int
	// Serving loop: queries answered per second while the delta stream
	// lands, and the speedup over K=1.
	QueryPerSec float64
	QuerySpeed  float64
	// Pure delta throughput (the inverse of the median delta time) and
	// speedup over K=1.
	DeltaPerSec float64
	DeltaSpeed  float64
	// Cross-shard stream: covering shards, verified rows, total latency.
	StreamShards int
	StreamRows   int
	StreamTotal  time.Duration
	// Plan is the planner's EXPLAIN for the cross-shard stream query.
	Plan string
	// Model is the costmodel's predicted serving-loop speedup at this K.
	Model float64
}

// shardWorkload is the fixed workload every K configuration replays.
type shardWorkload struct {
	master  *core.SignedRelation
	deltas  []delta.Delta
	queries []engine.Query
	rounds  int // serving-loop rounds (one delta + all queries each)
	tail    int // extra deltas for the pure-delta phase
}

// mintShardWorkload pre-generates the delta sequence and the hot query
// set. Deltas are attribute updates to randomly chosen records; each is
// diffed against the immediately preceding state, so replaying the
// sequence in order is valid from the initial snapshot on any server.
func (e *Env) mintShardWorkload(h *hashx.Hasher, n int) (*shardWorkload, error) {
	sr, _, err := e.buildUniform(h, n, 32, 2, 4242)
	if err != nil {
		return nil, err
	}
	// The pure-delta phase reports the median of per-delta times, over
	// enough deltas that one slow delta (a GC, a descheduled thread)
	// cannot move the K-speedup.
	w := &shardWorkload{master: sr, rounds: 24, tail: 32}
	if e.Short {
		w.rounds = 8
	}

	// Hot set: evenly spaced point queries (single-shard at every K).
	const hot = 64
	for i := 0; i < hot; i++ {
		rec := sr.Recs[1+(i*(n-1))/hot]
		w.queries = append(w.queries, engine.Query{
			Relation: sr.Schema.Name, KeyLo: rec.Key(), KeyHi: rec.Key(),
		})
	}

	// Delta sequence: one-record updates on an owner-side scratch copy.
	scratch := sr.Clone()
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < w.rounds+w.tail; i++ {
		idx := 1 + rng.Intn(scratch.Len())
		rec := scratch.Recs[idx]
		attrs := append([]relation.Value(nil), rec.Tuple.Attrs...)
		attrs[0] = relation.BytesVal([]byte(fmt.Sprintf("update-%d", i)))
		before := scratch.Clone()
		if _, err := scratch.UpdateAttrs(h, e.Key, rec.Key(), rec.Tuple.RowID, attrs); err != nil {
			return nil, err
		}
		w.deltas = append(w.deltas, delta.Diff(before, scratch))
	}
	return w, nil
}

// Sharding runs the K sweep.
func (e *Env) Sharding() ([]ShardRow, error) {
	h := hashx.New()
	n := e.scale(16384)
	w, err := e.mintShardWorkload(h, n)
	if err != nil {
		return nil, err
	}
	role := accessctl.Role{Name: "all"}
	v := verify.New(h, e.Key.Public(), w.master.Params, w.master.Schema)

	mp := costmodel.PaperDefaults()
	// Measured serving constants for the model line (coarse: the model
	// predicts shape, the sweep measures reality).
	const cscan, cclone = 5 * time.Nanosecond, 600 * time.Nanosecond

	var rows []ShardRow
	var srvs []*server.Server
	for _, k := range []int{1, 2, 4, 8} {
		set, err := partition.Split(w.master, k)
		if err != nil {
			return nil, err
		}
		srv := server.New(server.Config{Hasher: h, Pub: e.Key.Public(), Policy: accessctl.NewPolicy(role)})
		defer srv.Close()
		if err := srv.AddPartition(set, false); err != nil {
			return nil, err
		}
		srvs = append(srvs, srv)

		row := ShardRow{K: k}

		// Phase A: serving loop — one delta, then the hot set, per round.
		start := time.Now()
		for r := 0; r < w.rounds; r++ {
			if _, err := srv.ApplyDelta(w.deltas[r]); err != nil {
				return nil, fmt.Errorf("sharding k=%d delta %d: %w", k, r, err)
			}
			for _, q := range w.queries {
				if _, err := srv.Query("all", q); err != nil {
					return nil, fmt.Errorf("sharding k=%d query: %w", k, err)
				}
			}
		}
		row.QueryPerSec = float64(w.rounds*len(w.queries)) / time.Since(start).Seconds()

		// Phase B: one cross-shard range stream, fully verified. The
		// planner's EXPLAIN records the exact per-shard covers.
		q := engine.Query{Relation: w.master.Schema.Name}
		plan, err := planner.PlanShardQuery(set.Spec, set.Slices, q)
		if err != nil {
			return nil, err
		}
		row.Plan = plan.Explain
		sv, err := v.NewShardStreamVerifier(set.Spec, q, role)
		if err != nil {
			return nil, err
		}
		start = time.Now()
		st, err := srv.QueryStream("all", q, 0)
		if err != nil {
			return nil, err
		}
		verifiedRows := 0
		for {
			c, err := st.Next()
			if err != nil {
				break
			}
			released, err := sv.Consume(c)
			if err != nil {
				return nil, fmt.Errorf("sharding k=%d stream rejected: %w", k, err)
			}
			verifiedRows += len(released)
		}
		if err := sv.Finish(); err != nil {
			return nil, fmt.Errorf("sharding k=%d stream: %w", k, err)
		}
		row.StreamTotal = time.Since(start)
		row.StreamRows = verifiedRows
		row.StreamShards = len(set.Spec.Decompose(1, w.master.Params.U-1))
		if verifiedRows != n {
			return nil, fmt.Errorf("sharding k=%d: stream verified %d rows, want %d", k, verifiedRows, n)
		}

		// Model prediction for the serving loop at this K: one delta plus
		// the hot set, with (K-1)/K of the hot set served from cache.
		modelRound := func(k int) time.Duration {
			cold := float64(len(w.queries)) / float64(k)
			return mp.FanoutDeltaCost(n, k, cclone) +
				time.Duration(cold*float64(mp.FanoutQueryCost(n, k, 1, 2, cscan)))
		}
		row.Model = costmodel.FanoutSpeedup(modelRound(1), modelRound(k))

		rows = append(rows, row)
	}

	// Phase C: pure delta throughput, from the median per-delta time.
	// Every K applies the same tail deltas, interleaved delta by delta,
	// so drift on a shared host (and the garbage one server leaves for
	// the collector) lands on every K alike rather than on one phase.
	times := make([][]time.Duration, len(srvs))
	for i := w.rounds; i < w.rounds+w.tail; i++ {
		for j, srv := range srvs {
			start := time.Now()
			if _, err := srv.ApplyDelta(w.deltas[i]); err != nil {
				return nil, fmt.Errorf("sharding k=%d tail delta: %w", rows[j].K, err)
			}
			times[j] = append(times[j], time.Since(start))
		}
	}
	for j := range rows {
		slices.Sort(times[j])
		rows[j].DeltaPerSec = 1 / times[j][len(times[j])/2].Seconds()
	}
	base := rows[0]
	for i := range rows {
		rows[i].QuerySpeed = rows[i].QueryPerSec / base.QueryPerSec
		rows[i].DeltaSpeed = rows[i].DeltaPerSec / base.DeltaPerSec
	}
	return rows, nil
}

// PrintSharding writes the shard sweep.
func PrintSharding(w io.Writer, rows []ShardRow) {
	out := make([]string, 0, len(rows)+2)
	for _, r := range rows {
		out = append(out, fmt.Sprintf(
			"K=%-2d  query %9.0f q/s (%4.2fx, model %4.2fx)   delta %7.1f/s (%4.2fx)   stream %d shards %6d rows in %v",
			r.K, r.QueryPerSec, r.QuerySpeed, r.Model, r.DeltaPerSec, r.DeltaSpeed, r.StreamShards, r.StreamRows, r.StreamTotal))
	}
	for _, r := range rows {
		if r.K == 4 {
			out = append(out, "plan (K=4): "+r.Plan)
			out = append(out, fmt.Sprintf("query throughput at K=4: %.2fx vs K=1 (live-delta serving loop, same data)", r.QuerySpeed))
			out = append(out, fmt.Sprintf("delta throughput at K=4: %.2fx vs K=1", r.DeltaSpeed))
		}
	}
	printTable(w, "E-shard: K-way partitioned serving (query+delta throughput, verified cross-shard streams)", out)
}
