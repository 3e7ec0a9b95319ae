package main

import (
	"bytes"
	"io"
	"runtime"
	"time"

	"vcqr/internal/accessctl"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/partition"
	"vcqr/internal/server"
	"vcqr/internal/wire"
)

// perLayer lists the per-layer metrics a traced run reports, with
// units. Every workload prints all of them; a layer the workload does
// not exercise reads 0 with 0 samples.
var perLayer = []struct{ Name, Unit string }{
	{"owner.sign_us_per_record", "us"},
	{"owner.delta_sign_us", "us"},
	{"server.add_partition_s", "s"},
	{"cluster.place_s", "s"},
	{"engine.assemble_us_per_chunk", "us"},
	{"engine.allocs_per_chunk", "count"},
	{"wire.encode_us_per_chunk", "us"},
	{"wire.decode_us_per_chunk", "us"},
	{"wire.allocs_per_chunk", "count"},
	{"wire.bytes_per_row", "B"},
	{"wire.client_read_wait_us", "us"},
	{"server.stream_us", "us"},
	{"server.write_wait_us", "us"},
	{"server.substream_us", "us"},
	{"cluster.stream_us", "us"},
	{"cluster.node_first_byte_us", "us"},
	{"cluster.self_us", "us"},
	{"cluster.substreams_per_query", "count"},
	{"cluster.hop_bytes_ratio", "ratio"},
	{"cluster.retries_per_kq", "count"},
	{"cluster.quarantines", "count"},
	{"delta.local_apply_us", "us"},
	{"delta.prepare_us", "us"},
	{"delta.mirror_us", "us"},
	{"delta.commit_us", "us"},
	{"delta.node_calls_per_delta", "count"},
	{"store.wal_appends_per_delta", "count"},
	{"store.snapshots_per_kdelta", "count"},
	{"store.space_amp", "ratio"},
	{"cache.hit_ratio", "ratio"},
	{"cache.fills_per_query", "count"},
	{"cache.invalidations_per_delta", "count"},
	{"cache.fallthroughs", "count"},
	{"cache.peer_us", "us"},
	{"verify.consume_us_per_row", "us"},
	{"verify.finish_us", "us"},
	{"verify.hash_ops_per_row", "count"},
	{"verify.rsa_ops_per_query", "count"},
	{"runtime.allocs_per_query", "count"},
	{"runtime.gc_cycles_per_s", "1/s"},
	{"gen.late_p99_ms", "ms"},
	{"gen.input_s", "s"},
	{"trace.qps_change_pct", "%"},
	{"trace.query_p50_change_pct", "%"},
}

// perLayer computes the traced run's per-layer metrics from its spans,
// the program's counters around the traced phase, the untraced window
// (allocation and generator figures are taken with tracing off) and the
// in-process engine/wire probes.
func (b *bench) perLayer(plain, traced, writes *windowStats, before, after counters,
	genDur time.Duration) (map[string]metric, error) {
	agg := b.tr.aggregate()
	out := map[string]metric{}
	unit := map[string]string{}
	for _, m := range perLayer {
		unit[m.Name] = m.Unit
		out[m.Name] = metric{0, m.Unit, 0}
	}
	set := func(name string, v float64, n int) {
		if n > 0 {
			out[name] = metric{v, unit[name], n}
		}
	}
	lt := func(name string) *layerTimes {
		if l := agg[name]; l != nil {
			return l
		}
		return &layerTimes{}
	}
	meanUS := func(name string) {
		l := lt(name)
		set(name+"_us", ratio(us(l.Total), float64(l.Count)), l.Count)
	}

	d := b.d
	n := float64(d.p.Records)
	set("owner.sign_us_per_record", us(d.build)/n, d.p.Records)
	var sign time.Duration
	for _, pd := range b.deltas {
		sign += pd.Sign
	}
	set("owner.delta_sign_us", ratio(us(sign), float64(len(b.deltas))), len(b.deltas))
	if d.single != nil {
		set("server.add_partition_s", d.place.Seconds(), 1)
	} else {
		set("cluster.place_s", d.place.Seconds(), 1)
	}

	if err := b.probe(out, set); err != nil {
		return nil, err
	}

	q := lt("client.query")
	queries := float64(q.Count)
	set("wire.bytes_per_row", ratio(float64(traced.Bytes), float64(traced.Rows)), traced.Rows)
	read := lt("wire.client_read")
	set("wire.client_read_wait_us", ratio(us(read.Total), queries), q.Count)

	meanUS("server.stream")
	ss := lt("server.stream")
	set("server.write_wait_us", ratio(us(lt("server.write").Total), float64(ss.Count)), ss.Count)
	meanUS("server.substream")

	cs := lt("cluster.stream")
	meanUS("cluster.stream")
	nw := lt("cluster.node_wait")
	set("cluster.node_first_byte_us", ratio(us(nw.Total), float64(nw.Count)), nw.Count)
	set("cluster.self_us", ratio(us(cs.Self), float64(cs.Count)), cs.Count)
	sub := lt("server.substream")
	set("cluster.substreams_per_query", ratio(float64(sub.Count), float64(cs.Count)), cs.Count)
	set("cluster.hop_bytes_ratio", ratio(float64(lt("cluster.node_read").Bytes), float64(lt("cluster.write").Bytes)), cs.Count)
	if d.coord != nil {
		retries := (after.coord.HandoffRetries - before.coord.HandoffRetries) +
			(after.coord.RoutingRetries - before.coord.RoutingRetries) +
			(after.coord.Failovers - before.coord.Failovers)
		streams := after.coord.Streams - before.coord.Streams
		set("cluster.retries_per_kq", 1000*ratio(float64(retries), float64(streams)), int(streams))
		// Nodes drained so far in the run; no fault is injected, so any
		// is a program fault (see bench.quarantined).
		out["cluster.quarantines"] = metric{float64(after.coord.Quarantines), "count", len(d.ccfg.Nodes)}
	}

	deltas := lt("client.delta").Count
	meanUS("delta.local_apply")
	meanUS("delta.prepare")
	meanUS("delta.mirror")
	meanUS("delta.commit")
	calls := lt("delta.prepare").Count + lt("delta.mirror").Count + lt("delta.commit").Count
	if d.coord != nil {
		set("delta.node_calls_per_delta", ratio(float64(calls), float64(deltas)), deltas)
	}
	if d.w.Durable {
		set("store.wal_appends_per_delta", ratio(float64(after.wal-before.wal), float64(deltas)), deltas)
		set("store.snapshots_per_kdelta", 1000*ratio(float64(after.snaps-before.snaps), float64(deltas)), deltas)
		disk, live, err := b.storeBytes()
		if err != nil {
			return nil, err
		}
		set("store.space_amp", ratio(disk, live), len(d.nodes))
	}
	if d.w.CachePeer {
		hits := after.cache.Hits - before.cache.Hits
		misses := after.cache.Misses - before.cache.Misses
		set("cache.hit_ratio", ratio(float64(hits), float64(hits+misses)), int(hits+misses))
		set("cache.fills_per_query", ratio(float64(after.cache.Fills-before.cache.Fills), queries), q.Count)
		set("cache.invalidations_per_delta", ratio(float64(after.cache.Invalidations-before.cache.Invalidations), float64(deltas)), deltas)
		out["cache.fallthroughs"] = metric{float64(after.cache.Fallthroughs - before.cache.Fallthroughs), "count", q.Count}
		meanUS("cache.peer")
	}

	if d.w.Verified {
		cons := lt("verify.consume")
		set("verify.consume_us_per_row", ratio(us(cons.Total), float64(traced.Rows)), traced.Rows)
		meanUS("verify.finish")
		set("verify.hash_ops_per_row", ratio(float64(traced.HashOps), float64(traced.Rows)), traced.Rows)
		set("verify.rsa_ops_per_query", ratio(float64(traced.VerifyOps), float64(traced.Queries)), traced.Queries)
	}

	set("runtime.allocs_per_query", ratio(float64(plain.Mallocs), float64(plain.Queries)), plain.Queries)
	set("runtime.gc_cycles_per_s", float64(plain.GCs)/plain.Elapsed.Seconds(), plain.Queries)
	late := plain.LateMS
	if len(late) == 0 {
		late = writes.LateMS
	}
	set("gen.late_p99_ms", quantile(late, 0.99), len(late))
	set("gen.input_s", genDur.Seconds(), 1)
	return out, nil
}

// probeQueries is how many of reader 0's queries the in-process probes
// replay, and probePasses how often.
const probeQueries, probePasses = 32, 3

// probe times the engine (Next on Server.QueryStreamOpts) and the chunk
// frame codec (WriteChunkFrame/ReadChunkFrame on the same chunks)
// in-process, over the workload's own queries. Cluster workloads probe a
// single-process server built from the owner's current publication.
func (b *bench) probe(out map[string]metric, set func(string, float64, int)) error {
	srv := b.d.single
	if srv == nil {
		ps, err := partition.Split(b.d.master, b.d.p.Shards)
		if err != nil {
			return err
		}
		srv = server.New(server.Config{Hasher: hashx.New(), Pub: b.d.key.Public(), Policy: accessctl.NewPolicy(role)})
		defer srv.Close()
		if err := srv.AddPartition(ps, false); err != nil {
			return err
		}
	}
	var qs []engine.Query
	for i := 0; i < probeQueries; i++ {
		draws := b.in.draws[0]
		qs = append(qs, b.in.ranges[draws[i%len(draws)]].query(b.rel))
	}
	var chunks []*engine.Chunk
	next := newIntervals()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for pass := 0; pass < probePasses; pass++ {
		for _, q := range qs {
			st, err := srv.QueryStreamOpts(role.Name, q, engine.StreamOpts{ChunkRows: b.d.p.ChunkRows})
			if err != nil {
				return err
			}
			for {
				start := time.Now()
				c, err := st.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					return err
				}
				next.add(start)
				if pass == 0 {
					chunks = append(chunks, c)
				}
			}
			if c, ok := st.(io.Closer); ok {
				c.Close()
			}
		}
	}
	runtime.ReadMemStats(&m1)
	n := len(next.durs)
	set("engine.assemble_us_per_chunk", us(next.total())/float64(n), n)
	set("engine.allocs_per_chunk", float64(m1.Mallocs-m0.Mallocs)/float64(n), n)
	next.emit(b.tr, "engine.next")

	var buf bytes.Buffer
	enc, dec := newIntervals(), newIntervals()
	runtime.ReadMemStats(&m0)
	for pass := 0; pass < probePasses; pass++ {
		buf.Reset()
		for _, c := range chunks {
			start := time.Now()
			if err := wire.WriteChunkFrame(&buf, c); err != nil {
				return err
			}
			enc.add(start)
		}
		r := bytes.NewReader(buf.Bytes())
		for range chunks {
			start := time.Now()
			if _, err := wire.ReadChunkFrame(r); err != nil {
				return err
			}
			dec.add(start)
		}
	}
	runtime.ReadMemStats(&m1)
	n = len(enc.durs)
	set("wire.encode_us_per_chunk", us(enc.total())/float64(n), n)
	set("wire.decode_us_per_chunk", us(dec.total())/float64(n), n)
	set("wire.allocs_per_chunk", float64(m1.Mallocs-m0.Mallocs)/float64(n), n)
	enc.emit(b.tr, "wire.encode")
	dec.emit(b.tr, "wire.decode")
	return nil
}

// intervals collects probe timings in preallocated slices; they become
// spans only after the allocation counts are read, so tracing adds no
// allocations to the probed loops.
type intervals struct {
	starts []time.Time
	durs   []time.Duration
}

func newIntervals() *intervals {
	return &intervals{starts: make([]time.Time, 0, 1<<14), durs: make([]time.Duration, 0, 1<<14)}
}

func (iv *intervals) add(start time.Time) {
	iv.starts = append(iv.starts, start)
	iv.durs = append(iv.durs, time.Since(start))
}

func (iv *intervals) total() time.Duration {
	var t time.Duration
	for _, d := range iv.durs {
		t += d
	}
	return t
}

func (iv *intervals) emit(t *tracer, name string) {
	for i, s := range iv.starts {
		t.add("probe", 0, name, "probe", s, s.Add(iv.durs[i]), 0)
	}
}
