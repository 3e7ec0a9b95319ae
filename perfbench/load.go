package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/big"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/sig"
	"vcqr/internal/verify"
	"vcqr/internal/wire"
)

// bench is one run after set-up: the deployment under test plus the
// client side (its own hasher and key copy, so hash and RSA operation
// counts are exactly the client's).
type bench struct {
	w  workload
	in *inputs
	d  *deployment
	tr *tracer

	rel       string
	clientH   *hashx.Hasher
	clientPub *sig.PublicKey
	v         *verify.Verifier
	base      *http.Transport

	// refs are the verified reference streams of the byte-compared
	// workload, one per pool entry; refFirst[i] is the offset just past
	// the first frame carrying rows.
	refs     [][]byte
	refFirst []int

	deltas    []plannedDelta
	nextDelta int
	// acked maps a record key to the latest acknowledged delta that
	// wrote it; replaced wholesale on every acknowledgement.
	acked atomic.Pointer[map[uint64]uint64]
	// cursor is each reader's position in its draw sequence.
	cursor []int
	ids    atomic.Uint64
	// deltaErr keeps the first refused delta's error for the log.
	deltaErr atomic.Value
}

func newBench(w workload, in *inputs, d *deployment, tr *tracer) *bench {
	pub := d.key.Public()
	b := &bench{w: w, in: in, d: d, tr: tr, rel: d.sr.Schema.Name,
		clientH:   hashx.New(),
		clientPub: &sig.PublicKey{N: new(big.Int).Set(pub.N), E: pub.E},
		base:      http.DefaultTransport.(*http.Transport).Clone(),
		cursor:    make([]int, w.Readers),
	}
	b.v = verify.New(b.clientH, b.clientPub, d.sr.Params, d.sr.Schema)
	empty := map[uint64]uint64{}
	b.acked.Store(&empty)
	return b
}

// client is one reader's or the writer's HTTP client; under a tracer
// its transport stamps requests with the open span.
func (b *bench) client() (*http.Client, *clientTransport) {
	if b.tr == nil {
		return &http.Client{Transport: b.base}, nil
	}
	ct := &clientTransport{t: b.tr, inner: b.base}
	return &http.Client{Transport: ct}, ct
}

// readResult is one read's outcome.
type readResult struct {
	lat, ttfr time.Duration
	rows      int
	bytes     int64
	err       error // refused: transport failure or verifier rejection
}

// read issues reader r's next query and checks the answer.
func (b *bench) read(r int, hc *http.Client, ct *clientTransport) (readResult, error) {
	idx := b.in.draws[r][b.cursor[r]%len(b.in.draws[r])]
	b.cursor[r]++
	return b.readRange(idx, hc, ct)
}

// readRange issues one query for pool entry idx. A refusal comes back in
// readResult.err; an accepted wrong answer is returned as an error
// wrapping errWrongAnswer.
func (b *bench) readRange(idx int, hc *http.Client, ct *clientTransport) (readResult, error) {
	rg := b.in.ranges[idx]
	var sp *span
	if b.tr.active() {
		sp = b.tr.start(fmt.Sprintf("q%d", b.ids.Add(1)), 0, "client.query", "client")
		ct.cur = sp
		b.tr.curQuery.Store(sp.Trace)
		defer func() { b.tr.end(sp); ct.cur = nil }()
	}
	if b.w.Verified {
		return b.readVerified(b.d.front, rg, hc, sp)
	}
	return b.readCompared(idx, rg, hc, sp)
}

func (b *bench) readVerified(url string, rg keyRange, hc *http.Client, sp *span) (readResult, error) {
	q := rg.query(b.rel)
	acked := *b.acked.Load() // every write acknowledged before this send
	sv, err := b.v.NewShardStreamVerifier(b.d.set.Spec, q, role)
	if err != nil {
		return readResult{}, err
	}
	var cv verify.ChunkVerifier = sv
	cl := &wire.Client{BaseURL: url, HTTP: hc}
	if sp != nil {
		cv = &tracedVerifier{inner: sv, t: b.tr, sp: sp}
		cl.Trace = sp.Trace
	}
	var res readResult
	var first time.Time
	var stale error
	start := time.Now()
	st, err := cl.QueryStreamWith(cv, role.Name, q, b.d.p.ChunkRows, func(row engine.Row) error {
		if res.rows == 0 {
			first = time.Now()
		}
		res.rows++
		if want, ok := acked[row.Key]; ok && stale == nil {
			if got := payloadSeq(row); got < want {
				stale = fmt.Errorf("%w: stale read: key %d shows write %d after write %d was acknowledged",
					errWrongAnswer, row.Key, got, want)
			}
		}
		return nil
	})
	res.lat = time.Since(start)
	res.ttfr = first.Sub(start)
	res.bytes = st.Bytes
	if err != nil {
		res.err = err
		return res, nil
	}
	if stale != nil {
		return res, stale
	}
	if res.rows != rg.Rows {
		return res, fmt.Errorf("%w: range [%d,%d] returned %d rows, want %d", errWrongAnswer, rg.Lo, rg.Hi, res.rows, rg.Rows)
	}
	return res, nil
}

func payloadSeq(row engine.Row) uint64 {
	for _, a := range row.Values {
		if a.Col == 0 {
			return seqOf(a.Val)
		}
	}
	return 0
}

// readCompared streams one query and compares every byte, as it
// arrives, with the pool entry's verified reference.
func (b *bench) readCompared(idx int, rg keyRange, hc *http.Client, sp *span) (readResult, error) {
	req := wire.StreamRequest{Role: role.Name, Query: rg.query(b.rel), ChunkRows: b.d.p.ChunkRows}
	if sp != nil {
		req.Trace = sp.Trace
	}
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(req); err != nil {
		return readResult{}, err
	}
	var res readResult
	start := time.Now()
	resp, err := hc.Post(b.d.front+"/stream", "application/octet-stream", &body)
	if err != nil {
		res.err = err
		return res, nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		res.err = fmt.Errorf("stream returned %s", resp.Status)
		return res, nil
	}
	ref := b.refs[idx]
	var first time.Time
	buf := make([]byte, 32<<10)
	off := 0
	for {
		n, rerr := resp.Body.Read(buf)
		if err := matchRef(ref, off, buf[:n]); err != nil {
			return res, fmt.Errorf("range %d: %w", idx, err)
		}
		off += n
		if first.IsZero() && off >= b.refFirst[idx] {
			first = time.Now()
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			res.err = rerr
			return res, nil
		}
	}
	res.lat = time.Since(start)
	res.ttfr = first.Sub(start)
	res.bytes = int64(off)
	if off != len(ref) {
		res.err = fmt.Errorf("stream truncated at %d of %d bytes", off, len(ref))
		return res, nil
	}
	res.rows = rg.Rows
	return res, nil
}

// matchRef checks that got continues ref at offset off.
func matchRef(ref []byte, off int, got []byte) error {
	if off+len(got) > len(ref) {
		return fmt.Errorf("%w: stream longer than its verified reference (%d > %d bytes)",
			errWrongAnswer, off+len(got), len(ref))
	}
	if !bytes.Equal(ref[off:off+len(got)], got) {
		return fmt.Errorf("%w: stream differs from its verified reference near byte %d", errWrongAnswer, off)
	}
	return nil
}

// captureRefs fetches every pool entry's stream once, verifies exactly
// those bytes with the unmodified verifier, and keeps them.
func (b *bench) captureRefs() error {
	hc := &http.Client{Transport: b.base}
	b.refs = make([][]byte, len(b.in.ranges))
	b.refFirst = make([]int, len(b.in.ranges))
	for i, rg := range b.in.ranges {
		q := rg.query(b.rel)
		var body bytes.Buffer
		if err := gob.NewEncoder(&body).Encode(wire.StreamRequest{Role: role.Name, Query: q, ChunkRows: b.d.p.ChunkRows}); err != nil {
			return err
		}
		resp, err := hc.Post(b.d.front+"/stream", "application/octet-stream", &body)
		if err != nil {
			return err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("reference %d: %s", i, resp.Status)
		}
		first, rows, err := b.verifyRaw(q, raw)
		if err != nil {
			return fmt.Errorf("reference %d rejected: %w", i, err)
		}
		if rows != rg.Rows {
			return fmt.Errorf("%w: reference %d has %d rows, want %d", errWrongAnswer, i, rows, rg.Rows)
		}
		b.refs[i], b.refFirst[i] = raw, first
	}
	return nil
}

// verifyRaw runs the unmodified verifier over a captured stream and
// returns the offset just past the first frame carrying rows.
func (b *bench) verifyRaw(q engine.Query, raw []byte) (first, rows int, err error) {
	sv, err := b.v.NewShardStreamVerifier(b.d.set.Spec, q, role)
	if err != nil {
		return 0, 0, err
	}
	r := bytes.NewReader(raw)
	for {
		c, err := wire.ReadChunkFrame(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, 0, err
		}
		got, err := sv.Consume(c)
		if err != nil {
			return 0, 0, err
		}
		rows += len(got)
		if first == 0 && len(got) > 0 {
			first = len(raw) - r.Len()
		}
	}
	return first, rows, sv.Finish()
}

// sendDelta sends the next planned delta and, once acknowledged,
// publishes its write for the freshness check.
func (b *bench) sendDelta(hc *http.Client, ct *clientTransport) (bool, error) {
	if b.nextDelta >= len(b.deltas) {
		return false, fmt.Errorf("ran out of pre-signed deltas")
	}
	pd := b.deltas[b.nextDelta]
	b.nextDelta++
	if b.tr.active() {
		sp := b.tr.start(fmt.Sprintf("d%d", pd.Seq), 0, "client.delta", "client")
		ct.cur = sp
		b.tr.curDelta.Store(sp.Trace)
		defer func() { b.tr.end(sp); ct.cur = nil }()
	}
	cl := &wire.Client{BaseURL: b.d.front, HTTP: hc}
	if _, err := cl.SendDelta(pd.D); err != nil {
		b.deltaErr.CompareAndSwap(nil, err)
		return false, nil
	}
	old := *b.acked.Load()
	next := make(map[uint64]uint64, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[pd.Key] = pd.Seq
	b.acked.Store(&next)
	return true, nil
}

// windowStats is what one timed window measured.
type windowStats struct {
	Elapsed                     time.Duration
	Queries, Rows               int // completed and checked
	Bytes                       int64
	QueryMS, TTFRMS             []float64
	ReadAttempted, ReadFailed   int
	DeltaMS, LateMS             []float64
	DeltaAttempted, DeltaFailed int
	Mallocs, GCs                uint64
	HashOps, VerifyOps          uint64
	// PerSecond counts the reads completed in each second of the window.
	PerSecond []int
}

// window runs the closed-loop readers and the open-loop writer for T.
func (b *bench) window(T time.Duration) (*windowStats, error) {
	ws := &windowStats{}
	// Start every window from a collected heap, whatever set-up and
	// earlier phases left behind.
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	h0, v0 := b.clientH.Ops(), b.clientPub.VerifyOps()
	var stop atomic.Bool
	var wrong atomic.Value
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(T)
	for r := 0; r < b.w.Readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			hc, ct := b.client()
			var qms, tms []float64
			var done []time.Duration
			attempted, failed, rows := 0, 0, 0
			var nbytes int64
			for !stop.Load() && time.Now().Before(deadline) {
				attempted++
				res, err := b.read(r, hc, ct)
				if err != nil {
					wrong.CompareAndSwap(nil, err)
					stop.Store(true)
					break
				}
				if res.err != nil {
					failed++
					qms = append(qms, math.Inf(1))
					tms = append(tms, math.Inf(1))
					continue
				}
				qms = append(qms, ms(res.lat))
				tms = append(tms, ms(res.ttfr))
				done = append(done, time.Since(start))
				rows += res.rows
				nbytes += res.bytes
			}
			mu.Lock()
			ws.QueryMS = append(ws.QueryMS, qms...)
			ws.TTFRMS = append(ws.TTFRMS, tms...)
			ws.ReadAttempted += attempted
			ws.ReadFailed += failed
			ws.Queries += attempted - failed
			ws.Rows += rows
			ws.Bytes += nbytes
			for _, d := range done {
				sec := int(d / time.Second)
				for len(ws.PerSecond) <= sec {
					ws.PerSecond = append(ws.PerSecond, 0)
				}
				ws.PerSecond[sec]++
			}
			mu.Unlock()
		}(r)
	}
	if b.w.WriteRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ds, err := b.writeLoop(start, deadline, 0, b.w.WriteRate, &stop)
			mu.Lock()
			ws.merge(ds)
			mu.Unlock()
			if err != nil {
				wrong.CompareAndSwap(nil, err)
				stop.Store(true)
			}
		}()
	}
	wg.Wait()
	ws.Elapsed = time.Since(start)
	if err, _ := wrong.Load().(error); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	ws.Mallocs = ms1.Mallocs - ms0.Mallocs
	ws.GCs = uint64(ms1.NumGC - ms0.NumGC)
	ws.HashOps = b.clientH.Ops() - h0
	ws.VerifyOps = b.clientPub.VerifyOps() - v0
	return ws, nil
}

func (ws *windowStats) merge(o *windowStats) {
	if o == nil {
		return
	}
	ws.DeltaMS = append(ws.DeltaMS, o.DeltaMS...)
	ws.LateMS = append(ws.LateMS, o.LateMS...)
	ws.DeltaAttempted += o.DeltaAttempted
	ws.DeltaFailed += o.DeltaFailed
}

// writeLoop is the open-loop writer: delta i is due at start + i/rate
// and is timed from when it was due, so a stall charges every delta it
// delays. Deltas are sent in order by one goroutine (each is signed on
// top of the previous one). It stops at deadline (when non-zero) or
// after count deltas.
func (b *bench) writeLoop(start, deadline time.Time, count int, rate float64, stop *atomic.Bool) (*windowStats, error) {
	ds := &windowStats{}
	hc, ct := b.client()
	interval := time.Duration(float64(time.Second) / rate)
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if (!deadline.IsZero() && !due.Before(deadline)) || (count > 0 && i >= count) || (stop != nil && stop.Load()) {
			return ds, nil
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		ds.LateMS = append(ds.LateMS, ms(time.Since(due)))
		ds.DeltaAttempted++
		ok, err := b.sendDelta(hc, ct)
		if err != nil {
			return ds, err
		}
		if !ok {
			ds.DeltaFailed++
			ds.DeltaMS = append(ds.DeltaMS, math.Inf(1))
			continue
		}
		ds.DeltaMS = append(ds.DeltaMS, ms(time.Since(due)))
	}
}

// warmUp reads every pool entry twice (the cache admits a key on its
// second sighting) so the timed window starts from a filled cache. Its
// reads are not counted.
func (b *bench) warmUp() error {
	hc, ct := b.client()
	n := len(b.in.ranges)
	if b.w.Pool == 0 {
		n = 16
	}
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			res, err := b.readRange(i, hc, ct)
			if err != nil {
				return err
			}
			if res.err != nil {
				return fmt.Errorf("warm-up read refused: %w", res.err)
			}
		}
	}
	time.Sleep(100 * time.Millisecond) // asynchronous cache fills land
	return nil
}
