package main

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vcqr/internal/engine"
	"vcqr/internal/verify"
	"vcqr/internal/wire"
)

// Spans are recorded only from the benchmark's own code, around the
// calls into each layer: the client transport and verifier wrapper, the
// coordinator's handler and node transport, each node's and the cache
// peer's handlers, and the in-process engine/wire probes. Everything
// runs in one process, so a span's parent is passed in HTTP headers the
// wrappers add (the served bytes are untouched) and looked up directly.
const (
	hdrTrace = "X-Perfbench-Trace"
	hdrSpan  = "X-Perfbench-Span"
)

// span is one recorded interval. Proc names the serving process the
// span ran in; a layer's self time subtracts only children of the same
// process (a node's work overlaps the coordinator's waiting on it).
type span struct {
	Trace  string `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Proc   string `json:"proc"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer, or one
// that is off, records nothing and its wrappers pass straight through.
type tracer struct {
	on    atomic.Bool
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []*span
	// byID resolves a parent span ID to its trace and process.
	byID map[uint64]*span
	// roots maps a trace ID to the span its server-side children hang
	// under in a given process ("proc/trace" keys).
	roots map[string]uint64
	// curDelta and curQuery attribute node delta calls and cache-peer
	// calls, which carry no trace ID on the wire: deltas are serialized
	// by the single writer, and the cache workload has one reader.
	curDelta, curQuery atomic.Value
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), byID: map[uint64]*span{}, roots: map[string]uint64{}}
}

func (t *tracer) active() bool { return t != nil && t.on.Load() }

// start opens a span; finish it with end.
func (t *tracer) start(trace string, parent uint64, name, proc string) *span {
	s := &span{Trace: trace, ID: t.ids.Add(1), Parent: parent, Name: name, Proc: proc,
		Start: int64(time.Since(t.t0))}
	t.mu.Lock()
	t.byID[s.ID] = s
	t.mu.Unlock()
	return s
}

func (t *tracer) end(s *span) {
	s.End = int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// interval records an interval that ends now.
func (t *tracer) interval(trace string, parent uint64, name, proc string, start time.Time, bytes int64) {
	t.add(trace, parent, name, proc, start, time.Now(), bytes)
}

// add records a finished interval.
func (t *tracer) add(trace string, parent uint64, name, proc string, start, end time.Time, bytes int64) {
	s := &span{Trace: trace, ID: t.ids.Add(1), Parent: parent, Name: name, Proc: proc,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Bytes: bytes}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) setRoot(proc, trace string, id uint64) {
	t.mu.Lock()
	t.roots[proc+"/"+trace] = id
	t.mu.Unlock()
}

func (t *tracer) root(proc, trace string) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.roots[proc+"/"+trace]
}

func (t *tracer) traceOf(id uint64) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.byID[id]; s != nil {
		return s.Trace
	}
	return ""
}

func loadString(v *atomic.Value) string {
	s, _ := v.Load().(string)
	return s
}

// handler wraps a server's handler: requests to the named paths get a
// span (name from paths) in process proc, which becomes the parent of
// the process's outgoing calls for the same trace, and the time spent
// inside ResponseWriter.Write/Flush becomes child spans named writeName.
func (t *tracer) handler(proc string, paths map[string]string, writeName string, next http.Handler) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name, ok := paths[r.URL.Path]
		if !ok || !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		trace := r.Header.Get(hdrTrace)
		parent, _ := strconv.ParseUint(r.Header.Get(hdrSpan), 10, 64)
		if trace == "" && parent != 0 {
			trace = t.traceOf(parent)
		}
		if trace == "" {
			// The coordinator's cache client adds no headers: attribute
			// the peer call to the query in flight.
			trace = loadString(&t.curQuery)
			parent = t.root("coord", trace)
		}
		sp := t.start(trace, parent, name, proc)
		t.setRoot(proc, trace, sp.ID)
		tw := &timedWriter{ResponseWriter: w, t: t, sp: sp, name: writeName}
		next.ServeHTTP(tw, r)
		sp.Bytes = tw.bytes
		t.end(sp)
	})
}

// timedWriter times a handler's writes to its client.
type timedWriter struct {
	http.ResponseWriter
	t     *tracer
	sp    *span
	name  string
	bytes int64
}

func (w *timedWriter) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	w.t.interval(w.sp.Trace, w.sp.ID, w.name, w.sp.Proc, start, int64(n))
	return n, err
}

func (w *timedWriter) Flush() {
	f, ok := w.ResponseWriter.(http.Flusher)
	if !ok {
		return
	}
	start := time.Now()
	f.Flush()
	w.t.interval(w.sp.Trace, w.sp.ID, w.name, w.sp.Proc, start, 0)
}

// nodeTransport wraps the coordinator's transport to its nodes. Each
// request records the wait until response headers (cluster.node_wait)
// and every blocking body Read (cluster.node_read), both children of
// the coordinator span that caused the call; the node's handler span
// hangs under the same parent via the added headers. Sub-stream
// requests carry the query's trace ID in their gob body; everything
// else is control-plane traffic of the delta in flight.
type nodeTransport struct {
	t     *tracer
	inner http.RoundTripper
}

func (nt *nodeTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t := nt.t
	if !t.on.Load() {
		return nt.inner.RoundTrip(req)
	}
	trace := ""
	if req.URL.Path == "/shard/stream" && req.Body != nil {
		body, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		var ssr wire.ShardStreamRequest
		if gob.NewDecoder(bytes.NewReader(body)).Decode(&ssr) == nil {
			trace = ssr.Trace
		}
		req = req.Clone(req.Context())
		req.Body = io.NopCloser(bytes.NewReader(body))
		req.ContentLength = int64(len(body))
	} else {
		trace = loadString(&t.curDelta)
		req = req.Clone(req.Context())
	}
	parent := t.root("coord", trace)
	req.Header.Set(hdrTrace, trace)
	req.Header.Set(hdrSpan, strconv.FormatUint(parent, 10))
	start := time.Now()
	resp, err := nt.inner.RoundTrip(req)
	name := "cluster.node_wait"
	if req.URL.Path != "/shard/stream" {
		name = "cluster.node_ctl_wait"
	}
	t.interval(trace, parent, name, "coord", start, 0)
	if err != nil {
		return nil, err
	}
	readName := "cluster.node_read"
	if req.URL.Path != "/shard/stream" {
		readName = "cluster.node_ctl_read"
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, t: t, trace: trace, parent: parent,
		name: readName, proc: "coord"}
	return resp, nil
}

// timedBody records every blocking Read of a response body.
type timedBody struct {
	io.ReadCloser
	t      *tracer
	trace  string
	parent uint64
	name   string
	proc   string
}

func (b *timedBody) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := b.ReadCloser.Read(p)
	b.t.interval(b.trace, b.parent, b.name, b.proc, start, int64(n))
	return n, err
}

// clientTransport is one reader's (or the writer's) transport. The
// reader points cur at its open query span before each request; the
// wait for response headers (wire.client_wait) and every read of the
// response body (wire.client_read) become children of it.
type clientTransport struct {
	t     *tracer
	inner http.RoundTripper
	cur   *span
}

func (ct *clientTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	sp := ct.cur
	if !ct.t.active() || sp == nil {
		return ct.inner.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(hdrTrace, sp.Trace)
	req.Header.Set(hdrSpan, strconv.FormatUint(sp.ID, 10))
	start := time.Now()
	resp, err := ct.inner.RoundTrip(req)
	ct.t.interval(sp.Trace, sp.ID, "wire.client_wait", "client", start, 0)
	if err != nil {
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, t: ct.t, trace: sp.Trace, parent: sp.ID,
		name: "wire.client_read", proc: "client"}
	return resp, nil
}

// tracedVerifier times the unmodified verifier's Consume and Finish.
type tracedVerifier struct {
	inner verify.ChunkVerifier
	t     *tracer
	sp    *span
}

func (v *tracedVerifier) Consume(c *engine.Chunk) ([]engine.Row, error) {
	start := time.Now()
	rows, err := v.inner.Consume(c)
	v.t.interval(v.sp.Trace, v.sp.ID, "verify.consume", "client", start, int64(len(rows)))
	return rows, err
}

func (v *tracedVerifier) Finish() error {
	start := time.Now()
	err := v.inner.Finish()
	v.t.interval(v.sp.Trace, v.sp.ID, "verify.finish", "client", start, 0)
	return err
}

// layerTimes aggregates the recorded spans per name: count, total
// duration, total self time (duration minus the union of same-process
// children), and bytes.
type layerTimes struct {
	Count int
	Total time.Duration
	Self  time.Duration
	Bytes int64
}

func (t *tracer) aggregate() map[string]*layerTimes {
	t.mu.Lock()
	spans := append([]*span(nil), t.spans...)
	t.mu.Unlock()
	children := map[uint64][]*span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*layerTimes{}
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTimes{}
			out[s.Name] = lt
		}
		lt.Count++
		lt.Total += s.dur()
		lt.Bytes += s.Bytes
		lt.Self += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the same-process children's
// intervals, clipped to the parent.
func covered(parent *span, kids []*span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		if k.Proc != parent.Proc {
			continue
		}
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	started := false
	for _, x := range ivs {
		if !started || x.a > curB {
			if started {
				total += curB - curA
			}
			curA, curB, started = x.a, x.b, true
		} else if x.b > curB {
			curB = x.b
		}
	}
	if started {
		total += curB - curA
	}
	return time.Duration(total)
}

// dump writes every span and each layer's aggregate to path.
func (t *tracer) dump(path string, agg map[string]*layerTimes) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"layers": agg, "span_count": len(t.spans)}); err != nil {
		f.Close()
		return err
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
