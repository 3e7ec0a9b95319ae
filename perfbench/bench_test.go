package main

// The benchmark's self-test, at tiny sizes: every metric BENCHMARK.json
// names is emitted with its unit, and the answer checks catch a flipped
// reference byte, a tampered chunk and a stale read.
//
//	cd perfbench && go test ./...

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"vcqr/internal/delta"
	"vcqr/internal/wire"
)

var tinyParams = params{Records: 256, Payload: 32, Shards: 4, ChunkRows: 16, Nodes: 3, Replicas: 2, SetupReps: 2}

// shrink scales the workload table down to tinyParams for one test.
func shrink(t *testing.T) {
	saved := append([]workload(nil), workloads...)
	t.Cleanup(func() { copy(workloads, saved) })
	for i := range workloads {
		w := &workloads[i]
		w.RangeRows = min(w.RangeRows, 32)
		w.Pool = min(w.Pool, 16)
		w.PostDeltas = min(w.PostDeltas, 5)
	}
}

func tinyOptions(t *testing.T, name string, trace bool) options {
	return options{Workload: name, Seed: 7, Seconds: 0.4, Trace: trace,
		Root: "..", Build: t.TempDir(), Params: tinyParams}
}

type specFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readSpec(t *testing.T) specFile {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s specFile
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesCode pins BENCHMARK.json to the metric and workload
// tables the code reports.
func TestSpecMatchesCode(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, code has %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].Name)
		}
	}
	check := func(kind string, spec []struct{ Name, Unit string }, code []struct{ Name, Unit string }) {
		if len(spec) != len(code) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, code %d", kind, len(spec), len(code))
		}
		for i := range spec {
			if spec[i] != code[i] {
				t.Errorf("%s %d: BENCHMARK.json %v, code %v", kind, i, spec[i], code[i])
			}
		}
	}
	check("end_to_end", s.EndToEnd, endToEnd)
	check("per_layer", s.PerLayer, perLayer)
}

// TestEveryMetricEmitted runs each workload untraced and traced and
// checks the result line carries exactly the named metrics, with units;
// end-to-end metrics must never be 0.
func TestEveryMetricEmitted(t *testing.T) {
	shrink(t)
	s := readSpec(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rec, err := run(tinyOptions(t, w.Name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !rec.Correct || rec.Attempted == 0 || rec.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, rec.Correct, rec.Attempted, rec.Failed)
			}
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			for _, name := range tails {
				if m, ok := rec.Tails[name]; !trace && (!ok || m.Samples == 0) {
					t.Errorf("%s: tail %s missing", w.Name, name)
				}
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(rec.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rec.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s unit %q, want %q", w.Name, m.Name, got.Unit, m.Unit)
				case !trace && (got.Value <= 0 || math.IsInf(got.Value, 0) || got.Samples == 0):
					t.Errorf("%s: end-to-end metric %s = %v (n=%d)", w.Name, m.Name, got.Value, got.Samples)
				}
			}
		}
	}
}

// prepared sets a tiny workload up and returns its bench.
func prepared(t *testing.T, name string) *bench {
	t.Helper()
	shrink(t)
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	o := tinyOptions(t, name, false)
	b, _, _, err := prepare(o, w, o.Build, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.d.close)
	return b
}

func TestFlippedReferenceByteCaught(t *testing.T) {
	b := prepared(t, "cluster-serve")
	hc := &http.Client{Transport: b.base}
	if res, err := b.readRange(0, hc, nil); err != nil || res.err != nil {
		t.Fatalf("honest read: %v / %v", err, res.err)
	}
	b.refs[0][len(b.refs[0])/2] ^= 0x40
	_, err := b.readRange(0, hc, nil)
	if !errors.Is(err, errWrongAnswer) {
		t.Fatalf("flipped reference byte not caught: %v", err)
	}
}

// rewriteTransport replaces every /stream response body with rewrite's
// output.
type rewriteTransport struct {
	inner   http.RoundTripper
	rewrite func([]byte) []byte
}

func (rt *rewriteTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := rt.inner.RoundTrip(req)
	if err != nil || req.URL.Path != "/stream" {
		return resp, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	out := rt.rewrite(raw)
	resp.Body = io.NopCloser(bytes.NewReader(out))
	resp.ContentLength = int64(len(out))
	return resp, nil
}

// tamperFirstRow changes one disclosed byte of the first row in a
// stream and re-frames it, as a lying server would.
func tamperFirstRow(t *testing.T, raw []byte) []byte {
	r := bytes.NewReader(raw)
	var out bytes.Buffer
	done := false
	for {
		c, err := wire.ReadChunkFrame(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := range c.Entries {
			if e := &c.Entries[i]; !done && len(e.Disclosed) > 0 && len(e.Disclosed[0].Val.Bytes) > 0 {
				e.Disclosed[0].Val.Bytes[len(e.Disclosed[0].Val.Bytes)-1] ^= 1
				done = true
			}
		}
		if err := wire.WriteChunkFrame(&out, c); err != nil {
			t.Fatal(err)
		}
	}
	if !done {
		t.Fatal("no row to tamper with")
	}
	return out.Bytes()
}

func TestTamperedChunkRefused(t *testing.T) {
	b := prepared(t, "scan-verify")
	hc := &http.Client{Transport: &rewriteTransport{inner: b.base,
		rewrite: func(raw []byte) []byte { return tamperFirstRow(t, raw) }}}
	res, err := b.readVerified(b.d.front, b.in.ranges[0], hc, nil)
	if err != nil {
		t.Fatalf("tampered chunk must be refused by the verifier, got wrong-answer path: %v", err)
	}
	if res.err == nil {
		t.Fatal("tampered chunk accepted")
	}
}

// TestStaleReadCaught replays a range's pre-delta stream after a delta
// to a record in that range was acknowledged: every signature in it is
// the owner's, so the verifier accepts it, and the freshness check must
// not.
func TestStaleReadCaught(t *testing.T) {
	for _, name := range []string{"scan-verify", "hot-write"} {
		t.Run(name, func(t *testing.T) {
			b := prepared(t, name)
			rg := b.in.ranges[0]
			var victims []int
			for i := rg.First; i < rg.First+rg.Rows; i++ {
				victims = append(victims, i+1)
			}
			ds, err := genDeltas(b.d.h, b.d.key, b.d.master, victims[1:len(victims)-1], 1, b.d.p.Payload, 1)
			if err != nil {
				t.Fatal(err)
			}
			b.deltas, b.nextDelta = ds, 0

			var old []byte
			var body bytes.Buffer
			if err := gob.NewEncoder(&body).Encode(wire.StreamRequest{Role: role.Name, Query: rg.query(b.rel), ChunkRows: b.d.p.ChunkRows}); err != nil {
				t.Fatal(err)
			}
			resp, err := (&http.Client{Transport: b.base}).Post(b.d.front+"/stream", "application/octet-stream", &body)
			if err != nil {
				t.Fatal(err)
			}
			old, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}

			hc := &http.Client{Transport: b.base}
			if ok, err := b.sendDelta(hc, nil); err != nil || !ok {
				t.Fatalf("delta refused: %v %v", err, b.deltaErr.Load())
			}
			if res, err := b.readVerified(b.d.front, rg, hc, nil); err != nil || res.err != nil {
				t.Fatalf("fresh read after the delta: %v / %v", err, res.err)
			}
			replay := &http.Client{Transport: &rewriteTransport{inner: b.base, rewrite: func([]byte) []byte { return old }}}
			res, err := b.readVerified(b.d.front, rg, replay, nil)
			if res.err != nil {
				t.Fatalf("verifier refused the replayed stream (%v); the replay must be validly signed", res.err)
			}
			if !errors.Is(err, errWrongAnswer) {
				t.Fatalf("stale read not caught: %v", err)
			}
		})
	}
}

// TestDeltaMatchesDiff pins the clone-free delta construction to what
// delta.Diff computes over a full before/after pair.
func TestDeltaMatchesDiff(t *testing.T) {
	b := prepared(t, "scan-verify")
	before := b.d.master.Clone()
	ds, err := genDeltas(b.d.h, b.d.key, b.d.master, victimPool(b.w, b.in), 1, b.d.p.Payload, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := delta.Diff(before, b.d.master)
	enc := func(d delta.Delta) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(d); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(enc(ds[0].D), enc(want)) {
		t.Fatalf("generated delta differs from delta.Diff: %d ops vs %d", len(ds[0].D.Ops), len(want.Ops))
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := quartiles(xs); got != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		new   []float64
		lower bool
		want  string
	}{
		{scaled(0.8), true, "improved"},
		{scaled(1.01), true, "within bound"},
		{scaled(1.3), true, "regressed"},
		{scaled(1.3), false, "improved"},
		{[]float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}, true, "unresolved"},
	}
	for i, c := range cases {
		if got := compareMetric(base, c.new, c.lower, 0.1).verdict; got != c.want {
			t.Errorf("case %d: verdict %q, want %q", i, got, c.want)
		}
	}
}
