// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload against the real serving tiers (single-process
// server, or coordinator + shard nodes + cache peer + data dirs) over
// loopback TCP in one process, checks every answer, and prints the
// metrics BENCHMARK.json names:
//
//	-trace 0  end-to-end metrics, measured with tracing off
//	-trace 1  per-layer metrics from a traced window, run after an
//	          untraced window of the same seed (the difference between
//	          the two is the reported tracing overhead)
//
// The last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}; the line before it is the
// full result record (environment, parameters, sample counts), which
// -compare reads back. A wrong answer that a check accepted aborts the
// run with exit status 1 and no result line.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workload is one traffic mix over one topology. BENCHMARK.json says
// why each was chosen.
type workload struct {
	Name string
	// Cluster selects coordinator + shard nodes; otherwise one server
	// process hosts the K-way partitioned publication.
	Cluster bool
	// Durable backs every node with a store.NodeStore data dir.
	Durable bool
	// CachePeer puts one cache.Server in front of the coordinator.
	CachePeer bool
	// Readers is the number of closed-loop reader goroutines.
	Readers int
	// Verified reads go through the unmodified ShardStreamVerifier;
	// otherwise each served stream is compared byte for byte with a
	// reference that was verified at set-up.
	Verified  bool
	RangeRows int
	// Pool is the number of distinct ranges reads draw from; 0 draws a
	// fresh uniformly random offset for every read.
	Pool int
	// Zipf > 1 draws pool entries Zipf(s); otherwise uniformly.
	Zipf float64
	// WriteRate is the open-loop delta rate inside the timed window.
	WriteRate float64
	// HotWrites draws delta victims from the rows the read pool covers.
	HotWrites bool
	// PostDeltas deltas are sent at PostRate after a read-only window,
	// so the write path is measured without touching the reads.
	PostDeltas int
	PostRate   float64
}

var workloads = []workload{
	{Name: "scan-verify", Readers: 1, Verified: true, RangeRows: 512, WriteRate: 5},
	{Name: "cluster-serve", Cluster: true, Readers: 2, RangeRows: 128, Pool: 256, PostDeltas: 100, PostRate: 40},
	{Name: "hot-write", Cluster: true, Durable: true, CachePeer: true, Readers: 1, Verified: true,
		RangeRows: 32, Pool: 64, Zipf: 1.1, WriteRate: 20, HotWrites: true},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// params is the data shape shared by all workloads; the self-test
// shrinks it.
type params struct {
	Records, Payload, Shards, ChunkRows int
	Nodes, Replicas                     int
	// SetupReps is how many times an untraced run sets the topology up;
	// setup_s is the median.
	SetupReps int
}

var defaultParams = params{Records: 8192, Payload: 32, Shards: 4, ChunkRows: 64,
	Nodes: 3, Replicas: 2, SetupReps: 3}

// options is one invocation.
type options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// Root is the checkout root; Build the directory runs may write to.
	Root, Build string
	Params      params
}

// errWrongAnswer marks an answer that passed the transport and the
// verifier (or arrived where a verified reference was expected) but is
// not the correct answer. It aborts the run.
var errWrongAnswer = errors.New("wrong answer accepted")

func main() {
	var o options
	var trace int
	var compare bool
	flag.StringVar(&o.Workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Int64Var(&o.Seed, "seed", 1, "input seed")
	flag.Float64Var(&o.Seconds, "seconds", 10, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.Root, "root", ".", "checkout root")
	flag.StringVar(&o.Build, "build", ".bench_build", "directory for data dirs and span dumps")
	flag.BoolVar(&compare, "compare", false, "compare two sets of result logs: -compare OLD NEW")
	flag.Parse()
	o.Trace = trace == 1
	o.Params = defaultParams

	if compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare OLD NEW (files or directories of run logs)")
			os.Exit(2)
		}
		if err := runCompare(os.Stdout, o.Root, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			os.Exit(1)
		}
		return
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "-trace must be 0 or 1")
		os.Exit(2)
	}
	rec, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printRecord(os.Stdout, rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported number with its unit and sample count.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// record is the full result of one run.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Env       envInfo           `json:"env"`
	Params    params            `json:"params"`
	Shape     workload          `json:"shape"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Tails are the untraced run's tail percentiles, reported but not
	// gated.
	Tails map[string]metric `json:"tails,omitempty"`
	// Untraced and Traced are the end-to-end metrics of the two windows
	// of a traced run; their difference is the tracing overhead.
	Untraced map[string]metric `json:"untraced,omitempty"`
	Traced   map[string]metric `json:"traced,omitempty"`
	// PerSecond is the untraced window's reads completed per second.
	PerSecond []int `json:"per_second"`
	// Quarantined lists the nodes the coordinator drained during the
	// run, with its reasons. No fault is injected, so every entry is a
	// program fault; it costs capacity, not correctness, and is
	// reported rather than aborting the run.
	Quarantined []string `json:"quarantined,omitempty"`
	// Spans names the file the traced run's spans were written to.
	Spans string `json:"spans,omitempty"`
}

// resultLine is the contract's last line.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printRecord(w *os.File, rec *record) error {
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	// error_rate is failed/attempted over reads and writes together; it
	// is 0 in a healthy run, so it travels as the result line's
	// attempted and failed counts rather than as a metric.
	fmt.Fprintf(w, "# %s seed=%d trace=%v attempted=%d failed=%d error_rate=%.4g quarantined=%d\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Attempted, rec.Failed, ratio(float64(rec.Failed), float64(rec.Attempted)),
		len(rec.Quarantined))
	for _, n := range names {
		m := rec.Metrics[n]
		fmt.Fprintf(w, "%-32s %14.4f %-6s n=%d\n", n, m.Value, m.Unit, m.Samples)
	}
	for _, n := range tails {
		if m, ok := rec.Tails[n]; ok {
			fmt.Fprintf(w, "%-32s %14.4f %-6s n=%d (not gated)\n", n, m.Value, m.Unit, m.Samples)
		}
	}
	full, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(full))
	line := resultLine{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed,
		Metrics: map[string]lineMetric{}}
	for n, m := range rec.Metrics {
		line.Metrics[n] = lineMetric{Value: m.Value, Unit: m.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(out))
	return nil
}

// scratchDir makes a fresh directory for this run's data dirs under the
// build directory and returns it with its cleanup.
func scratchDir(o options) (string, func(), error) {
	base := o.Build
	if !filepath.IsAbs(base) {
		base = filepath.Join(o.Root, base)
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(base, fmt.Sprintf("run-%s-%d-", o.Workload, time.Now().UnixNano()))
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}
