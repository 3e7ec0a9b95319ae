package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json compare mode needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runCompare reads two sets of result logs (the parent's and the
// change's untraced runs) and prints, for each workload and end-to-end
// metric, both sides' median and quartiles, the fraction of pairs the
// change wins, and a verdict under the bounds in BENCHMARK.json.
func runCompare(w io.Writer, root, oldPath, newPath string) error {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	olds, err := loadRecords(oldPath)
	if err != nil {
		return err
	}
	news, err := loadRecords(newPath)
	if err != nil {
		return err
	}
	var names []string
	for name := range olds {
		if news[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("no workload has untraced runs on both sides")
	}
	fmt.Fprintf(w, "%-14s %-14s %-5s %30s %30s %8s %6s  %s\n",
		"workload", "metric", "unit", "old median [q1, q3]", "new median [q1, q3]", "worse by", "wins", "verdict")
	for _, name := range names {
		a, b := olds[name], news[name]
		for _, m := range spec.EndToEnd {
			av, bv := values(a, m.Name), values(b, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			c := compareMetric(av, bv, m.Better == "lower", m.Bound)
			fmt.Fprintf(w, "%-14s %-14s %-5s %30s %30s %+7.1f%% %6.2f  %s (n=%d/%d)\n",
				name, m.Name, m.Unit, fmtQ(c.old), fmtQ(c.new), 100*c.change, c.wins, c.verdict, len(av), len(bv))
		}
	}
	return nil
}

func fmtQ(q [3]float64) string { return fmt.Sprintf("%.4g [%.4g, %.4g]", q[1], q[0], q[2]) }

// comparison is one metric's verdict.
type comparison struct {
	old, new [3]float64 // q1, median, q3
	change   float64    // relative change of the median, positive = worse
	wins     float64    // fraction of pairs the change wins; ties count for neither
	verdict  string
}

// compareMetric applies the rule for a claimed gain and for a
// regression: improved when the change wins at least nine tenths of the
// pairs and the medians differ by more than the parent's quartile
// spread; unresolved when either side's spread exceeds the bound (unless
// every change run beats every parent run); regressed when the median
// worsens by more than the bound; within bound otherwise. Runs pair in
// seed order.
func compareMetric(old, new []float64, lower bool, bound float64) comparison {
	c := comparison{old: quartiles(old), new: quartiles(new)}
	better := func(x, y float64) bool {
		if lower {
			return x < y
		}
		return x > y
	}
	c.change = ratio(c.new[1]-c.old[1], c.old[1])
	if !lower {
		c.change = -c.change
	}
	pairs := min(len(old), len(new))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(new[i], old[i]) {
			wins++
		}
	}
	c.wins = ratio(float64(wins), float64(pairs))
	allBetter := true
	for _, x := range new {
		for _, y := range old {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	spread := math.Max(ratio(c.old[2]-c.old[0], c.old[1]), ratio(c.new[2]-c.new[0], c.new[1]))
	switch {
	case c.wins >= 0.9 && better(c.new[1], c.old[1]) && math.Abs(c.new[1]-c.old[1]) > c.old[2]-c.old[0]:
		c.verdict = "improved"
	case spread > bound && !allBetter:
		c.verdict = "unresolved"
	case c.change > bound:
		c.verdict = "regressed"
	default:
		c.verdict = "within bound"
	}
	return c
}

// quartiles returns q1, median and q3 the way Python's
// statistics.quantiles(xs, n=4) does (its default, exclusive method).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var out [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		out[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return out
}

// values lists a metric's values over runs sorted by seed.
func values(recs []*record, name string) []float64 {
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seed < recs[j].Seed })
	var out []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// loadRecords reads every full result record (untraced runs only) from
// the files under path, grouped by workload. Any run log works: lines
// that are not records are skipped.
func loadRecords(path string) (map[string][]*record, error) {
	out := map[string][]*record{}
	err := filepath.WalkDir(path, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 16<<20)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "{\"workload\"") {
				continue
			}
			var r record
			if json.Unmarshal([]byte(line), &r) == nil && !r.Trace && r.Metrics != nil {
				out[r.Workload] = append(out[r.Workload], &r)
			}
		}
		return sc.Err()
	})
	return out, err
}
