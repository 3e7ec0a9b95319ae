package verify_test

import (
	"runtime"
	"sync"
	"testing"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/verify"
	"vcqr/internal/workload"
)

// scanRows and scanChunkRows mirror the scan-verify benchmark shape: a
// 512-row range over a 2^32 key domain at base 2, streamed in 64-row
// chunks.
const (
	scanRows      = 512
	scanChunkRows = 64
)

// scanFix is a signed 512-record relation and the honest chunk sequence
// of a whole-range query over it.
type scanFix struct {
	h      *hashx.Hasher
	v      *verify.Verifier
	q      engine.Query
	role   accessctl.Role
	chunks []*engine.Chunk
}

var (
	scanOnce sync.Once
	scanF    *scanFix
)

func newScanFix(t testing.TB) *scanFix {
	t.Helper()
	scanOnce.Do(func() {
		key := signKey(t)
		h := hashx.New()
		rel, err := workload.Uniform(workload.UniformConfig{
			N: scanRows, L: 0, U: 1 << 32, PayloadSize: 32, Seed: 512,
		})
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.NewParams(rel.L, rel.U, core.DefaultBase)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := core.Build(h, key, p, rel)
		if err != nil {
			t.Fatal(err)
		}
		role := accessctl.Role{Name: "all"}
		pub := engine.NewPublisher(h, key.Public(), accessctl.NewPolicy(role))
		if err := pub.AddRelation(sr, false); err != nil {
			t.Fatal(err)
		}
		q := engine.Query{Relation: sr.Schema.Name}
		res, err := pub.Execute(role.Name, q)
		if err != nil {
			t.Fatal(err)
		}
		scanF = &scanFix{
			h:      h,
			v:      verify.New(h, key.Public(), p, sr.Schema),
			q:      q,
			role:   role,
			chunks: engine.ChunkResult(res, scanChunkRows),
		}
	})
	if scanF == nil {
		t.Fatal("scan fixture failed to build")
	}
	return scanF
}

// verifyAll drains the fixture's chunks through a fresh stream verifier.
func (f *scanFix) verifyAll(tb testing.TB) int {
	sv := f.v.NewStreamVerifier(f.q, f.role)
	rows := 0
	for _, c := range f.chunks {
		released, err := sv.Consume(c)
		if err != nil {
			tb.Fatal(err)
		}
		rows += len(released)
	}
	if err := sv.Finish(); err != nil {
		tb.Fatal(err)
	}
	return rows
}

// TestStreamVerifyAllocsPerRow pins the verifier's garbage: allocations
// per verified row of a 512-row stream, on the sequential path.
func TestStreamVerifyAllocsPerRow(t *testing.T) {
	f := newScanFix(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if rows := f.verifyAll(t); rows != scanRows {
		t.Fatalf("verified %d rows, want %d", rows, scanRows)
	}
	perRow := testing.AllocsPerRun(5, func() { f.verifyAll(t) }) / scanRows
	t.Logf("%.1f allocs per verified row", perRow)
	if perRow > 48 {
		t.Fatalf("%.1f allocs per verified row, want <= 48", perRow)
	}
}

// BenchmarkStreamVerify measures client verification alone over the
// 512-row stream (no publisher or transport on the timed path).
func BenchmarkStreamVerify(b *testing.B) {
	f := newScanFix(b)
	b.ReportAllocs()
	b.ResetTimer()
	ops0 := f.h.Ops()
	for i := 0; i < b.N; i++ {
		f.verifyAll(b)
	}
	b.ReportMetric(float64(f.h.Ops()-ops0)/float64(b.N*scanRows), "hashops/row")
}

// scanHashOps is the hash-operation count of verifying the scan fixture's
// 512-row stream: formula (5)'s unit of client cost, pinned so that no
// optimization of the hashing path changes the work it does.
const scanHashOps = 54839

// TestStreamVerifyHashOps pins the exact hash-operation count of the
// 512-row stream, sequentially and with parallel workers whose counts
// are joined back into the verifier's hasher.
func TestStreamVerifyHashOps(t *testing.T) {
	f := newScanFix(t)
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		ops0 := f.h.Ops()
		f.verifyAll(t)
		got := f.h.Ops() - ops0
		runtime.GOMAXPROCS(prev)
		if got != scanHashOps {
			t.Errorf("GOMAXPROCS=%d: %d hash ops, want %d", procs, got, scanHashOps)
		}
	}
}
