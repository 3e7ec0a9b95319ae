package hashx

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewSizeClamps(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 8}, {7, 8}, {8, 8}, {16, 16}, {32, 32}, {33, 32}, {100, 32},
	}
	for _, c := range cases {
		if got := NewSize(c.in).Size(); got != c.want {
			t.Errorf("NewSize(%d).Size() = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestDefaultSize(t *testing.T) {
	h := New()
	if h.Size() != DefaultSize {
		t.Fatalf("default size = %d, want %d", h.Size(), DefaultSize)
	}
	if len(h.Hash([]byte("x"))) != DefaultSize {
		t.Fatalf("digest length != %d", DefaultSize)
	}
}

func TestDigestEqualAndClone(t *testing.T) {
	h := New()
	a := h.Hash([]byte("a"))
	b := h.Hash([]byte("a"))
	c := h.Hash([]byte("b"))
	if !a.Equal(b) {
		t.Error("identical inputs must produce equal digests")
	}
	if a.Equal(c) {
		t.Error("different inputs must not produce equal digests")
	}
	if a.Equal(a[:8]) {
		t.Error("length mismatch must compare unequal")
	}
	cl := a.Clone()
	if !cl.Equal(a) {
		t.Error("clone must equal original")
	}
	cl[0] ^= 0xff
	if cl.Equal(a) {
		t.Error("mutating clone must not affect original")
	}
}

func TestDomainSeparation(t *testing.T) {
	h := New()
	m := []byte("same input")
	digests := []Digest{
		h.Hash(m), h.Leaf(m), h.First(m), h.GDigest(m),
	}
	for i := range digests {
		for j := i + 1; j < len(digests); j++ {
			if digests[i].Equal(digests[j]) {
				t.Errorf("tagged digests %d and %d collide", i, j)
			}
		}
	}
}

func TestNodeOrderMatters(t *testing.T) {
	h := New()
	a, b := h.Leaf([]byte("a")), h.Leaf([]byte("b"))
	if h.Node(a, b).Equal(h.Node(b, a)) {
		t.Error("Node must not be commutative")
	}
}

func TestIterateComposition(t *testing.T) {
	// h^{a+b}(m) == IterateFrom(h^a(m), b): the composition property the
	// user relies on when extending the publisher's intermediate digest.
	h := New()
	f := func(seed uint32, a8, b8 uint8) bool {
		m := U64(uint64(seed))
		a, b := uint64(a8%50), uint64(b8%50)
		full := h.Iterate(m, a+b)
		split := h.IterateFrom(h.Iterate(m, a), b)
		return full.Equal(split)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIterateZero(t *testing.T) {
	h := New()
	m := []byte("m")
	if !h.Iterate(m, 0).Equal(h.First(m)) {
		t.Error("h^0 must equal First")
	}
}

func TestIterateDistinctSteps(t *testing.T) {
	// Successive chain values must all differ (no short cycles in practice).
	h := New()
	m := []byte("chain")
	seen := map[string]bool{}
	d := h.First(m)
	for i := 0; i < 1000; i++ {
		k := string(d)
		if seen[k] {
			t.Fatalf("chain cycled at step %d", i)
		}
		seen[k] = true
		d = h.Next(d)
	}
}

func TestOpsCounting(t *testing.T) {
	h := New()
	h.ResetOps()
	h.Iterate([]byte("m"), 9) // First + 9 Next = 10 ops
	if got := h.Ops(); got != 10 {
		t.Errorf("Ops() = %d, want 10", got)
	}
	h.ResetOps()
	if h.Ops() != 0 {
		t.Error("ResetOps must zero the counter")
	}
}

func TestSigDigestBindsAllThree(t *testing.T) {
	h := New()
	g1, g2, g3 := h.Hash([]byte("1")), h.Hash([]byte("2")), h.Hash([]byte("3"))
	base := h.SigDigest(g1, g2, g3)
	if base.Equal(h.SigDigest(g3, g2, g1)) {
		t.Error("SigDigest must depend on order")
	}
	if base.Equal(h.SigDigest(g1, g1, g3)) {
		t.Error("SigDigest must depend on middle digest")
	}
}

func TestU64Encoding(t *testing.T) {
	if !bytes.Equal(U64(1), []byte{0, 0, 0, 0, 0, 0, 0, 1}) {
		t.Error("U64 must be big-endian")
	}
	if len(U64Pair(1, 2)) != 16 {
		t.Error("U64Pair must be 16 bytes")
	}
	if bytes.Equal(U64Pair(1, 2), U64Pair(2, 1)) {
		t.Error("U64Pair must distinguish order")
	}
}

func TestDifferentSizesDiffer(t *testing.T) {
	h16, h32 := NewSize(16), NewSize(32)
	m := []byte("m")
	a, b := h16.Hash(m), h32.Hash(m)
	if len(a) == len(b) {
		t.Fatal("sizes should differ")
	}
	if !a.Equal(Digest(b[:16])) {
		t.Error("truncation should be a prefix of the wider digest")
	}
}

func TestConcurrentHashing(t *testing.T) {
	// The hasher is shared across publisher goroutines; digests must be
	// deterministic and the ops counter race-free.
	h := New()
	const goroutines, per = 8, 200
	want := h.Hash([]byte("probe"))
	done := make(chan bool, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			ok := true
			for i := 0; i < per; i++ {
				if !h.Hash([]byte("probe")).Equal(want) {
					ok = false
				}
			}
			done <- ok
		}()
	}
	for g := 0; g < goroutines; g++ {
		if !<-done {
			t.Fatal("concurrent hashing produced a different digest")
		}
	}
	if h.Ops() < goroutines*per {
		t.Fatalf("ops counter lost updates: %d", h.Ops())
	}
}

// refHash is the primitive written out the naive way: a fresh sha256
// state over tag||parts, truncated. Every optimized path must match it.
func refHash(size int, tag byte, parts ...[]byte) Digest {
	st := sha256.New()
	st.Write([]byte{tag})
	for _, p := range parts {
		st.Write(p)
	}
	return Digest(st.Sum(nil)[:size])
}

// refIterateFrom applies the naive tagIter hash i times.
func refIterateFrom(size int, d []byte, i uint64) Digest {
	for ; i > 0; i-- {
		d = refHash(size, tagIter, d)
	}
	return Digest(d)
}

// TestPrimitivesMatchNaiveReference pins hash, IterateFrom and the
// append forms byte for byte against refHash for every digest width,
// for inputs short enough for the stack buffer and longer than it, and
// for chain seeds of unusual widths.
func TestPrimitivesMatchNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	msg := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	for size := 8; size <= MaxSize; size++ {
		h := NewSize(size)
		for _, n := range []int{0, 1, 16, bufSize - 1, bufSize, bufSize + 1, 3 * bufSize} {
			a, b := msg(n/2), msg(n-n/2)
			if got, want := h.Hash(a, b), refHash(size, tagMisc, a, b); !got.Equal(want) {
				t.Fatalf("size %d, %d-byte input: Hash differs from reference", size, n)
			}
			if got, want := h.Leaf(a), refHash(size, tagLeaf, a); !got.Equal(want) {
				t.Fatalf("size %d, %d-byte input: Leaf differs from reference", size, n/2)
			}
		}
		m := msg(16)
		for _, i := range []uint64{0, 1, 2, 7} {
			want := refIterateFrom(size, refHash(size, tagFirst, m), i)
			if got := h.Iterate(m, i); !got.Equal(want) {
				t.Fatalf("size %d: Iterate(m, %d) differs from reference", size, i)
			}
			prefix := []byte("prefix")
			got := h.AppendIterate(append([]byte(nil), prefix...), m, i)
			if !bytes.Equal(got[:len(prefix)], prefix) || !Digest(got[len(prefix):]).Equal(want) {
				t.Fatalf("size %d: AppendIterate(m, %d) differs from reference", size, i)
			}
			for _, w := range []int{size, 1, MaxSize, MaxSize + 9} {
				d := msg(w)
				want := refIterateFrom(size, d, i)
				if got := h.IterateFrom(d, i); !got.Equal(want) {
					t.Fatalf("size %d: IterateFrom(%d-byte d, %d) differs from reference", size, w, i)
				}
				if got := h.AppendIterateFrom(nil, d, i); !Digest(got).Equal(want) {
					t.Fatalf("size %d: AppendIterateFrom(%d-byte d, %d) differs from reference", size, w, i)
				}
			}
		}
	}
}

// TestOpsExactWithForks: every primitive counts exactly its hash
// applications, and work done on forks lands in the parent's total at
// Join, with the forks left at zero.
func TestOpsExactWithForks(t *testing.T) {
	h := New()
	m := []byte("m")
	d := h.First(m)
	h.ResetOps()
	h.IterateFrom(d, 0)
	h.AppendIterateFrom(nil, d, 0)
	if h.Ops() != 0 {
		t.Fatalf("zero-length iterations counted %d ops", h.Ops())
	}
	h.Iterate(m, 5)                               // 6
	h.IterateFrom(d, 4)                           // 4
	h.AppendIterate(nil, m, 3)                    // 4
	h.AppendIterateFrom(nil, make([]byte, 40), 2) // 2: the over-wide seed's first step included
	h.Hash(make([]byte, 3*bufSize))               // 1
	if got := h.Ops(); got != 17 {
		t.Fatalf("Ops() = %d, want 17", got)
	}

	const workers, per = 4, 250
	forks := make([]*Hasher, workers)
	var wg sync.WaitGroup
	for w := range forks {
		forks[w] = h.Fork()
		if forks[w].Size() != h.Size() || forks[w].Ops() != 0 {
			t.Fatal("fork must share the width and start at zero ops")
		}
		wg.Add(1)
		go func(f *Hasher) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				f.Iterate(m, 1) // 2 ops
			}
		}(forks[w])
	}
	wg.Wait()
	if h.Ops() != 17 {
		t.Fatalf("fork work leaked into the parent before Join: %d", h.Ops())
	}
	for _, f := range forks {
		h.Join(f)
		if f.Ops() != 0 {
			t.Fatal("Join must leave the fork at zero")
		}
	}
	if got, want := h.Ops(), uint64(17+workers*per*2); got != want {
		t.Fatalf("Ops() after Join = %d, want %d", got, want)
	}
}

// TestIterateAllocations pins the allocation-free chain: the append
// forms allocate nothing into a buffer with room, and Iterate only its
// result digest.
func TestIterateAllocations(t *testing.T) {
	h := New()
	m := U64Pair(12345, 7)
	buf := make([]byte, 0, 4*MaxSize)
	if n := testing.AllocsPerRun(100, func() {
		b := h.AppendIterate(buf, m, 9)
		h.AppendIterateFrom(b, b[:h.Size()], 9)
	}); n != 0 {
		t.Fatalf("append forms allocate %.1f per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { h.Iterate(m, 9) }); n != 1 {
		t.Fatalf("Iterate allocates %.1f per run, want 1 (the result)", n)
	}
	long := make([]byte, 3*bufSize)
	if n := testing.AllocsPerRun(100, func() { h.Hash(long, m) }); n != 1 {
		t.Fatalf("Hash over a long input allocates %.1f per run, want 1 (the result)", n)
	}
}

func BenchmarkHashOp(b *testing.B) {
	h := New()
	m := U64Pair(12345, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.First(m)
	}
}
