package core

import (
	"fmt"

	"vcqr/internal/basep"
	"vcqr/internal/hashx"
	"vcqr/internal/mht"
)

// digitChains holds, for one (key, direction) pair, the iterated-hash
// chain of every digit position up to the maximum count any representation
// can need (2B-1, by the lemma's digit bounds). chains[j][c] = h^c(r|j).
//
// Building all of them once makes owner-side signing O(m*B) hash
// operations instead of O(m^2*B), because the canonical representation and
// all m preferred non-canonical representations share these chain values.
type digitChains struct {
	p      Params
	key    uint64
	dir    Direction
	chains [][]hashx.Digest
}

// newDigitChains computes the chains for a key in one direction. All
// chain values live in one backing buffer; chains[j][c] are views into
// it, capped at their own width so an append can never overwrite a
// neighbour.
func newDigitChains(h *hashx.Hasher, p Params, key uint64, dir Direction) *digitChains {
	maxCount := int(2*p.BP.B) - 1
	size := h.Size()
	buf := make([]byte, 0, p.BP.Digits*(maxCount+1)*size)
	last := func() hashx.Digest { return hashx.Digest(buf[len(buf)-size : len(buf) : len(buf)]) }
	dc := &digitChains{p: p, key: key, dir: dir, chains: make([][]hashx.Digest, p.BP.Digits)}
	for j := 0; j < p.BP.Digits; j++ {
		chain := make([]hashx.Digest, maxCount+1)
		buf = h.AppendIterate(buf, preimage(key, j, dir), 0)
		chain[0] = last()
		for c := 1; c <= maxCount; c++ {
			buf = h.AppendIterateFrom(buf, chain[c-1], 1)
			chain[c] = last()
		}
		dc.chains[j] = chain
	}
	return dc
}

// tip returns h^count(r|j).
func (dc *digitChains) tip(j int, count uint64) hashx.Digest {
	if int(count) >= len(dc.chains[j]) {
		panic(fmt.Sprintf("core: digit %d chain count %d exceeds precomputed %d", j, count, len(dc.chains[j])-1))
	}
	return dc.chains[j][count]
}

// tipBufSize is the stack buffer a representation's concatenated chain
// tips are laid out in before hashing: room for 64 digits at the default
// digest width. Wider representations spill to the heap.
const tipBufSize = 64 * hashx.DefaultSize

// repDigest computes the digest of one representation: the hash over the
// concatenated per-digit chain tips, h(h^{d_0}(r|0) | .. | h^{d_m}(r|m)).
// Digit positions marked basep.InvalidDigit (the undefined component of an
// invalid preferred representation) are dropped from the concatenation, as
// prescribed in Section 5.1.
func (dc *digitChains) repDigest(h *hashx.Hasher, rep basep.Rep) hashx.Digest {
	var stack [tipBufSize]byte
	tips := stack[:0]
	for j, d := range rep.Digits {
		if d == basep.InvalidDigit {
			continue
		}
		tips = append(tips, dc.tip(j, d)...)
	}
	return h.Hash(tips)
}

// chainSide is everything the owner derives for one (record, direction):
// the canonical-representation digest h(delta_t), the Merkle tree over the
// m preferred non-canonical representations (Figure 7), and the combined
// digest h(h(delta_t) | MHT root) that enters g(r).
type chainSide struct {
	canon    basep.Rep
	canonDig hashx.Digest
	repTree  *mht.Tree
	Combined hashx.Digest
}

// buildChainSide computes the full chain-side structure for a key.
func buildChainSide(h *hashx.Hasher, p Params, key uint64, dir Direction) (*chainSide, error) {
	dt, err := p.deltaT(key, dir)
	if err != nil {
		return nil, err
	}
	canon, err := basep.Canonical(p.BP, dt)
	if err != nil {
		return nil, err
	}
	dc := newDigitChains(h, p, key, dir)
	canonDig := dc.repDigest(h, canon)
	m := p.BP.M()
	leaves := make([]hashx.Digest, m)
	for i := 0; i < m; i++ {
		rep, _ := basep.Preferred(canon, i)
		leaves[i] = dc.repDigest(h, rep)
	}
	tree := mht.BuildFromDigests(h, leaves)
	return &chainSide{
		canon:    canon,
		canonDig: canonDig,
		repTree:  tree,
		Combined: combineChain(h, canonDig, tree.Root()),
	}, nil
}

// combineChain folds the canonical-representation digest and the
// representation-tree root into the per-direction component of g(r):
// Figure 7's h(h(delta_t) | MHT root).
func combineChain(h *hashx.Hasher, canonDig, repRoot hashx.Digest) hashx.Digest {
	return h.Hash(canonDig, repRoot)
}

// RepRoot returns the root of the non-canonical-representation tree; this
// digest is shipped per result entry so the user can recompute the
// combined digest from the known key.
func (cs *chainSide) RepRoot() hashx.Digest { return cs.repTree.Root() }

// entryCombined recomputes the per-direction combined digest for a record
// whose key the user KNOWS (a result entry, Figure 8(b)): derive the
// canonical representation digits of delta_t, walk each digit chain (at
// most B-1 iterations per digit), hash the concatenation, and fold in the
// representation-tree root received from the publisher.
func entryCombined(h *hashx.Hasher, p Params, key uint64, dir Direction, repRoot hashx.Digest) (hashx.Digest, error) {
	dt, err := p.deltaT(key, dir)
	if err != nil {
		return nil, err
	}
	canon, err := basep.Canonical(p.BP, dt)
	if err != nil {
		return nil, err
	}
	var stack [tipBufSize]byte
	tips := stack[:0]
	for j, d := range canon.Digits {
		tips = h.AppendIterate(tips, preimage(key, j, dir), d)
	}
	return combineChain(h, h.Hash(tips), repRoot), nil
}

// ChainProof is the publisher's proof that a *hidden* boundary key lies
// outside a query bound (Figure 8(a)). The user extends each intermediate
// digest by the canonical digits of delta_c = (bound-relative extension),
// reconstructs the digest of the representation the publisher chose, and
// folds it into the combined digest for comparison against the signature
// chain.
type ChainProof struct {
	// Canonical is true when the canonical representation of delta_t
	// dominates delta_c digitwise and was used directly.
	Canonical bool
	// Index is the preferred-representation index used when !Canonical.
	Index int
	// Intermediates holds the m+1 digests h^{deltaE_i}(r|i).
	Intermediates []hashx.Digest
	// RepRoot is the representation-tree root (when Canonical).
	RepRoot hashx.Digest
	// CanonDigest is the canonical-representation digest (when !Canonical).
	CanonDigest hashx.Digest
	// RepPath is the audit path for leaf Index (when !Canonical).
	RepPath []mht.PathElem
}

// proveChain builds the ChainProof that this side's key lies outside
// bound: key < bound for Up, key > bound for Down. Returns ErrNotOutside
// when the condition is false — precisely the case the scheme makes
// unforgeable.
func (dc *digitChains) proveChain(h *hashx.Hasher, cs *chainSide, bound uint64) (ChainProof, error) {
	p := dc.p
	dt, err := p.deltaT(dc.key, dc.dir)
	if err != nil {
		return ChainProof{}, err
	}
	dcBound, err := p.deltaC(bound, dc.dir)
	if err != nil {
		return ChainProof{}, err
	}
	if dt < dcBound {
		return ChainProof{}, fmt.Errorf("%w: key %d vs bound %d (%s)", ErrNotOutside, dc.key, bound, dc.dir)
	}
	sel, err := basep.Select(p.BP, dt, dcBound)
	if err != nil {
		return ChainProof{}, err
	}
	inter := make([]hashx.Digest, p.BP.Digits)
	for j, e := range sel.DeltaE {
		inter[j] = dc.tip(j, e)
	}
	if sel.Canonical {
		return ChainProof{
			Canonical:     true,
			Index:         -1,
			Intermediates: inter,
			RepRoot:       cs.repTree.Root(),
		}, nil
	}
	return ChainProof{
		Canonical:     false,
		Index:         sel.Index,
		Intermediates: inter,
		CanonDigest:   cs.canonDig,
		RepPath:       cs.repTree.Path(sel.Index),
	}, nil
}

// repTreeDepth returns the audit-path length of the m-leaf representation
// tree (padded to a power of two).
func repTreeDepth(m int) int {
	d := 0
	for w := 1; w < m; w <<= 1 {
		d++
	}
	return d
}

// verifyChain reconstructs the per-direction combined digest implied by a
// ChainProof and a query bound. It does NOT decide validity by itself: the
// caller folds the result into g(r) and checks the signature chain. An
// error reports a structurally malformed proof.
func verifyChain(h *hashx.Hasher, p Params, proof ChainProof, dir Direction, bound uint64) (hashx.Digest, error) {
	dcBound, err := p.deltaC(bound, dir)
	if err != nil {
		return nil, err
	}
	exps, err := basep.UserExponents(p.BP, dcBound)
	if err != nil {
		return nil, err
	}
	if len(proof.Intermediates) != p.BP.Digits {
		return nil, fmt.Errorf("%w: %d intermediates, want %d", ErrProofShape, len(proof.Intermediates), p.BP.Digits)
	}
	var stack [tipBufSize]byte
	tips := stack[:0]
	for j, d := range proof.Intermediates {
		if len(d) != h.Size() {
			return nil, fmt.Errorf("%w: intermediate %d has width %d", ErrProofShape, j, len(d))
		}
		tips = h.AppendIterateFrom(tips, d, exps[j])
	}
	repDig := h.Hash(tips)
	m := p.BP.M()
	if proof.Canonical {
		if len(proof.RepRoot) != h.Size() {
			return nil, fmt.Errorf("%w: bad rep root width", ErrProofShape)
		}
		return combineChain(h, repDig, proof.RepRoot), nil
	}
	if proof.Index < 0 || proof.Index >= m {
		return nil, fmt.Errorf("%w: representation index %d out of [0,%d)", ErrProofShape, proof.Index, m)
	}
	if len(proof.RepPath) != repTreeDepth(m) {
		return nil, fmt.Errorf("%w: rep path length %d, want %d", ErrProofShape, len(proof.RepPath), repTreeDepth(m))
	}
	if len(proof.CanonDigest) != h.Size() {
		return nil, fmt.Errorf("%w: bad canonical digest width", ErrProofShape)
	}
	// Check the audit path is consistent with the claimed leaf index so a
	// publisher cannot place the reconstructed digest at a different leaf.
	idx := proof.Index
	for _, e := range proof.RepPath {
		wantRight := idx%2 == 0
		if e.Right != wantRight {
			return nil, fmt.Errorf("%w: rep path direction mismatch", ErrProofShape)
		}
		idx /= 2
	}
	root := mht.RootFromPath(h, repDig, proof.RepPath)
	return combineChain(h, proof.CanonDigest, root), nil
}

// Size returns the number of digests carried by the proof; the traffic
// accounting unit of formula (4).
func (cp ChainProof) Size() int {
	n := len(cp.Intermediates)
	if cp.Canonical {
		return n + 1 // + rep root
	}
	return n + 1 + len(cp.RepPath) // + canonical digest + audit path
}
