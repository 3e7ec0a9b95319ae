// Package hashx provides the one-way hash substrate for the completeness
// verification scheme: a configurable-width collision-resistant hash, the
// iterated hash h^i used for the boundary chains of Pang et al. (SIGMOD
// 2005), domain-separated convenience helpers, and an operation counter so
// experiments can report costs in units of Chash (Table 1 of the paper).
//
// The paper requires the iterated hash to satisfy two properties:
//
//  1. h^i is undefined (computationally infeasible) for i < 0. We guarantee
//     h^{-1}(r) != r by making the digest length differ from the pre-image
//     length and by domain-separating the first application (tag hashFirst)
//     from subsequent ones (tag hashIter).
//  2. h is one-way, so intermediate digests do not leak the boundary key.
//
// SHA-256 provides both; digests are truncated to Size bytes (default 16,
// matching the paper's Mdigest = 128 bits so that byte counts reproduce
// formula (4)).
package hashx

import (
	"crypto/sha256"
	"encoding/binary"
	"sync/atomic"
)

// DefaultSize is the default digest width in bytes. 16 bytes = 128 bits,
// the Mdigest value used throughout the paper's cost analysis.
const DefaultSize = 16

// MaxSize is the widest digest supported (full SHA-256 output).
const MaxSize = sha256.Size

// Domain-separation tags. Every hash application is prefixed by exactly one
// tag, so digests from different roles can never collide structurally.
const (
	tagFirst byte = 0x01 // first application of the iterated hash, h^0
	tagIter  byte = 0x02 // subsequent applications, h^{i+1} = h(h^i)
	tagLeaf  byte = 0x03 // Merkle tree leaf
	tagNode  byte = 0x04 // Merkle tree interior node
	tagG     byte = 0x05 // record digest g(r), formula (3)
	tagSig   byte = 0x06 // pre-signature digest, formula (1)
	tagMisc  byte = 0x07 // application-defined digests
)

// Digest is a truncated SHA-256 digest. The slice is always exactly the
// Hasher's Size() bytes long.
type Digest []byte

// Clone returns an independent copy of d.
func (d Digest) Clone() Digest {
	out := make(Digest, len(d))
	copy(out, d)
	return out
}

// Equal reports whether two digests are byte-wise identical.
func (d Digest) Equal(o Digest) bool {
	if len(d) != len(o) {
		return false
	}
	for i := range d {
		if d[i] != o[i] {
			return false
		}
	}
	return true
}

// Hasher computes tagged, truncated SHA-256 digests and counts how many
// primitive hash operations it has performed. All methods are safe for
// concurrent use; the counter is atomic. A data-parallel pass gives each
// worker its own Fork, so workers never contend on one counter, and
// Joins the forks back when it completes.
//
// The zero value is not usable; construct with New or NewSize.
type Hasher struct {
	size int
	ops  atomic.Uint64
}

// New returns a Hasher producing DefaultSize-byte digests.
func New() *Hasher { return NewSize(DefaultSize) }

// NewSize returns a Hasher producing size-byte digests. size is clamped to
// [8, MaxSize]: fewer than 8 bytes would be trivially forgeable, more than
// 32 exceeds SHA-256 output.
func NewSize(size int) *Hasher {
	if size < 8 {
		size = 8
	}
	if size > MaxSize {
		size = MaxSize
	}
	return &Hasher{size: size}
}

// Size returns the digest width in bytes.
func (h *Hasher) Size() int { return h.size }

// Ops returns the number of primitive hash operations performed so far.
// Experiments use this to report costs in units of Chash.
func (h *Hasher) Ops() uint64 { return h.ops.Load() }

// ResetOps zeroes the operation counter.
func (h *Hasher) ResetOps() { h.ops.Store(0) }

// Fork returns a Hasher producing the same digests with its own, zeroed
// operation counter: the per-worker hasher of a data-parallel pass.
func (h *Hasher) Fork() *Hasher { return &Hasher{size: h.size} }

// Join moves w's operation count into h, leaving w at zero, so the
// parent's Ops total covers the work its forks did.
func (h *Hasher) Join(w *Hasher) { h.ops.Add(w.ops.Swap(0)) }

// bufSize is the stack buffer a hash input tag||parts is assembled in.
// Every fixed-shape digest input of the scheme fits; long attribute
// values and a representation's concatenated chain tips stream through
// a sha256 state instead.
const bufSize = 256

// sum is the single primitive: SHA-256 over tag||parts into out, one
// counted operation, no heap allocation.
func (h *Hasher) sum(out *[MaxSize]byte, tag byte, parts ...[]byte) {
	h.ops.Add(1)
	n := 1
	for _, p := range parts {
		n += len(p)
	}
	if n > bufSize {
		// The concrete state behind sha256.New stays on the stack.
		st := sha256.New()
		st.Write([]byte{tag})
		for _, p := range parts {
			st.Write(p)
		}
		st.Sum(out[:0])
		return
	}
	var buf [bufSize]byte
	buf[0] = tag
	off := 1
	for _, p := range parts {
		off += copy(buf[off:], p)
	}
	*out = sha256.Sum256(buf[:n])
}

// hash returns sum's output truncated to Size() bytes as a fresh Digest.
func (h *Hasher) hash(tag byte, parts ...[]byte) Digest {
	var out [MaxSize]byte
	h.sum(&out, tag, parts...)
	return append(make(Digest, 0, h.size), out[:h.size]...)
}

// Hash computes a general-purpose digest over the concatenation of parts.
func (h *Hasher) Hash(parts ...[]byte) Digest { return h.hash(tagMisc, parts...) }

// Leaf computes a Merkle-tree leaf digest.
func (h *Hasher) Leaf(data []byte) Digest { return h.hash(tagLeaf, data) }

// Node computes a Merkle-tree interior-node digest from two children.
func (h *Hasher) Node(left, right Digest) Digest { return h.hash(tagNode, left, right) }

// GDigest computes the record digest g(r) from its components (formula (3)
// of the paper, with the concatenation hashed down to a fixed width).
func (h *Hasher) GDigest(parts ...[]byte) Digest { return h.hash(tagG, parts...) }

// SigDigest computes the digest that is signed for a record: the hash of
// g(r_{i-1}) | g(r_i) | g(r_{i+1}) per formula (1).
func (h *Hasher) SigDigest(prev, cur, next Digest) Digest {
	return h.hash(tagSig, prev, cur, next)
}

// First computes h^0(m): the first application of the iterated hash.
// Domain separation (tagFirst vs tagIter) plus the width difference between
// pre-image and digest guarantee the chain cannot be run backwards into the
// pre-image space.
func (h *Hasher) First(m []byte) Digest { return h.hash(tagFirst, m) }

// Next computes one further iteration: h^{i+1}(m) = h(h^i(m)).
func (h *Hasher) Next(d Digest) Digest { return h.hash(tagIter, d) }

// Iterate computes h^i(m): First(m) followed by i applications of Next.
// The count is unsigned: the scheme's security rests on h^i being
// undefined for negative i, so there is no way to ask for one.
func (h *Hasher) Iterate(m []byte, i uint64) Digest {
	return h.AppendIterate(make(Digest, 0, h.size), m, i)
}

// IterateFrom applies Next i times to an existing chain digest. This is the
// user-side operation of the scheme: hash the publisher's intermediate
// digest (U - alpha) more times. IterateFrom(d, 0) is d itself.
func (h *Hasher) IterateFrom(d Digest, i uint64) Digest {
	if i == 0 {
		return d
	}
	return h.AppendIterateFrom(make(Digest, 0, h.size), d, i)
}

// AppendIterate appends h^i(m) to dst and returns the extended slice:
// Iterate without a Digest of its own, so a caller can lay a whole
// representation's chain tips out in one buffer and hash it once.
func (h *Hasher) AppendIterate(dst, m []byte, i uint64) []byte {
	return h.chain(dst, tagFirst, m, i)
}

// AppendIterateFrom appends IterateFrom(d, i) to dst and returns the
// extended slice.
func (h *Hasher) AppendIterateFrom(dst, d []byte, i uint64) []byte {
	if i == 0 {
		return append(dst, d...)
	}
	return h.chain(dst, tagIter, d, i-1)
}

// chain appends the digest of tag||m followed by n applications of Next.
// The whole chain runs in one fixed buffer and counts its 1+n operations
// with a single add (an m wider than the buffer, which no caller in the
// scheme passes, takes the general path for its first hash).
func (h *Hasher) chain(dst []byte, tag byte, m []byte, n uint64) []byte {
	var sum [MaxSize]byte
	var buf [1 + MaxSize]byte
	if len(m) <= MaxSize {
		h.ops.Add(1 + n)
		buf[0] = tag
		sum = sha256.Sum256(buf[:1+copy(buf[1:], m)])
	} else {
		h.sum(&sum, tag, m)
		h.ops.Add(n)
	}
	buf[0] = tagIter
	for ; n > 0; n-- {
		copy(buf[1:], sum[:h.size])
		sum = sha256.Sum256(buf[:1+h.size])
	}
	return append(dst, sum[:h.size]...)
}

// U64 encodes v as 8 big-endian bytes; the canonical pre-image encoding for
// key values throughout the scheme.
func U64(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

// U64Pair encodes two values, used for the (key, digit-index) pre-images
// r|j of the base-B optimization (Section 5.1).
func U64Pair(a, b uint64) []byte {
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], a)
	binary.BigEndian.PutUint64(buf[8:], b)
	return buf[:]
}
