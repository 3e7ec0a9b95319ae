// Package verify is the user side of the data-publishing model (Figure
// 3): given the owner's public key and domain parameters (obtained over an
// authenticated channel) it checks a publisher's result against its
// verification object and either returns the verified rows or an error
// naming what failed.
//
// The checks implement the completeness analysis of Section 3.2 plus the
// precision requirement of Section 3: every covered record reconstructs a
// g digest, the signature chain binds consecutive digests, the boundary
// proofs place the adjacent records strictly outside the rewritten range,
// and nothing beyond the query's projection is accepted as disclosed.
package verify

import (
	"errors"
	"fmt"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/obs"
	"vcqr/internal/relation"
	"vcqr/internal/sig"
)

// Verification failures. All of them mean "reject the result".
var (
	ErrRewriteMismatch  = errors.New("verify: effective query does not match the expected rewrite")
	ErrBoundary         = errors.New("verify: boundary proof invalid")
	ErrEntry            = errors.New("verify: entry malformed")
	ErrKeyOutOfRange    = errors.New("verify: entry key outside effective range")
	ErrKeyOrder         = errors.New("verify: entry keys out of order")
	ErrFilterViolation  = errors.New("verify: result entry fails the query filters")
	ErrFilteredMatches  = errors.New("verify: filtered entry actually satisfies the query")
	ErrPrecision        = errors.New("verify: disclosure does not match the projection")
	ErrHiddenNotAllowed = errors.New("verify: hidden entry without a record-level policy")
	ErrVisibility       = errors.New("verify: hidden entry visibility disclosure invalid")
	ErrSignature        = errors.New("verify: signature check failed")
	ErrDistinct         = errors.New("verify: duplicate elision without DISTINCT")
)

// Verifier holds the user's trusted inputs: the owner's public key, the
// domain parameters, and the relation schema.
type Verifier struct {
	H      *hashx.Hasher
	Pub    *sig.PublicKey
	Params core.Params
	Schema relation.Schema

	// Obs, when set, receives the verifier-side cost (obs.StageVerify,
	// one observation per consumed chunk) — the live measurement of the
	// paper's client overhead claim. It never affects what is accepted.
	Obs *obs.Registry
}

// New constructs a verifier.
func New(h *hashx.Hasher, pub *sig.PublicKey, p core.Params, schema relation.Schema) *Verifier {
	return &Verifier{H: h, Pub: pub, Params: p, Schema: schema}
}

// VerifyResult checks a publisher result against the query the user
// issued and the user's knowledge of their own rights (role). On success
// it returns the verified result rows in key order.
//
// It is a thin drain over the incremental StreamVerifier: the result is
// sliced back into its chunk sequence and consumed in order, so the
// materialized and streaming verification paths enforce exactly the same
// checks.
func (v *Verifier) VerifyResult(q engine.Query, role accessctl.Role, res *engine.Result) ([]engine.Row, error) {
	sv := v.NewStreamVerifier(q, role)
	rows := make([]engine.Row, 0, len(res.VO.Entries))
	for _, c := range engine.ChunkResult(res, engine.DefaultChunkRows) {
		released, err := sv.Consume(c)
		if err != nil {
			return nil, err
		}
		rows = append(rows, released...)
	}
	if err := sv.Finish(); err != nil {
		return nil, err
	}
	return rows, nil
}

// checkRewrite recomputes the rewrite the publisher should have performed
// and compares. A publisher that silently narrows (hiding records) or
// widens (leaking records) the range is caught here; a lying *rewrite*
// combined with a consistent VO would still verify structurally, which is
// why the user must know their own rights — exactly the paper's trust
// model, where rewriting is mandated by the owner's policy.
func (v *Verifier) checkRewrite(q engine.Query, role accessctl.Role, eff engine.Query) error {
	lo, hi := q.KeyLo, q.KeyHi
	if lo <= v.Params.L {
		lo = v.Params.L + 1
	}
	if hi == 0 || hi >= v.Params.U {
		hi = v.Params.U - 1
	}
	lo, hi, ok := role.ClampRange(lo, hi)
	if !ok {
		return fmt.Errorf("%w: rewrite empties the range", ErrRewriteMismatch)
	}
	if eff.KeyLo != lo || eff.KeyHi != hi {
		return fmt.Errorf("%w: expected [%d,%d], got [%d,%d]", ErrRewriteMismatch, lo, hi, eff.KeyLo, eff.KeyHi)
	}
	wantCols := role.FilterCols(v.Schema, q.Project)
	if !sameCols(wantCols, eff.Project) {
		return fmt.Errorf("%w: projection", ErrRewriteMismatch)
	}
	if eff.Distinct != q.Distinct || len(eff.Filters) != len(q.Filters) {
		return fmt.Errorf("%w: flags or filters", ErrRewriteMismatch)
	}
	return nil
}

func sameCols(a, b []string) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// entryG reconstructs g for one VO entry with hasher h (v.H or a
// worker's fork of it) and performs the per-entry semantic checks. It
// fills s with g, the row for EntryResult entries, and the key when the
// entry discloses one.
func (v *Verifier) entryG(h *hashx.Hasher, eff engine.Query, role accessctl.Role, e engine.VOEntry, s *entrySlot) error {
	nLeaves := len(v.Schema.Cols) + 1
	switch e.Mode {
	case engine.EntryResult, engine.EntryFilteredVisible:
		tuple, disclosed, err := v.openDisclosure(e)
		if err != nil {
			return err
		}
		if e.Mode == engine.EntryResult {
			if err := v.checkResultDisclosure(eff, e); err != nil {
				return err
			}
			if !passesDisclosed(v.Schema, eff, disclosed) {
				return ErrFilterViolation
			}
		} else {
			if err := v.checkFilteredDisclosure(eff, e, disclosed); err != nil {
				return err
			}
		}
		attrRoot, err := core.AttrRootFromDisclosure(h, nLeaves, tuple, hiddenMap(e, tuple, nLeaves))
		if err != nil {
			return fmt.Errorf("%w: %v", ErrEntry, err)
		}
		if s.g, err = core.EntryG(h, v.Params, e.Key, core.KindRecord, e.Chain, attrRoot); err != nil {
			return fmt.Errorf("%w: %v", ErrEntry, err)
		}
		s.key, s.hasKey = e.Key, true
		if e.Mode == engine.EntryResult {
			s.row, s.hasRow = engine.Row{Key: e.Key, Values: e.Disclosed}, true
		}
		return nil

	case engine.EntryFilteredHidden:
		if role.VisibilityCol == "" {
			return ErrHiddenNotAllowed
		}
		visCol := v.Schema.ColIndex(role.VisibilityCol)
		if visCol < 0 {
			return ErrHiddenNotAllowed
		}
		if len(e.Disclosed) != 1 || e.Disclosed[0].Col != visCol ||
			!e.Disclosed[0].Val.Equal(relation.BoolVal(false)) {
			return ErrVisibility
		}
		tuple, _, err := v.openDisclosure(e)
		if err != nil {
			return err
		}
		attrRoot, err := core.AttrRootFromDisclosure(h, nLeaves, tuple, hiddenMap(e, tuple, nLeaves))
		if err != nil {
			return fmt.Errorf("%w: %v", ErrEntry, err)
		}
		if len(e.UpCombined) != h.Size() || len(e.DownCombined) != h.Size() {
			return fmt.Errorf("%w: hidden entry chain digests", ErrEntry)
		}
		s.g = core.GFromComponents(h, core.KindRecord, e.UpCombined, e.DownCombined, attrRoot)
		return nil

	case engine.EntryElidedDup:
		if !eff.Distinct {
			return ErrDistinct
		}
		if len(e.G) != h.Size() {
			return fmt.Errorf("%w: elided dup digest", ErrEntry)
		}
		s.g = e.G
		return nil

	default:
		return fmt.Errorf("%w: unknown mode %d", ErrEntry, e.Mode)
	}
}

// openDisclosure converts an entry's disclosed attributes into the leaf
// pre-image map used for attribute-root reconstruction, rejecting
// duplicate or out-of-range columns.
func (v *Verifier) openDisclosure(e engine.VOEntry) (map[int][]byte, map[int]relation.Value, error) {
	pre := make(map[int][]byte, len(e.Disclosed))
	vals := make(map[int]relation.Value, len(e.Disclosed))
	for _, d := range e.Disclosed {
		if d.Col < 0 || d.Col >= len(v.Schema.Cols) {
			return nil, nil, fmt.Errorf("%w: disclosed column %d out of schema", ErrEntry, d.Col)
		}
		leaf := d.Col + 1
		if _, dup := pre[leaf]; dup {
			return nil, nil, fmt.Errorf("%w: column %d disclosed twice", ErrEntry, d.Col)
		}
		pre[leaf] = d.Val.Encode()
		vals[d.Col] = d.Val
	}
	return pre, vals, nil
}

// hiddenMap assigns the entry's hidden leaf digests to the leaf indexes
// not covered by the disclosure, in ascending order.
func hiddenMap(e engine.VOEntry, disclosed map[int][]byte, nLeaves int) map[int]hashx.Digest {
	hidden := make(map[int]hashx.Digest, len(e.HiddenLeaves))
	j := 0
	for i := 0; i < nLeaves && j < len(e.HiddenLeaves); i++ {
		if _, ok := disclosed[i]; ok {
			continue
		}
		hidden[i] = e.HiddenLeaves[j]
		j++
	}
	return hidden
}

// checkResultDisclosure enforces precision: a result entry must disclose
// exactly the projected columns — no more (information leak) and no less
// (unusable result).
func (v *Verifier) checkResultDisclosure(eff engine.Query, e engine.VOEntry) error {
	want := map[int]bool{}
	if eff.Project == nil {
		for i := range v.Schema.Cols {
			want[i] = true
		}
	} else {
		for _, name := range eff.Project {
			i := v.Schema.ColIndex(name)
			if i < 0 {
				return fmt.Errorf("%w: unknown projected column %q", ErrEntry, name)
			}
			want[i] = true
		}
	}
	if len(e.Disclosed) != len(want) {
		return fmt.Errorf("%w: %d disclosed, %d projected", ErrPrecision, len(e.Disclosed), len(want))
	}
	for _, d := range e.Disclosed {
		if !want[d.Col] {
			return fmt.Errorf("%w: column %d not projected", ErrPrecision, d.Col)
		}
	}
	return nil
}

// checkFilteredDisclosure validates a Case 1 entry: every filter column
// must be disclosed, and the disclosed values must fail at least one
// filter — otherwise the publisher is withholding a qualifying tuple.
func (v *Verifier) checkFilteredDisclosure(eff engine.Query, e engine.VOEntry, vals map[int]relation.Value) error {
	if len(eff.Filters) == 0 {
		return fmt.Errorf("%w: filtered entry in an unfiltered query", ErrFilteredMatches)
	}
	for _, f := range eff.Filters {
		col := v.Schema.ColIndex(f.Col)
		if _, ok := vals[col]; !ok {
			return fmt.Errorf("%w: filter column %q not disclosed", ErrEntry, f.Col)
		}
	}
	if passesDisclosed(v.Schema, eff, vals) {
		return ErrFilteredMatches
	}
	return nil
}

// passesDisclosed evaluates the query filters over disclosed values;
// missing columns count as failing (conservative: the result entry must
// disclose every filter column via the projection check or the values
// would be unusable anyway).
func passesDisclosed(schema relation.Schema, eff engine.Query, vals map[int]relation.Value) bool {
	for _, f := range eff.Filters {
		val, ok := vals[schema.ColIndex(f.Col)]
		if !ok || !f.Eval(val) {
			return false
		}
	}
	return true
}
