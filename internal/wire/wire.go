// Package wire provides serialization and the HTTP transport of the
// data-publishing deployment (Figure 3): the owner ships gob-encoded
// signed relations to publishers; publishers answer gob-encoded queries
// over HTTP, materialized results in gob and streamed ones as frames of
// one binary codec (codec.go); users verify client-side with the owner's
// public key. Nothing in the
// transport is trusted — all integrity comes from the verification
// objects.
package wire

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/big"
	"net/http"
	"os"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/delta"
	"vcqr/internal/engine"
	"vcqr/internal/partition"
	"vcqr/internal/relation"
)

// Snapshot is the on-disk publication format vcsign writes and vcserve
// loads: either a plain signed relation or a partitioned set. The
// encoding is a short magic prefix followed by gob, so pre-partitioning
// snapshot files (bare gob relations) remain loadable via the fallback
// in DecodeSnapshot.
type Snapshot struct {
	Relation  *core.SignedRelation
	Partition *partition.Set
}

// snapMagic prefixes Snapshot encodings; bare-relation files (the
// pre-partitioning format) lack it.
var snapMagic = []byte("vcqr-snapshot-1\n")

// EncodeSnapshot serializes a publication snapshot.
func EncodeSnapshot(snap *Snapshot) ([]byte, error) {
	var buf bytes.Buffer
	buf.Write(snapMagic)
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		return nil, fmt.Errorf("wire: encode snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeSnapshot deserializes a publication snapshot, transparently
// accepting the legacy bare-relation format. Publishers must still
// validate the contents against the owner's public key.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	if !bytes.HasPrefix(data, snapMagic) {
		sr, err := DecodeRelation(data)
		if err != nil {
			return nil, err
		}
		return &Snapshot{Relation: sr}, nil
	}
	var snap Snapshot
	if err := gob.NewDecoder(bytes.NewReader(data[len(snapMagic):])).Decode(&snap); err != nil {
		return nil, fmt.Errorf("wire: decode snapshot: %w", err)
	}
	return &snap, nil
}

// ClientParams is everything a user needs from the owner over an
// authenticated channel to verify results: the public key, the domain
// parameters, the schema, and the role definitions (so the user can check
// query rewrites against their own rights).
type ClientParams struct {
	N      *big.Int
	E      int
	Params core.Params
	Schema relation.Schema
	Roles  map[string]accessctl.Role
	// Partition is the shard layout when the publication is
	// range-partitioned, nil otherwise. It is advisory for soundness (the
	// signature chain alone proves completeness) but lets stream clients
	// run the fail-fast shard hand-off checks of
	// verify.ShardStreamVerifier.
	Partition *partition.Spec
}

// WriteClientParams writes the parameters file the owner distributes.
func WriteClientParams(path string, cp ClientParams) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("wire: write params: %w", err)
	}
	if err := gob.NewEncoder(f).Encode(cp); err != nil {
		f.Close()
		return fmt.Errorf("wire: encode params: %w", err)
	}
	return f.Close()
}

// ReadClientParams loads a parameters file.
func ReadClientParams(path string) (ClientParams, error) {
	f, err := os.Open(path)
	if err != nil {
		return ClientParams{}, fmt.Errorf("wire: read params: %w", err)
	}
	defer f.Close()
	var cp ClientParams
	if err := gob.NewDecoder(f).Decode(&cp); err != nil {
		return ClientParams{}, fmt.Errorf("wire: decode params: %w", err)
	}
	return cp, nil
}

// EncodeRelation serializes a signed relation for distribution.
func EncodeRelation(sr *core.SignedRelation) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(sr); err != nil {
		return nil, fmt.Errorf("wire: encode relation: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeRelation deserializes a signed relation. Publishers must still
// Validate it against the owner's public key.
func DecodeRelation(data []byte) (*core.SignedRelation, error) {
	var sr core.SignedRelation
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&sr); err != nil {
		return nil, fmt.Errorf("wire: decode relation: %w", err)
	}
	return &sr, nil
}

// Request is a query addressed to a publisher.
type Request struct {
	Role  string
	Query engine.Query
}

// Response wraps either a result or a publisher-side error message.
type Response struct {
	Result *engine.Result
	Err    string
}

// BatchRequest carries several queries for one role in a single round
// trip — amortizing transport and letting the publisher serve all of
// them from one epoch snapshot.
type BatchRequest struct {
	Role    string
	Queries []engine.Query
}

// BatchResponse returns one Response per query, in order. Individual
// failures do not fail the batch.
type BatchResponse struct {
	Items []Response
}

// DeltaResponse acknowledges a delta ingest with the publisher's new
// epoch, or reports why the batch was rejected (validation failures
// leave the published epoch untouched).
type DeltaResponse struct {
	Epoch uint64
	Err   string
}

// EncodeDelta serializes an owner update batch for the ingest endpoint.
func EncodeDelta(d delta.Delta) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(d); err != nil {
		return nil, fmt.Errorf("wire: encode delta: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeDelta deserializes an update batch. Publishers must still apply
// it through delta.Apply, which validates against the owner's key.
func DecodeDelta(data []byte) (delta.Delta, error) {
	var d delta.Delta
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&d); err != nil {
		return delta.Delta{}, fmt.Errorf("wire: decode delta: %w", err)
	}
	return d, nil
}

// EncodeResult and DecodeResult serialize publisher responses.
func EncodeResult(res *engine.Result) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(Response{Result: res}); err != nil {
		return nil, fmt.Errorf("wire: encode result: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeResult deserializes a publisher response.
func DecodeResult(data []byte) (*engine.Result, error) {
	var resp Response
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&resp); err != nil {
		return nil, fmt.Errorf("wire: decode result: %w", err)
	}
	if resp.Err != "" {
		return nil, fmt.Errorf("wire: publisher error: %s", resp.Err)
	}
	return resp.Result, nil
}

// QueryHandler returns the POST /query endpoint over any query executor
// (engine.Publisher.Execute, server.Server.Query) — one implementation
// of the wire protocol shared by every front end.
func QueryHandler(exec func(role string, q engine.Query) (*engine.Result, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req Request
		if err := gob.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), BodyStatus(err))
			return
		}
		var resp Response
		res, err := exec(req.Role, req.Query)
		if err != nil {
			resp.Err = err.Error()
		} else {
			resp.Result = res
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		if err := gob.NewEncoder(w).Encode(resp); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
}

// Handler returns an http.Handler exposing a bare publisher at POST
// /query. internal/server composes QueryHandler with caching, epochs and
// more endpoints; this minimal form remains for embedding a publisher
// without the serving layer.
func Handler(pub *engine.Publisher) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/query", QueryHandler(pub.Execute))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// Client queries a remote publisher.
type Client struct {
	BaseURL string
	HTTP    *http.Client

	// Trace, when non-empty, stamps outgoing streaming requests with a
	// caller-chosen trace ID; empty lets the server mint one. Timing asks
	// streaming servers for the advisory per-stage timing trailer
	// (surfaced in StreamStats). Both are optional wire fields old
	// servers ignore.
	Trace  string
	Timing bool
}

// Query sends a request and decodes the response. The result is NOT
// verified; callers pass it to verify.Verifier.
func (c *Client) Query(role string, q engine.Query) (*engine.Result, error) {
	httpc := c.HTTP
	if httpc == nil {
		httpc = http.DefaultClient
	}
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(Request{Role: role, Query: q}); err != nil {
		return nil, fmt.Errorf("wire: encode request: %w", err)
	}
	resp, err := httpc.Post(c.BaseURL+"/query", "application/octet-stream", &body)
	if err != nil {
		return nil, fmt.Errorf("wire: post: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("wire: publisher returned %s", resp.Status)
	}
	var out Response
	if err := gob.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("wire: decode response: %w", err)
	}
	if out.Err != "" {
		return nil, fmt.Errorf("wire: publisher error: %s", out.Err)
	}
	return out.Result, nil
}

// QueryBatch sends several queries in one round trip. It returns one
// result or error per query; the returned error covers transport-level
// failures only.
func (c *Client) QueryBatch(role string, qs []engine.Query) ([]*engine.Result, []error, error) {
	httpc := c.HTTP
	if httpc == nil {
		httpc = http.DefaultClient
	}
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(BatchRequest{Role: role, Queries: qs}); err != nil {
		return nil, nil, fmt.Errorf("wire: encode batch: %w", err)
	}
	resp, err := httpc.Post(c.BaseURL+"/batch", "application/octet-stream", &body)
	if err != nil {
		return nil, nil, fmt.Errorf("wire: post batch: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("wire: publisher returned %s", resp.Status)
	}
	var out BatchResponse
	if err := gob.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, nil, fmt.Errorf("wire: decode batch response: %w", err)
	}
	if len(out.Items) != len(qs) {
		return nil, nil, fmt.Errorf("wire: %d batch items for %d queries", len(out.Items), len(qs))
	}
	results := make([]*engine.Result, len(qs))
	errs := make([]error, len(qs))
	for i, item := range out.Items {
		if item.Err != "" {
			errs[i] = fmt.Errorf("wire: publisher error: %s", item.Err)
			continue
		}
		results[i] = item.Result
	}
	return results, errs, nil
}

// SendDelta pushes an owner update batch to the publisher's ingest
// endpoint and returns the publisher's new epoch.
func (c *Client) SendDelta(d delta.Delta) (uint64, error) {
	httpc := c.HTTP
	if httpc == nil {
		httpc = http.DefaultClient
	}
	blob, err := EncodeDelta(d)
	if err != nil {
		return 0, err
	}
	resp, err := httpc.Post(c.BaseURL+"/delta", "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		return 0, fmt.Errorf("wire: post delta: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("wire: publisher returned %s", resp.Status)
	}
	var out DeltaResponse
	if err := gob.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, fmt.Errorf("wire: decode delta response: %w", err)
	}
	if out.Err != "" {
		return 0, fmt.Errorf("wire: publisher rejected delta: %s", out.Err)
	}
	return out.Epoch, nil
}
