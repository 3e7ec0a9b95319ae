package wire

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"net/http"

	"vcqr/internal/accessctl"
	"vcqr/internal/engine"
	"vcqr/internal/obs"
	"vcqr/internal/verify"
)

// Chunk framing: each chunk of a streamed result travels as one
// self-delimiting frame of the shared codec (codec.go) — a 4-byte
// big-endian length, the codec version, the chunk tag and the chunk's
// fields. Frames are independently decodable, so a reader can
// resynchronize per frame, bound its memory by MaxChunkFrame, and hand
// chunks to the verifier the moment they arrive. Nothing in the framing
// is trusted: truncation, reordering and tampering are all caught by the
// verification layer; the frame format only needs to fail cleanly.

// WriteChunkFrame writes one length-prefixed chunk frame. The encode
// scratch buffer is pooled; nothing of the chunk is retained.
func WriteChunkFrame(w io.Writer, c *engine.Chunk) error {
	return sendFrame(w, tagChunk, func(b []byte) []byte { return appendChunk(b, c) })
}

// ReadChunkFrame reads one frame. It returns io.EOF exactly at a frame
// boundary (the clean end of a stream), ErrFrameTruncated when the
// stream dies mid-frame and ErrFrameVersion for a frame of another
// codec version. The chunk's byte fields alias the frame's own payload.
func ReadChunkFrame(r io.Reader) (*engine.Chunk, error) {
	d, err := recvTagged(r, tagChunk)
	if err != nil {
		return nil, err
	}
	c := new(engine.Chunk)
	d.chunk(c)
	if err := d.done(); err != nil {
		return nil, fmt.Errorf("wire: decode chunk: %w", err)
	}
	return c, nil
}

// StreamRequest asks a publisher to answer a query as a chunk stream.
type StreamRequest struct {
	Role  string
	Query engine.Query
	// ChunkRows bounds entries per chunk; 0 lets the publisher choose.
	ChunkRows int

	// Trace is an optional client-supplied trace ID; empty lets the
	// serving entry point mint one (internal/obs). Old servers decode
	// requests without this field untouched — gob ignores fields the
	// receiver lacks — so tracing needs no protocol version bump. Trace
	// IDs are advisory and never part of the verified material.
	Trace string
	// Timing asks the server to append an advisory engine.ChunkTiming
	// trailer after the footer carrying the per-stage latency breakdown.
	// Old servers ignore the field and send no trailer; old clients never
	// set it and so never see one.
	Timing bool
}

// WriteStream drains a result stream into w as chunk frames, flushing
// after every frame when w supports it (http.Flusher or *bufio.Writer),
// so each chunk reaches the network without waiting for the next.
// Publisher-side errors after the first frame are sent in-band as a
// ChunkError frame — the HTTP status is long gone by then.
func WriteStream(w io.Writer, st engine.ResultStream) error {
	// Merged fan-out streams hold shard feeds (producer goroutines,
	// node connections); release them if the drain aborts early (a
	// fully drained stream's Close costs nothing).
	if c, ok := st.(io.Closer); ok {
		defer c.Close()
	}
	flush := func() {}
	switch f := w.(type) {
	case http.Flusher:
		flush = f.Flush
	case *bufio.Writer:
		flush = func() { f.Flush() }
	}
	for {
		c, err := st.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			ec := &engine.Chunk{Type: engine.ChunkError, Err: err.Error()}
			if werr := WriteChunkFrame(w, ec); werr != nil {
				return werr
			}
			flush()
			return err
		}
		if err := WriteChunkFrame(w, c); err != nil {
			return err
		}
		flush()
	}
}

// StreamStats reports transport-level accounting for one streamed query.
type StreamStats struct {
	// Chunks counts frames consumed (header + entries + footer).
	Chunks int
	// Bytes counts frame payload bytes plus length prefixes.
	Bytes int64
	// Rows counts verified rows delivered to the callback.
	Rows int

	// Trace and Timing echo the server's advisory timing trailer when the
	// client requested one (Client.Timing); both stay zero otherwise.
	// Neither is verified — they are operational data for vcquery -timing
	// and friends, not evidence.
	Trace  string
	Timing []obs.StageDur
}

// countingReader tallies bytes as frames are read.
type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

// QueryStream sends a streaming query and feeds every received chunk
// through an incremental verifier, invoking fn (when non-nil) for each
// result row as the verifier releases it. It returns only after the
// stream is fully verified — a nil error means exactly what a nil error
// from Query + VerifyResult means, but the rows were delivered (and the
// publisher's memory stayed) chunk by chunk. On any verification or
// transport failure the callback stops and the error reports what broke.
//
// Note the streaming trust caveat: with condensed signatures the rows
// delivered before the footer are chain-consistent but only anchored to
// the owner's key when QueryStream returns nil. Callers that must not
// act on provisional rows should buffer until it returns.
func (c *Client) QueryStream(v *verify.Verifier, role accessctl.Role, roleName string, q engine.Query, chunkRows int, fn func(engine.Row) error) (StreamStats, error) {
	return c.QueryStreamWith(v.NewStreamVerifier(q, role), roleName, q, chunkRows, fn)
}

// QueryStreamWith is QueryStream over an explicit chunk verifier — the
// seam that lets partitioned publications plug in the shard-aware
// verifier (verify.ShardStreamVerifier) while unpartitioned clients keep
// the plain incremental one. The verifier must be fresh: it is consumed
// by this one stream.
func (c *Client) QueryStreamWith(sv verify.ChunkVerifier, roleName string, q engine.Query, chunkRows int, fn func(engine.Row) error) (StreamStats, error) {
	var stats StreamStats
	httpc := c.HTTP
	if httpc == nil {
		httpc = http.DefaultClient
	}
	var body bytes.Buffer
	req := StreamRequest{Role: roleName, Query: q, ChunkRows: chunkRows,
		Trace: c.Trace, Timing: c.Timing}
	if err := gob.NewEncoder(&body).Encode(req); err != nil {
		return stats, fmt.Errorf("wire: encode stream request: %w", err)
	}
	resp, err := httpc.Post(c.BaseURL+"/stream", "application/octet-stream", &body)
	if err != nil {
		return stats, fmt.Errorf("wire: post stream: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return stats, fmt.Errorf("wire: publisher returned %s", resp.Status)
	}

	cr := &countingReader{r: resp.Body}
	for {
		chunk, err := ReadChunkFrame(cr)
		if err == io.EOF {
			break
		}
		if err != nil {
			return stats, err
		}
		if chunk.Type == engine.ChunkTiming {
			// Advisory trailer (sent only because this client asked):
			// surface it in the stats, never feed it to the verifier — it
			// is not part of the result and the verifier would reject any
			// chunk after the footer.
			stats.Trace = chunk.Trace
			stats.Timing = chunk.Timing
			continue
		}
		stats.Chunks++
		stats.Bytes = cr.n
		rows, err := sv.Consume(chunk)
		if err != nil {
			return stats, err
		}
		for _, row := range rows {
			stats.Rows++
			if fn != nil {
				if err := fn(row); err != nil {
					return stats, err
				}
			}
		}
	}
	stats.Bytes = cr.n
	if err := sv.Finish(); err != nil {
		return stats, err
	}
	return stats, nil
}
