package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"strings"

	"vcqr/internal/hashx"
)

// This file is the edge-cache half of the wire protocol
// (internal/cache): memcached-shaped get/put/invalidate/stats operations
// carried as frames of the shared codec (codec.go) over a single POST
// endpoint, under the same size cap as the chunk streams. A cache peer
// is deliberately outside the trust model — it stores opaque bytes the
// coordinator handed it and returns them verbatim; anything it garbles
// or forges dies on the client's entry digest compare, the coordinator's
// seam checks, or ultimately the user's unmodified stream verifier.

// CacheGet asks a peer for one entry by its full key.
type CacheGet struct {
	Key string
}

// CachePut stores one entry. Relation/Shard/Epoch place the entry in its
// invalidation group (Shard < 0 groups whole merged streams); Sum is the
// filler's digest over Bytes, stored and echoed so a reader can detect a
// corrupted or lazily tampered entry without trusting the peer.
type CachePut struct {
	Key      string
	Relation string
	Shard    int
	Epoch    uint64
	Sum      hashx.Digest
	Bytes    []byte
}

// CacheInvalidate drops entries. With Key set, exactly that entry; with
// Keep > 0, every entry of the (Relation, Shard) group whose epoch is
// not Keep; with Keep == 0, the whole group.
type CacheInvalidate struct {
	Relation string
	Shard    int
	Keep     uint64
	Key      string
}

// CacheFrame is one cache-protocol request: exactly one operation set.
type CacheFrame struct {
	Get        *CacheGet
	Put        *CachePut
	Invalidate *CacheInvalidate
	Stats      bool
}

// CacheStats is a peer's counter snapshot.
type CacheStats struct {
	Entries       int
	Bytes, Budget int64
	Hits, Misses  uint64
	Puts          uint64
	Evictions     uint64
	Invalidations uint64
}

// CacheReply answers one cache-protocol request.
type CacheReply struct {
	// Hit, Sum, Bytes answer a Get.
	Hit   bool
	Sum   hashx.Digest
	Bytes []byte
	// Dropped answers an Invalidate.
	Dropped int
	// Stats answers a Stats request.
	Stats *CacheStats
	Err   string
}

// WriteCacheFrame writes one cache request frame.
func WriteCacheFrame(w io.Writer, f *CacheFrame) error {
	if !exactlyOne(f.Get != nil, f.Put != nil, f.Invalidate != nil, f.Stats) {
		return fmt.Errorf("wire: cache frame must set exactly one operation")
	}
	switch {
	case f.Get != nil:
		return sendFrame(w, tagCacheGet, func(b []byte) []byte { return appendString(b, f.Get.Key) })
	case f.Put != nil:
		p := f.Put
		return sendFrame(w, tagCachePut, func(b []byte) []byte {
			b = appendString(b, p.Key)
			b = appendString(b, p.Relation)
			b = appendInt(b, p.Shard)
			b = binary.AppendUvarint(b, p.Epoch)
			b = appendBytes(b, p.Sum)
			return appendBytes(b, p.Bytes)
		})
	case f.Invalidate != nil:
		iv := f.Invalidate
		return sendFrame(w, tagCacheInvalidate, func(b []byte) []byte {
			b = appendString(b, iv.Relation)
			b = appendInt(b, iv.Shard)
			b = binary.AppendUvarint(b, iv.Keep)
			return appendString(b, iv.Key)
		})
	}
	return sendFrame(w, tagCacheStats, func(b []byte) []byte { return b })
}

// ReadCacheFrame reads one cache request frame.
func ReadCacheFrame(r io.Reader) (*CacheFrame, error) {
	d, tag, err := recvFrame(r)
	if err != nil {
		return nil, err
	}
	var f CacheFrame
	switch tag {
	case tagCacheGet:
		f.Get = &CacheGet{Key: d.str()}
	case tagCachePut:
		f.Put = &CachePut{
			Key:      d.str(),
			Relation: d.str(),
			Shard:    d.int(),
			Epoch:    d.uvarint(),
			Sum:      d.bytes(),
			Bytes:    d.bytes(),
		}
	case tagCacheInvalidate:
		f.Invalidate = &CacheInvalidate{
			Relation: d.str(),
			Shard:    d.int(),
			Keep:     d.uvarint(),
			Key:      d.str(),
		}
	case tagCacheStats:
		f.Stats = true
	default:
		d.fail()
	}
	if err := d.done(); err != nil {
		return nil, fmt.Errorf("wire: decode cache frame: %w", err)
	}
	return &f, nil
}

// Reply flag bits: which optional parts a reply carries.
const (
	cacheReplyHit   = 1
	cacheReplyStats = 2
)

// WriteCacheReply writes one cache reply frame.
func WriteCacheReply(w io.Writer, rp *CacheReply) error {
	return sendFrame(w, tagCacheReply, func(b []byte) []byte {
		var flags byte
		if rp.Hit {
			flags |= cacheReplyHit
		}
		if rp.Stats != nil {
			flags |= cacheReplyStats
		}
		b = append(b, flags)
		b = appendBytes(b, rp.Sum)
		b = appendBytes(b, rp.Bytes)
		b = appendInt(b, rp.Dropped)
		if s := rp.Stats; s != nil {
			b = appendInt(b, s.Entries)
			b = binary.AppendVarint(b, s.Bytes)
			b = binary.AppendVarint(b, s.Budget)
			b = binary.AppendUvarint(b, s.Hits)
			b = binary.AppendUvarint(b, s.Misses)
			b = binary.AppendUvarint(b, s.Puts)
			b = binary.AppendUvarint(b, s.Evictions)
			b = binary.AppendUvarint(b, s.Invalidations)
		}
		return appendString(b, rp.Err)
	})
}

// ReadCacheReply reads one cache reply frame.
func ReadCacheReply(r io.Reader) (*CacheReply, error) {
	d, err := recvTagged(r, tagCacheReply)
	if err != nil {
		return nil, err
	}
	flags := d.byte()
	if flags&^(cacheReplyHit|cacheReplyStats) != 0 {
		d.fail()
	}
	rp := &CacheReply{
		Hit:     flags&cacheReplyHit != 0,
		Sum:     d.bytes(),
		Bytes:   d.bytes(),
		Dropped: d.int(),
	}
	if flags&cacheReplyStats != 0 {
		rp.Stats = &CacheStats{
			Entries:       d.int(),
			Bytes:         d.varint(),
			Budget:        d.varint(),
			Hits:          d.uvarint(),
			Misses:        d.uvarint(),
			Puts:          d.uvarint(),
			Evictions:     d.uvarint(),
			Invalidations: d.uvarint(),
		}
	}
	rp.Err = d.str()
	if err := d.done(); err != nil {
		return nil, fmt.Errorf("wire: decode cache reply: %w", err)
	}
	return rp, nil
}

// CacheOp posts one cache request frame to a peer's /cache endpoint and
// reads the reply frame.
func (c *Client) CacheOp(f *CacheFrame) (*CacheReply, error) {
	httpc := c.HTTP
	if httpc == nil {
		httpc = http.DefaultClient
	}
	var body bytes.Buffer
	if err := WriteCacheFrame(&body, f); err != nil {
		return nil, err
	}
	resp, err := httpc.Post(c.BaseURL+"/cache", "application/octet-stream", &body)
	if err != nil {
		return nil, fmt.Errorf("wire: post cache op: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return nil, fmt.Errorf("wire: cache peer returned %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	rp, err := ReadCacheReply(resp.Body)
	if err != nil {
		return nil, err
	}
	if rp.Err != "" {
		return rp, fmt.Errorf("wire: cache peer error: %s", rp.Err)
	}
	return rp, nil
}
