package wire

import (
	"errors"
	"fmt"
	"net/http"
)

// Request body caps shared by every HTTP front end: the single-process
// server, shard nodes, the coordinator and cache peers. Queries and streams are small
// by construction and batches bounded; a delta batch (or a shard
// transfer) legitimately carries signed records but is still bounded —
// anything larger should ship as a snapshot, not a delta.
const (
	MaxQueryBody = 1 << 20
	MaxBatchBody = 8 << 20
	MaxDeltaBody = 256 << 20
	// MaxCacheBody is one cache-protocol frame at the frame cap.
	MaxCacheBody = 4 + MaxChunkFrame
)

// CapBody bounds an untrusted request body so one client cannot buffer a
// process into OOM. A body that declares a length past the cap is refused
// with 413 before any of it is read; one that only turns out too long
// fails its decode, which the handler answers with BodyStatus.
func CapBody(limit int64, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.ContentLength > limit {
			http.Error(w, fmt.Sprintf("request body of %d bytes exceeds the %d-byte cap", r.ContentLength, limit),
				http.StatusRequestEntityTooLarge)
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, limit)
		next.ServeHTTP(w, r)
	})
}

// BodyStatus is the honest status for a request body that failed to
// decode: 413 when it outgrew its CapBody limit, 400 otherwise.
func BodyStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}
