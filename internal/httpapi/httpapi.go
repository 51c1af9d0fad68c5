// Package httpapi is the response layer every serving role writes through:
// the one rule that maps an error to its HTTP status, the JSON and error
// replies, and the capped request-body read. Clients act on these statuses
// (a shard retries a 5xx, re-baselines on a 409 with last == 0 and stops
// on a shard conflict), so the rule lives in one place.
package httpapi

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"privmdr/internal/mech"
)

// MaxBody caps every request body: report frames, query batches, states,
// push envelopes and sealed epochs. It is large enough for million-report
// frames (≤ 13 bytes per report) yet bounded.
const MaxBody = 64 << 20

// statusError is an error marked with the status it answers with and, for
// a push verdict, the code the push reply carries.
type statusError struct {
	err    error
	status int
	code   string
}

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

// Mark wraps err, keeping its message, so that Status answers it with
// status.
func Mark(err error, status int) error { return &statusError{err: err, status: status} }

// Sentinel returns a new error with message msg, answered with status. A
// non-empty code is the machine-readable verdict a reply carries for it
// (Code).
func Sentinel(msg string, status int, code string) error {
	return &statusError{err: errors.New(msg), status: status, code: code}
}

// Status is the HTTP status err answers with: 413 if a request body passed
// its cap; else the status of the outermost marked error in err's chain;
// else 409 for a request that conflicts with the collector's lifecycle or
// deployment (mech.ErrFinalized, mech.ErrStateMismatch); else 400.
func Status(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	var marked *statusError
	if errors.As(err, &marked) {
		return marked.status
	}
	if errors.Is(err, mech.ErrFinalized) || errors.Is(err, mech.ErrStateMismatch) {
		return http.StatusConflict
	}
	return http.StatusBadRequest
}

// Code is the code of the outermost marked error in err's chain, "" if it
// has none.
func Code(err error) string {
	var marked *statusError
	if errors.As(err, &marked) {
		return marked.code
	}
	return ""
}

// WriteJSON writes v as a JSON reply with status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes the {"error": message} reply every role uses.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, map[string]string{"error": err.Error()})
}

// ReadBody reads r's body whole, failing with *http.MaxBytesError past
// limit bytes. It appends to dst, so a pooled buffer makes the read
// allocation-free.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64, dst []byte) ([]byte, error) {
	return ReadAll(http.MaxBytesReader(w, r.Body, limit), dst)
}

// ReadAll reads r to EOF, appending to dst and growing its capacity as
// needed: io.ReadAll, without the fresh buffer per call when dst has room.
func ReadAll(r io.Reader, dst []byte) ([]byte, error) {
	if cap(dst) == 0 {
		dst = make([]byte, 0, 512)
	}
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}
