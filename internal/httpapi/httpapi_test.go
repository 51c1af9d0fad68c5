package httpapi_test

import (
	"errors"
	"fmt"
	"net/http"
	"testing"

	"privmdr/internal/httpapi"
	"privmdr/internal/mech"
)

// TestStatus pins the one error→status rule every role answers with: 413
// for a tripped body cap; else the outermost marked error's status and
// code; else 409 for lifecycle and deployment conflicts; else 400 — wrapped
// or not. The roles' own errors are pinned where they live (dist's
// TestErrStatus, the root's TestBodyErrStatus).
func TestStatus(t *testing.T) {
	stale := httpapi.Sentinel("push sequence number is stale", http.StatusConflict, "stale")
	journal := httpapi.Mark(errors.New("dist: journal: write journal.wal: file already closed"), http.StatusServiceUnavailable)
	cases := []struct {
		name   string
		err    error
		status int
		code   string
	}{
		{"max bytes", &http.MaxBytesError{Limit: httpapi.MaxBody}, http.StatusRequestEntityTooLarge, ""},
		{"wrapped max bytes", fmt.Errorf("reading frame: %w", &http.MaxBytesError{Limit: 1}), http.StatusRequestEntityTooLarge, ""},
		{"sentinel", stale, http.StatusConflict, "stale"},
		{"wrapped sentinel", fmt.Errorf("shard %q: %w", "s", stale), http.StatusConflict, "stale"},
		{"mark", journal, http.StatusServiceUnavailable, ""},
		{"wrapped mark", fmt.Errorf("tenant: %w", journal), http.StatusServiceUnavailable, ""},
		{"outermost mark wins", httpapi.Mark(fmt.Errorf("leg: %w", stale), http.StatusBadGateway), http.StatusBadGateway, ""},
		{"mark over finalized", httpapi.Mark(mech.ErrFinalized, http.StatusInternalServerError), http.StatusInternalServerError, ""},
		{"cap over mark", httpapi.Mark(&http.MaxBytesError{Limit: 1}, http.StatusBadGateway), http.StatusRequestEntityTooLarge, ""},
		{"state mismatch", mech.ErrStateMismatch, http.StatusConflict, ""},
		{"wrapped state mismatch", fmt.Errorf("mech: state of TDG: %w", mech.ErrStateMismatch), http.StatusConflict, ""},
		{"finalized", mech.ErrFinalized, http.StatusConflict, ""},
		{"wrapped finalized", fmt.Errorf("privmdr: %w", mech.ErrFinalized), http.StatusConflict, ""},
		{"plain decode error", errors.New("mech: truncated report group"), http.StatusBadRequest, ""},
		{"json syntax error", fmt.Errorf("decoding query batch: %w", errors.New("unexpected EOF")), http.StatusBadRequest, ""},
	}
	for _, tc := range cases {
		if got := httpapi.Status(tc.err); got != tc.status {
			t.Errorf("%s: Status = %d, want %d", tc.name, got, tc.status)
		}
		if got := httpapi.Code(tc.err); got != tc.code {
			t.Errorf("%s: Code = %q, want %q", tc.name, got, tc.code)
		}
	}
	// A mark keeps the message and the chain of the error it wraps.
	if journal.Error() != "dist: journal: write journal.wal: file already closed" {
		t.Errorf("marked message %q", journal.Error())
	}
	if err := httpapi.Mark(mech.ErrFinalized, http.StatusInternalServerError); !errors.Is(err, mech.ErrFinalized) {
		t.Errorf("mark hides its cause: %v", err)
	}
}
