package dist

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"time"

	"privmdr/internal/httpapi"
)

// transport is the retrying HTTP client every role uses for its outbound
// legs (shard→aggregator pushes, aggregator→replica fan-out, replica
// catch-up pulls). It retries transport failures and 5xx responses with
// exponential backoff — the cases where the receiver either never saw the
// request or refused it temporarily — and returns 4xx responses to the
// caller untouched, since those are protocol answers (duplicate ACKs, stale
// sequences) the caller must interpret. Retried requests are safe by
// construction: every dist push is idempotent under its sequence number or
// epoch, and the GETs are reads.
type transport struct {
	c        *http.Client
	attempts int
	backoff  time.Duration
}

// newTransport builds the default transport: per-request timeout, 4
// attempts, full-jitter backoff over a 50 ms cap doubling between them.
func newTransport(timeout time.Duration) *transport {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	return &transport{
		c:        &http.Client{Timeout: timeout},
		attempts: 4,
		backoff:  50 * time.Millisecond,
	}
}

// post sends body to url, retrying on network errors and 5xx. It returns
// the final response's status and (bounded) body; err is non-nil only when
// every attempt failed, at the transport level or with a 5xx, or the
// context ended.
func (t *transport) post(ctx context.Context, url, contentType string, body []byte) (int, []byte, error) {
	return t.do(ctx, http.MethodPost, url, contentType, body, t.attempts)
}

// postN is post with an explicit attempt budget (≤ 0 means the transport
// default) — the fan-out uses 1 to probe a replica it believes dead.
func (t *transport) postN(ctx context.Context, url, contentType string, body []byte, attempts int) (int, []byte, error) {
	return t.do(ctx, http.MethodPost, url, contentType, body, attempts)
}

// get fetches url with the same retry schedule as post.
func (t *transport) get(ctx context.Context, url string) (int, []byte, error) {
	return t.do(ctx, http.MethodGet, url, "", nil, t.attempts)
}

// do is the shared retry loop. Between attempts it sleeps a "full jitter"
// backoff: uniform in (0, cap], with the cap doubling per attempt. Plain
// doubling without jitter synchronizes every client that failed together —
// all shards retrying a restarted aggregator would wake in lockstep at
// 50/100/200 ms and collide again; the jitter spreads each wave over the
// whole window.
func (t *transport) do(ctx context.Context, method, url, contentType string, body []byte, attempts int) (int, []byte, error) {
	if attempts <= 0 {
		attempts = t.attempts
	}
	var lastErr error
	answered := false // the last attempt got an HTTP answer (a 5xx)
	cap := t.backoff
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			delay := time.Duration(1 + rand.Int64N(int64(cap)))
			select {
			case <-ctx.Done():
				return 0, nil, ctx.Err()
			case <-time.After(delay):
			}
			cap *= 2
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, url, rd)
		if err != nil {
			return 0, nil, err
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := t.c.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return 0, nil, ctx.Err()
			}
			lastErr, answered = err, false
			continue
		}
		payload, err := io.ReadAll(io.LimitReader(resp.Body, httpapi.MaxBody))
		resp.Body.Close()
		if err != nil {
			lastErr, answered = err, false
			continue
		}
		if resp.StatusCode >= 500 {
			lastErr, answered = fmt.Errorf("%d %s", resp.StatusCode, payload), true
			continue
		}
		return resp.StatusCode, payload, nil
	}
	if answered {
		// The peer is up and said why it failed: quote it, so a 503 from a
		// failing journal does not read as a network fault.
		return 0, nil, fmt.Errorf("dist: %s failed after %d attempts: %w", url, attempts, lastErr)
	}
	return 0, nil, fmt.Errorf("dist: %s unreachable after %d attempts: %w", url, attempts, lastErr)
}
