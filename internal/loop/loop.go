// Package loop runs a function on a ticker in a background goroutine: the
// refresher, sealer, pusher, catch-up poller and journal syncer of the
// serving roles.
package loop

import (
	"context"
	"time"
)

// Loop is one running background loop. A nil *Loop is a loop that never
// started; Stop on it is a no-op.
type Loop struct {
	cancel context.CancelFunc
	done   chan struct{} // closed when the goroutine exits
}

// Start calls fn every interval on a new goroutine until Stop, and once
// right away first when now is set. fn receives a context that Stop
// cancels, so a call blocked on the network returns promptly instead of
// holding Stop up. Calls never overlap; while fn runs, the ticker drops
// the ticks it cannot deliver. A non-positive interval starts nothing and
// returns nil.
func Start(interval time.Duration, now bool, fn func(context.Context)) *Loop {
	if interval <= 0 {
		return nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	l := &Loop{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		if now {
			fn(ctx)
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				fn(ctx)
			}
		}
	}()
	return l
}

// Stop cancels the context passed to fn and waits until a running call
// returns and the goroutine exits. It is safe on nil and idempotent.
func (l *Loop) Stop() {
	if l == nil {
		return
	}
	l.cancel()
	<-l.done
}
