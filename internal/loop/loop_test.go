package loop

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

func TestStopNilAndTwice(t *testing.T) {
	var l *Loop
	l.Stop()
	if got := Start(0, true, func(context.Context) { t.Error("fn ran for a zero interval") }); got != nil {
		t.Fatalf("Start(0) = %v, want nil", got)
	}
	l = Start(time.Hour, false, func(context.Context) {})
	l.Stop()
	l.Stop()
}

// TestStartNow checks the optional start-up call runs before the first
// tick, and that without it nothing runs until a tick.
func TestStartNow(t *testing.T) {
	ran := make(chan struct{}, 1)
	l := Start(time.Hour, true, func(context.Context) { ran <- struct{}{} })
	defer l.Stop()
	select {
	case <-ran:
	case <-time.After(10 * time.Second):
		t.Fatal("start-up call did not run")
	}

	var calls atomic.Int32
	quiet := Start(time.Hour, false, func(context.Context) { calls.Add(1) })
	quiet.Stop()
	if n := calls.Load(); n != 0 {
		t.Fatalf("fn ran %d times before its first tick", n)
	}
}

func TestTicks(t *testing.T) {
	ticks := make(chan struct{})
	l := Start(time.Millisecond, false, func(ctx context.Context) {
		select {
		case ticks <- struct{}{}:
		case <-ctx.Done():
		}
	})
	defer l.Stop()
	for i := 0; i < 3; i++ {
		select {
		case <-ticks:
		case <-time.After(10 * time.Second):
			t.Fatalf("tick %d never came", i)
		}
	}
}

// TestStopCancelsRunningCall checks Stop cancels the context of a call in
// flight and returns only after that call has.
func TestStopCancelsRunningCall(t *testing.T) {
	started := make(chan struct{})
	var returned atomic.Bool
	l := Start(time.Hour, true, func(ctx context.Context) {
		close(started)
		<-ctx.Done()
		returned.Store(true)
	})
	<-started
	l.Stop()
	if !returned.Load() {
		t.Fatal("Stop returned before the running call")
	}
}
