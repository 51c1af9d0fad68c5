package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"privmdr"
)

// frameSize is how many reports every edge client packs into one frame.
const frameSize = 512

// inProcessEvery makes a traced run take every 4th submit (live-hdg) or
// query through the in-process public calls instead of HTTP; that is where
// the mech.decode, mech.submit_batch and mech.answer_batch layers are timed.
const inProcessEvery = 4

// config is one run of one workload.
type config struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	// dir holds the aggregator's data dir and the span file.
	dir string
	// rounds is how many times the run sets up, checks the set-up, runs
	// 1/rounds of the window and checks the outputs.
	rounds int
	// scale divides every report count; the self-tests shrink the
	// workloads with it.
	scale int
	// withhold makes the ledger forget one ACKed frame, so the accounting
	// check must fail (a self-test of that check).
	withhold bool
}

// ops counts the operations a run attempts and the ones that fail: a
// transport error or a non-2xx status.
type ops struct {
	attempted, failed atomic.Int64
}

// checkError is an output check that failed: the run is not correct.
type checkError struct{ msg string }

func (e *checkError) Error() string { return "check failed: " + e.msg }

func checkf(format string, args ...any) error {
	return &checkError{fmt.Sprintf(format, args...)}
}

// server is one role behind a loopback HTTP listener.
type server struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

func (s *server) close() {
	if s != nil {
		_ = s.srv.Close()
		<-s.done
	}
}

// caller is one sequential client: its own keep-alive connections, and a
// reply buffer reused across calls.
type caller struct {
	hc  *http.Client
	tr  *tracer
	ops *ops
	buf bytes.Buffer
}

func newCaller(tr *tracer, o *ops) *caller {
	return &caller{hc: &http.Client{Transport: &http.Transport{DisableCompression: true}}, tr: tr, ops: o}
}

func (c *caller) close() { c.hc.CloseIdleConnections() }

// reply is one completed call. body is valid until the caller's next call.
type reply struct {
	body []byte
	rtt  time.Duration
	at   time.Time // when the last response byte arrived
	span openSpan  // stopped, not yet committed
	hdr  http.Header
}

// do sends one request and reads the whole response, timing the round trip
// from send to last byte. It counts the operation, and a transport error or
// non-2xx status as a failure (returned as err).
func (c *caller) do(method, url string, body []byte, name spanName) (reply, error) {
	c.ops.attempted.Add(1)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		c.ops.failed.Add(1)
		return reply{}, err
	}
	sp := c.tr.begin(name)
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		sp.stop()
		c.ops.failed.Add(1)
		return reply{span: sp}, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	at := time.Now()
	sp.stop()
	r := reply{body: c.buf.Bytes(), rtt: at.Sub(start), at: at, span: sp, hdr: resp.Header}
	if err == nil && (resp.StatusCode < 200 || resp.StatusCode > 299) {
		err = fmt.Errorf("%s %s: %d %s", method, url, resp.StatusCode, bytes.TrimSpace(r.body))
	}
	if err != nil {
		c.ops.failed.Add(1)
	}
	return r, err
}

// getJSON calls a JSON endpoint and decodes its reply into v.
func (c *caller) getJSON(method, url string, body []byte, v any) error {
	r, err := c.do(method, url, body, noSpan)
	if err != nil {
		return err
	}
	return json.Unmarshal(r.body, v)
}

// query posts a query batch and returns the answers.
func (c *caller) query(url string, body []byte) ([]float64, error) {
	var resp privmdr.QueryResponse
	if err := c.getJSON(http.MethodPost, url, body, &resp); err != nil {
		return nil, err
	}
	return resp.Answers, nil
}

// spanID reads the handler span ID a traced role returns (0 untraced).
func spanID(h http.Header) int64 {
	id, _ := strconv.ParseInt(h.Get(spanHeader), 10, 64)
	return id
}

// ledger records, in submission order, when each frame of one report
// stream was ACKed in the window. Only the stream's submitter appends;
// others read after the window.
type ledger struct {
	base   int         // reports ACKed before the window
	frames int         // frames ACKed in the window
	acks   []time.Time // their ACK times, until the window's stats drop them
}

func (l *ledger) ack(at time.Time) {
	l.acks = append(l.acks, at)
	l.frames++
}

func (l *ledger) reports() int { return l.base + frameSize*l.frames }

// ackOf returns when the frame holding report index i was ACKed.
func (l *ledger) ackOf(i int) (time.Time, bool) {
	f := (i - l.base) / frameSize
	if i < l.base || f >= len(l.acks) {
		return time.Time{}, false
	}
	return l.acks[f], true
}

// sinceStart counts times from the window's start.
func sinceStart(start time.Time, ts []time.Time) []time.Duration {
	out := make([]time.Duration, len(ts))
	for i, t := range ts {
		out[i] = t.Sub(start)
	}
	return out
}

// reference rebuilds an estimator outside the serving path — a fresh
// collector, one Merge of the exported state, Estimate, WarmEstimator — and
// checks that the served answers to qs are bit-identical to its answers.
func reference(proto privmdr.Protocol, st privmdr.CollectorState, qs []privmdr.Query, served []float64, what string) (privmdr.Estimator, error) {
	coll, err := proto.NewCollector()
	if err != nil {
		return nil, err
	}
	if err := coll.(privmdr.StatefulCollector).Merge(st); err != nil {
		return nil, fmt.Errorf("reference merge: %w", err)
	}
	est, err := coll.Estimate()
	if err != nil {
		return nil, fmt.Errorf("reference estimate: %w", err)
	}
	if err := privmdr.WarmEstimator(est); err != nil {
		return nil, fmt.Errorf("reference warm-up: %w", err)
	}
	want, err := privmdr.AnswerBatch(est, qs)
	if err != nil {
		return nil, fmt.Errorf("reference answers: %w", err)
	}
	if err := sameAnswers(served, want, what); err != nil {
		return nil, err
	}
	return est, nil
}

// sameAnswers requires bit-identical answers.
func sameAnswers(got, want []float64, what string) error {
	if len(got) != len(want) {
		return checkf("%s: %d answers served, reference has %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return checkf("%s: answer %d is %v, reference %v", what, i, got[i], want[i])
		}
	}
	return nil
}

// sample is one timed operation: when it completed, counted from the
// window's start, and how long it took.
type sample struct{ at, d time.Duration }

type series []sample

// q returns the p-quantile in ms of the durations that completed inside
// the window (0 when none did).
func (s series) q(window time.Duration, p float64) float64 {
	var v []float64
	for _, x := range s {
		if x.at < window {
			v = append(v, ms(int64(x.d)))
		}
	}
	return quantile(v, p)
}

// quantile returns the nearest-rank p-quantile of v (0 when empty).
func quantile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(max(len(v), 1))
}

// mix derives an independent sub-seed from the workload seed.
func mix(seed, stream uint64) uint64 {
	z := seed + stream*0x9e3779b97f4a7c15 + 0x6a09e667f3bcc909
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
