package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanName identifies what a span times: a call the benchmark makes into a
// layer's public function, or one of its own client round trips.
type spanName uint8

const (
	noSpan spanName = iota
	clientGen
	clientSubmit
	clientQuery
	clientRefresh
	clientPush
	clientSeal
	serverReports
	serverQuery
	serverRefresh
	mechDecode
	mechSubmitBatch
	coreEstimate
	mwemWarm
	mechAnswerBatch
	shardReports
	shardPush
	aggPush
	aggSeal
	replicaEpoch
	replicaQuery
	aggRecover
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"", "client.gen", "client.submit", "client.query", "client.refresh", "client.push", "client.seal",
	"server.reports", "server.query", "server.refresh",
	"mech.decode", "mech.submit_batch", "core.estimate", "mwem.warm", "mech.answer_batch",
	"dist.shard.reports", "dist.shard.push", "dist.aggregator.push", "dist.aggregator.seal",
	"dist.replica.epoch", "dist.replica.query", "dist.aggregator.recover",
}

// hopParent names, for each span recorded by a role's HTTP handler, the
// span that sends its request. Every client loop is sequential, so the
// sender span is the unique one of that name containing the handler span
// in time. The same containment links the roles' own outbound calls: a
// shard's push to the aggregator and the aggregator's fan-out to the
// replica.
var hopParent = map[spanName]spanName{
	serverReports: clientSubmit,
	serverQuery:   clientQuery,
	serverRefresh: clientRefresh,
	shardReports:  clientSubmit,
	shardPush:     clientPush,
	aggPush:       shardPush,
	aggSeal:       clientSeal,
	replicaEpoch:  aggSeal,
	replicaQuery:  clientQuery,
}

// phase tags when a span was recorded.
type phase uint8

const (
	phaseWindow   phase = iota // the measured window
	phaseSetup                 // the set-ups and their checks
	phaseTeardown              // the checks after each window
)

// span is one recorded call. Times are nanoseconds since the tracer began.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Phase  phase  `json:"phase"`
	// Mech is the tenant's mechanism in dist-mix (-1 elsewhere).
	Mech int8 `json:"mech"`
	// Bytes is the request body size of a role's handler span, or the
	// data dir size a recovery reads.
	Bytes int64 `json:"bytes,omitempty"`
	// Useful is a client span's outcome: a refresh that swapped, a push
	// that shipped, a seal that sealed.
	Useful bool `json:"useful,omitempty"`

	name spanName
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs pay no tracing cost.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	phase  atomic.Uint32

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a span that has started and not yet been recorded.
type openSpan struct {
	t      *tracer
	id     int64
	parent int64
	name   spanName
	start  int64
	end    int64
	mech   int8
	bytes  int64
	useful bool
}

func (t *tracer) begin(name spanName) openSpan {
	if t == nil || name == noSpan {
		return openSpan{}
	}
	return openSpan{t: t, id: t.nextID.Add(1), name: name, start: int64(time.Since(t.epoch)), mech: -1}
}

// stop stamps the span's end without recording it, so a caller can time a
// round trip and fill in its outcome afterwards.
func (s *openSpan) stop() {
	if s.t != nil && s.end == 0 {
		s.end = int64(time.Since(s.t.epoch))
	}
}

// commit stamps the end (unless stop already did) and records the span.
func (s *openSpan) commit() {
	if s.t == nil {
		return
	}
	s.stop()
	rec := span{ID: s.id, Parent: s.parent, Start: s.start, End: s.end, Phase: phase(s.t.phase.Load()),
		Mech: s.mech, Bytes: s.bytes, Useful: s.useful, name: s.name}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, rec)
	s.t.mu.Unlock()
}

func (t *tracer) setPhase(p phase) {
	if t != nil {
		t.phase.Store(uint32(p))
	}
}

// spanHeader carries a handler span's ID back to the caller, which parents
// the in-process replays of that call on it.
const spanHeader = "X-Bench-Span"

// route maps a request to the span its handler records, and to the
// tenant's mechanism index in dist-mix (-1 elsewhere); noSpan passes the
// request through untimed.
type route func(r *http.Request) (spanName, int8)

// traced wraps a role's handler so every routed request records a span.
// Without a tracer it returns the handler itself.
func traced(t *tracer, h http.Handler, rt route) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name, mech := rt(r)
		if name == noSpan {
			h.ServeHTTP(w, r)
			return
		}
		sp := t.begin(name)
		sp.mech = mech
		sp.bytes = r.ContentLength
		w.Header().Set(spanHeader, strconv.FormatInt(sp.id, 10))
		h.ServeHTTP(w, r)
		sp.commit()
	})
}

// pathVerb returns the last path element of a request, and for the dist
// roles' /v1/{tenant}/{verb} routes the tenant.
func pathVerb(r *http.Request) (tenant, verb string) {
	parts := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	verb = parts[len(parts)-1]
	if len(parts) == 3 && parts[0] == "v1" {
		tenant = parts[1]
	}
	return tenant, verb
}

// finish resolves parents and trace IDs and returns the spans. Call it once
// every loop has stopped.
func (t *tracer) finish() []span {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	byName := make([][]int, numSpanNames)
	byID := make(map[int64]int, len(spans))
	for i := range spans {
		spans[i].Name = spanNames[spans[i].name]
		byName[spans[i].name] = append(byName[spans[i].name], i)
		byID[spans[i].ID] = i
	}
	for _, idx := range byName {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].Start < spans[idx[b]].Start })
	}
	for i := range spans {
		s := &spans[i]
		pn, ok := hopParent[s.name]
		if !ok || s.Parent != 0 {
			continue
		}
		cands := byName[pn]
		k := sort.Search(len(cands), func(k int) bool { return spans[cands[k]].Start > s.Start }) - 1
		if k >= 0 && spans[cands[k]].End >= s.End {
			s.Parent = spans[cands[k]].ID
		}
	}
	var traceOf func(i int) int64
	traceOf = func(i int) int64 {
		s := &spans[i]
		if s.Trace == 0 {
			s.Trace = s.ID
			if p, ok := byID[s.Parent]; ok && s.Parent != 0 {
				s.Trace = traceOf(p)
			}
		}
		return s.Trace
	}
	for i := range spans {
		traceOf(i)
	}
	return spans
}

// writeSpans stores the spans as gzipped JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
