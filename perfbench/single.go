package main

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"privmdr"
)

// refreshEvery is live-hdg's background refresh interval.
const refreshEvery = 250 * time.Millisecond

// pollEvery is how often live-hdg's querier reads GET /healthz to see when
// the background refresher made a new epoch servable.
const pollEvery = 5 * time.Millisecond

// refreshFrames is how many frames refresh-hdg's refresh client posts before
// each POST /refresh. One frame per refresh left about 200 submits in a 30 s
// window, too few for a steady p95; eight give about 1700 while ingest stays
// under 1% of a cycle (0.15 ms a frame against about 145 ms of refresh).
const refreshFrames = 8

// singleNode is live-hdg or refresh-hdg: one live QueryServer over
// loopback.
type singleNode struct {
	cfg config
	tr  *tracer
	ops *ops
	in  *tenant
	qs  *privmdr.QueryServer
	srv *server
	// refreshing is refresh-hdg: no background refresher; the refresh
	// client refreshes after every refreshFrames frames.
	refreshing bool

	led   ledger
	epoch uint64            // the epoch set-up sealed
	ref   privmdr.Estimator // rebuilt from the set-up state

	start                      time.Time // the window's
	submitLat, queryLat, fresh series
	// polls are the epochs live-hdg's querier saw appear.
	polls []epochSeen
	// refreshErr is refresh-hdg's fatal error; only the refresh client
	// writes it.
	refreshErr error
}

// epochSeen is a new epoch seen at a poll; from is how many reports the
// epoch before it held, so report index from is the oldest it adds.
type epochSeen struct {
	at   time.Time
	from int
}

func setupLiveHDG(cfg config, tr *tracer, o *ops) (workload, error) {
	return setupSingle(cfg, tr, o, false)
}

func setupRefreshHDG(cfg config, tr *tracer, o *ops) (workload, error) {
	return setupSingle(cfg, tr, o, true)
}

// setupSingle generates the inputs, starts the server, ingests every
// generated report once over HTTP and seals the first epoch.
func setupSingle(cfg config, tr *tracer, o *ops, refreshing bool) (workload, error) {
	spec := tenantSpec{mech: "HDG", n: 131072 / cfg.scale, d: 3, c: 64}
	opts := privmdr.LiveOptions{Refresh: refreshEvery}
	if refreshing {
		spec.c = 256
		opts.Refresh = 0
	}
	in, err := genTenant(tr, spec, cfg.seed)
	if err != nil {
		return nil, err
	}
	w := &singleNode{cfg: cfg, tr: tr, ops: o, in: in, refreshing: refreshing}
	if w.qs, err = privmdr.NewLiveQueryServer(in.proto, opts); err != nil {
		return nil, err
	}
	route := func(r *http.Request) (spanName, int8) {
		if r.Method == http.MethodPost {
			switch _, verb := pathVerb(r); verb {
			case "reports":
				return serverReports, -1
			case "query":
				return serverQuery, -1
			case "refresh":
				return serverRefresh, -1
			}
		}
		return noSpan, -1
	}
	if w.srv, err = serve(traced(tr, w.qs, route)); err != nil {
		w.close()
		return nil, err
	}
	c := newCaller(tr, o)
	defer c.close()
	for _, frame := range in.frames {
		r, err := c.do(http.MethodPost, w.srv.url+"/reports", frame, clientSubmit)
		r.span.commit()
		if err != nil {
			w.close()
			return nil, err
		}
	}
	var sealed struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := c.getJSON(http.MethodPost, w.srv.url+"/refresh", nil, &sealed); err != nil {
		w.close()
		return nil, err
	}
	w.epoch = sealed.Epoch
	w.led.base = in.reports()
	return w, nil
}

// verifySetup checks the accounting and the answers of the set-up epoch,
// which holds every generated report exactly once, and returns the mae of
// its answers to the accuracy batch.
func (w *singleNode) verifySetup() (float64, error) {
	c := newCaller(w.tr, w.ops)
	defer c.close()
	answers, err := c.query(w.srv.url+"/query", w.in.accBody)
	if err != nil {
		return 0, err
	}
	if err := w.accounting(c, w.in.reports()); err != nil {
		return 0, err
	}
	st, err := w.qs.State()
	if err != nil {
		return 0, err
	}
	if w.ref, err = reference(w.in.proto, st, w.in.acc, answers, "set-up epoch"); err != nil {
		return 0, err
	}
	return privmdr.MAE(answers, privmdr.TrueAnswers(w.in.ds, w.in.acc)), nil
}

// accounting requires the server to have received, and its serving epoch
// to hold, exactly the ACKed reports.
func (w *singleNode) accounting(c *caller, acked int) error {
	var st privmdr.ServerStatus
	if err := c.getJSON(http.MethodGet, w.srv.url+"/healthz", nil, &st); err != nil {
		return err
	}
	if st.Received != acked || st.EstimatorReports != acked {
		return checkf("accounting: server received %d reports and serves an epoch of %d; %d were ACKed",
			st.Received, st.EstimatorReports, acked)
	}
	return nil
}

func (w *singleNode) window(deadline time.Time) error {
	w.start = deadline.Add(-w.cfg.window)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if w.refreshing {
			w.refreshLoop(deadline)
		} else {
			w.submitLoop(deadline)
		}
	}()
	go func() {
		defer wg.Done()
		w.queryLoop(deadline)
	}()
	wg.Wait()
	return w.refreshErr
}

// submitLoop is live-hdg's submitter: frames back to back, each sent once
// the previous one is ACKed. A traced run submits every inProcessEvery-th
// frame in-process (DecodeReports, then SubmitBatch) instead.
func (w *singleNode) submitLoop(deadline time.Time) {
	c := newCaller(w.tr, w.ops)
	defer c.close()
	url := w.srv.url + "/reports"
	for i := 0; time.Now().Before(deadline); i++ {
		frame := w.in.frames[i%len(w.in.frames)]
		if w.tr != nil && i%inProcessEvery == inProcessEvery-1 {
			w.ops.attempted.Add(1)
			sp := w.tr.begin(mechDecode)
			reps, err := privmdr.DecodeReports(frame)
			sp.commit()
			if err == nil {
				sp = w.tr.begin(mechSubmitBatch)
				err = w.qs.SubmitBatch(reps)
				sp.commit()
			}
			if err != nil {
				w.ops.failed.Add(1)
				continue
			}
			w.led.ack(time.Now())
			continue
		}
		r, err := c.do(http.MethodPost, url, frame, clientSubmit)
		r.span.commit()
		if err != nil {
			continue
		}
		w.submitLat = append(w.submitLat, sample{r.at.Sub(w.start), r.rtt})
		w.led.ack(r.at)
	}
}

// refreshLoop is refresh-hdg's refresh client: POST refreshFrames frames,
// then POST /refresh, whose return makes them answerable. A traced run
// replays each refresh in-process on the same state (QueryServer.Estimate,
// then WarmEstimator) as children of the refresh's handler span; nothing is
// ingested in between, since this client is the only submitter.
func (w *singleNode) refreshLoop(deadline time.Time) {
	c := newCaller(w.tr, w.ops)
	defer c.close()
	var pending time.Time // ACK of the oldest report no epoch holds yet
	for i := 0; time.Now().Before(deadline); {
		for range refreshFrames {
			r, err := c.do(http.MethodPost, w.srv.url+"/reports", w.in.frames[i%len(w.in.frames)], clientSubmit)
			r.span.commit()
			i++
			if err != nil {
				continue
			}
			w.submitLat = append(w.submitLat, sample{r.at.Sub(w.start), r.rtt})
			w.led.ack(r.at)
			if pending.IsZero() {
				pending = r.at
			}
		}
		r, err := c.do(http.MethodPost, w.srv.url+"/refresh", nil, clientRefresh)
		if err != nil {
			r.span.commit()
			continue
		}
		var res struct {
			Swapped bool `json:"swapped"`
		}
		if err := json.Unmarshal(r.body, &res); err != nil {
			r.span.commit()
			w.refreshErr = err
			return
		}
		r.span.useful = res.Swapped
		r.span.commit()
		if res.Swapped && !pending.IsZero() {
			w.fresh = append(w.fresh, sample{r.at.Sub(w.start), r.at.Sub(pending)})
			pending = time.Time{}
		}
		if w.tr != nil {
			parent := spanID(r.hdr)
			sp := w.tr.begin(coreEstimate)
			sp.parent = parent
			est, err := w.qs.Estimate()
			sp.commit()
			if err == nil {
				sp = w.tr.begin(mwemWarm)
				sp.parent = parent
				err = privmdr.WarmEstimator(est)
				sp.commit()
			}
			if err != nil {
				w.refreshErr = err
				return
			}
		}
	}
}

// queryLoop is the querier: the fixed batch back to back. In live-hdg it
// also polls GET /healthz to see new epochs appear. A traced run answers
// every inProcessEvery-th batch in-process (AnswerBatch on the estimator
// rebuilt from the set-up state) instead.
func (w *singleNode) queryLoop(deadline time.Time) {
	c := newCaller(w.tr, w.ops)
	defer c.close()
	seenEpoch, seenReports := w.epoch, w.in.reports()
	var lastPoll time.Time
	for i := 0; time.Now().Before(deadline); i++ {
		if !w.refreshing && time.Since(lastPoll) >= pollEvery {
			var st privmdr.ServerStatus
			if err := c.getJSON(http.MethodGet, w.srv.url+"/healthz", nil, &st); err == nil {
				lastPoll = time.Now()
				if st.Epoch > seenEpoch {
					w.polls = append(w.polls, epochSeen{at: lastPoll, from: seenReports})
					seenEpoch, seenReports = st.Epoch, st.EstimatorReports
				}
			}
		}
		if w.tr != nil && i%inProcessEvery == inProcessEvery-1 {
			w.ops.attempted.Add(1)
			sp := w.tr.begin(mechAnswerBatch)
			_, err := privmdr.AnswerBatch(w.ref, w.in.batch)
			sp.commit()
			if err != nil {
				w.ops.failed.Add(1)
			}
			continue
		}
		r, err := c.do(http.MethodPost, w.srv.url+"/query", w.in.batchBody, clientQuery)
		r.span.commit()
		if err == nil {
			w.queryLat = append(w.queryLat, sample{r.at.Sub(w.start), r.rtt})
		}
	}
}

// check seals everything ACKed, then requires exact accounting and served
// answers bit-identical to a reference rebuilt from the exported state.
func (w *singleNode) check() error {
	c := newCaller(w.tr, w.ops)
	defer c.close()
	if _, err := c.do(http.MethodPost, w.srv.url+"/refresh", nil, noSpan); err != nil {
		return err
	}
	acked := w.led.reports()
	if w.cfg.withhold {
		acked -= frameSize
	}
	if err := w.accounting(c, acked); err != nil {
		return err
	}
	answers, err := c.query(w.srv.url+"/query", w.in.batchBody)
	if err != nil {
		return err
	}
	st, err := w.qs.State()
	if err != nil {
		return err
	}
	_, err = reference(w.in.proto, st, w.in.batch, answers, "final epoch")
	return err
}

func (w *singleNode) stats() windowStats {
	if !w.refreshing {
		for _, p := range w.polls {
			if ack, ok := w.led.ackOf(p.from); ok {
				w.fresh = append(w.fresh, sample{p.at.Sub(w.start), max(p.at.Sub(ack), 0)})
			}
		}
	}
	st := summarize(w.cfg.window, sinceStart(w.start, w.led.acks), w.submitLat, w.queryLat, w.fresh)
	w.submitLat, w.queryLat, w.fresh, w.polls, w.led.acks = nil, nil, nil, nil, nil
	return st
}

func (w *singleNode) close() {
	w.srv.close()
	if w.qs != nil {
		_ = w.qs.Close()
	}
}
