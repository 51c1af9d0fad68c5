package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"privmdr"
	"privmdr/dist"
)

// distShards is how many ingest shards dist-mix runs.
const distShards = 2

// distSpecs are dist-mix's tenants, one per mechanism. HIO runs at d=2 so
// that every HIO group streams.
func distSpecs(scale int) []tenantSpec {
	n := 32768 / scale
	specs := make([]tenantSpec, len(mechOrder))
	for i, m := range mechOrder {
		specs[i] = tenantSpec{mech: m, n: n, d: 3, c: 64}
		if m == "HIO" {
			specs[i].d = 2
		}
	}
	return specs
}

// aggHandler serves whichever aggregator is current, so the restart check
// can reopen the aggregator behind the same URL.
type aggHandler struct {
	cur atomic.Pointer[dist.Aggregator]
}

func (h *aggHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.cur.Load().ServeHTTP(w, r) }

// distMix is the dist-mix workload.
type distMix struct {
	cfg     config
	tr      *tracer
	ops     *ops
	tenants []*tenant
	topo    *dist.Topology
	dataDir string

	replica  *dist.Replica
	agg      aggHandler
	shards   [distShards]*dist.Shard
	repSrv   *server
	aggSrv   *server
	shardSrv [distShards]*server

	// leds[t][s] is tenant t's report stream to shard s; pushed[t][s] is
	// how many of its reports shard s has pushed.
	leds   [][distShards]*ledger
	pushed [][distShards]int
	refs   []privmdr.Estimator // rebuilt from each tenant's set-up state

	start               time.Time // the window's
	submitLat, queryLat series
	seals               []sealSeen
}

// sealSeen is a seal that made new reports answerable at the replica;
// from[s] is the index of the oldest report of shard s it adds (-1: none).
type sealSeen struct {
	at     time.Time
	tenant int
	from   [distShards]int
}

// setupDistMix generates the inputs, starts the topology, ingests every
// generated report once over HTTP (frame f of a tenant to shard f%2), and
// pushes and seals each tenant's first epoch.
func setupDistMix(cfg config, tr *tracer, o *ops) (workload, error) {
	w := &distMix{cfg: cfg, tr: tr, ops: o, topo: &dist.Topology{}}
	for i, sp := range distSpecs(cfg.scale) {
		t, err := genTenant(tr, sp, mix(cfg.seed, uint64(100+i)))
		if err != nil {
			return nil, err
		}
		w.tenants = append(w.tenants, t)
		w.topo.Tenants = append(w.topo.Tenants, dist.TenantConfig{Name: t.name, Mechanism: t.proto.Name(), Params: t.proto.Params()})
		w.leds = append(w.leds, [distShards]*ledger{{}, {}})
		w.pushed = append(w.pushed, [distShards]int{})
	}
	if err := w.startRoles(); err != nil {
		w.close()
		return nil, err
	}
	c := newCaller(tr, o)
	defer c.close()
	for ti, t := range w.tenants {
		for f, frame := range t.frames {
			s := f % distShards
			r, err := c.do(http.MethodPost, w.shardSrv[s].url+"/v1/"+t.name+"/reports", frame, clientSubmit)
			r.span.commit()
			if err != nil {
				w.close()
				return nil, err
			}
			w.leds[ti][s].base += frameSize
		}
	}
	for ti := range w.tenants {
		for s := range distShards {
			if _, err := w.push(c, ti, s); err != nil {
				w.close()
				return nil, err
			}
		}
		if _, _, err := w.seal(c, ti); err != nil {
			w.close()
			return nil, err
		}
	}
	return w, nil
}

// startRoles brings up the replica, the aggregator (journaling to a fresh data
// dir with the default per-ACK fsync) and the shards, each behind its own
// loopback listener. No role runs a background pusher, sealer or poller.
func (w *distMix) startRoles() error {
	mechOf := make(map[string]int8, len(w.tenants))
	for _, t := range w.tenants {
		mechOf[t.name] = t.mech
	}
	route := func(verbs map[string]spanName) route {
		return func(r *http.Request) (spanName, int8) {
			tenant, verb := pathVerb(r)
			if r.Method != http.MethodPost {
				return noSpan, -1
			}
			if m, ok := mechOf[tenant]; ok {
				return verbs[verb], m
			}
			return noSpan, -1
		}
	}
	var err error
	if w.replica, err = dist.NewReplica(w.topo, dist.ReplicaOptions{}); err != nil {
		return err
	}
	if w.repSrv, err = serve(traced(w.tr, w.replica, route(map[string]spanName{"epoch": replicaEpoch, "query": replicaQuery}))); err != nil {
		return err
	}
	w.topo.Replicas = []string{w.repSrv.url}
	if w.aggSrv, err = serve(traced(w.tr, &w.agg, route(map[string]spanName{"push": aggPush, "seal": aggSeal}))); err != nil {
		return err
	}
	w.topo.Aggregator = w.aggSrv.url
	if w.dataDir, err = os.MkdirTemp(w.cfg.dir, "dist-data-"); err != nil {
		return err
	}
	agg, err := dist.NewAggregator(w.topo, dist.SealOptions{DataDir: w.dataDir})
	if err != nil {
		return err
	}
	w.agg.cur.Store(agg)
	for s := range distShards {
		if w.shards[s], err = dist.NewShard(w.topo, dist.ShardOptions{ID: fmt.Sprintf("edge-%d", s)}); err != nil {
			return err
		}
		if w.shardSrv[s], err = serve(traced(w.tr, w.shards[s], route(map[string]spanName{"reports": shardReports, "push": shardPush}))); err != nil {
			return err
		}
	}
	return nil
}

// push forces shard s to push tenant ti's delta and returns how many
// reports it shipped.
func (w *distMix) push(c *caller, ti, s int) (int, error) {
	t := w.tenants[ti]
	r, err := c.do(http.MethodPost, w.shardSrv[s].url+"/v1/"+t.name+"/push", nil, clientPush)
	if err != nil {
		r.span.commit()
		return 0, err
	}
	var res dist.PushResult
	if err := json.Unmarshal(r.body, &res); err != nil {
		r.span.commit()
		return 0, err
	}
	r.span.useful = !res.Skipped
	r.span.commit()
	w.pushed[ti][s] += res.Reports
	return res.Reports, nil
}

// seal seals tenant ti's epoch, which the aggregator fans out to the
// replica before it returns. A fan-out error fails the operation.
func (w *distMix) seal(c *caller, ti int) (dist.SealResult, time.Time, error) {
	var res dist.SealResult
	r, err := c.do(http.MethodPost, w.aggSrv.url+"/v1/"+w.tenants[ti].name+"/seal", nil, clientSeal)
	if err != nil {
		r.span.commit()
		return res, r.at, err
	}
	if err := json.Unmarshal(r.body, &res); err != nil {
		r.span.commit()
		return res, r.at, err
	}
	r.span.useful = res.Sealed
	r.span.commit()
	if len(res.Errors) > 0 {
		w.ops.failed.Add(1)
		return res, r.at, fmt.Errorf("seal %s: fan-out: %s", w.tenants[ti].name, res.Errors[0])
	}
	return res, r.at, nil
}

// accounting requires the aggregator to hold, and the replica's epoch to
// include, exactly the reports ACKed for tenant ti.
func (w *distMix) accounting(c *caller, ti, acked int) error {
	name := w.tenants[ti].name
	var as dist.AggregatorStatus
	if err := c.getJSON(http.MethodGet, w.aggSrv.url+"/v1/"+name+"/healthz", nil, &as); err != nil {
		return err
	}
	var rs dist.ReplicaStatus
	if err := c.getJSON(http.MethodGet, w.repSrv.url+"/v1/"+name+"/healthz", nil, &rs); err != nil {
		return err
	}
	if as.Received != acked || rs.EstimatorReports != acked {
		return checkf("%s accounting: aggregator received %d reports and the replica serves an epoch of %d; %d were ACKed",
			name, as.Received, rs.EstimatorReports, acked)
	}
	return nil
}

func (w *distMix) acked(ti int) int {
	n := 0
	for _, l := range w.leds[ti] {
		n += l.reports()
	}
	return n
}

// verifySetup checks the accounting and the answers of the set-up epochs,
// which hold every generated report exactly once, and returns the mean over
// tenants of the mae of their answers to the accuracy batch.
func (w *distMix) verifySetup() (float64, error) {
	c := newCaller(w.tr, w.ops)
	defer c.close()
	var maes []float64
	for ti, t := range w.tenants {
		answers, err := c.query(w.repSrv.url+"/v1/"+t.name+"/query", t.accBody)
		if err != nil {
			return 0, err
		}
		if err := w.accounting(c, ti, t.reports()); err != nil {
			return 0, err
		}
		st, err := w.agg.cur.Load().State(t.name)
		if err != nil {
			return 0, err
		}
		ref, err := reference(t.proto, st, t.acc, answers, t.name+" set-up epoch")
		if err != nil {
			return 0, err
		}
		w.refs = append(w.refs, ref)
		maes = append(maes, privmdr.MAE(answers, privmdr.TrueAnswers(t.ds, t.acc)))
	}
	return mean(maes), nil
}

func (w *distMix) window(deadline time.Time) error {
	w.start = deadline.Add(-w.cfg.window)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		w.submitLoop(deadline)
	}()
	go func() {
		defer wg.Done()
		w.epochLoop(deadline)
	}()
	wg.Wait()
	return nil
}

// submitLoop posts frames round-robin over (tenant, shard), each once the
// previous one is ACKed; each tenant cycles through its generated frames.
func (w *distMix) submitLoop(deadline time.Time) {
	c := newCaller(w.tr, w.ops)
	defer c.close()
	urls := make([][distShards]string, len(w.tenants))
	for ti, t := range w.tenants {
		for s := range distShards {
			urls[ti][s] = w.shardSrv[s].url + "/v1/" + t.name + "/reports"
		}
	}
	next := make([]int, len(w.tenants))
	for i := 0; time.Now().Before(deadline); i++ {
		ti, s := i%len(w.tenants), (i/len(w.tenants))%distShards
		t := w.tenants[ti]
		frame := t.frames[next[ti]%len(t.frames)]
		next[ti]++
		r, err := c.do(http.MethodPost, urls[ti][s], frame, clientSubmit)
		r.span.commit()
		if err != nil {
			continue
		}
		w.submitLat = append(w.submitLat, sample{r.at.Sub(w.start), r.rtt})
		w.leds[ti][s].ack(r.at)
	}
}

// epochLoop is dist-mix's epoch client. It cycles over the tenants: push both shards, seal (which fans the
// epoch out to the replica synchronously), query the replica. A traced run
// answers every inProcessEvery-th batch in-process (AnswerBatch on the
// estimator rebuilt from the tenant's set-up state) instead of querying.
func (w *distMix) epochLoop(deadline time.Time) {
	c := newCaller(w.tr, w.ops)
	defer c.close()
	pending := make([][distShards]int, len(w.tenants))
	for ti := range pending {
		pending[ti] = [distShards]int{-1, -1}
	}
	for i := 0; time.Now().Before(deadline); i++ {
		ti := i % len(w.tenants)
		t := w.tenants[ti]
		for s := range distShards {
			before := w.pushed[ti][s]
			if n, err := w.push(c, ti, s); err == nil && n > 0 && pending[ti][s] < 0 {
				pending[ti][s] = before
			}
		}
		if res, at, err := w.seal(c, ti); err == nil && res.Sealed {
			w.seals = append(w.seals, sealSeen{at: at, tenant: ti, from: pending[ti]})
			pending[ti] = [distShards]int{-1, -1}
		}
		if w.tr != nil && i%inProcessEvery == inProcessEvery-1 {
			w.ops.attempted.Add(1)
			sp := w.tr.begin(mechAnswerBatch)
			_, err := privmdr.AnswerBatch(w.refs[ti], t.batch)
			sp.commit()
			if err != nil {
				w.ops.failed.Add(1)
			}
			continue
		}
		r, err := c.do(http.MethodPost, w.repSrv.url+"/v1/"+t.name+"/query", t.batchBody, clientQuery)
		r.span.commit()
		if err == nil {
			w.queryLat = append(w.queryLat, sample{r.at.Sub(w.start), r.rtt})
		}
	}
}

// check pushes every ACKed report, restarts the aggregator from its data
// dir and requires the recovered state, sealed epoch and answers to equal
// the ones from before the close; then it seals, and requires exact
// accounting and replica answers bit-identical to a reference rebuilt from
// the aggregator's state.
func (w *distMix) check() error {
	c := newCaller(w.tr, w.ops)
	defer c.close()
	for ti := range w.tenants {
		for s := range distShards {
			if _, err := w.push(c, ti, s); err != nil {
				return err
			}
		}
	}
	type before struct {
		state   []byte
		epoch   uint64
		answers []float64
	}
	pre := make([]before, len(w.tenants))
	for ti, t := range w.tenants {
		st, err := w.agg.cur.Load().State(t.name)
		if err != nil {
			return err
		}
		if pre[ti].state, err = privmdr.EncodeState(st); err != nil {
			return err
		}
		var as dist.AggregatorStatus
		if err := c.getJSON(http.MethodGet, w.aggSrv.url+"/v1/"+t.name+"/healthz", nil, &as); err != nil {
			return err
		}
		pre[ti].epoch = as.Epoch
		if pre[ti].answers, err = c.query(w.repSrv.url+"/v1/"+t.name+"/query", t.batchBody); err != nil {
			return err
		}
	}

	onDisk, err := dirSize(w.dataDir)
	if err != nil {
		return err
	}
	if err := w.agg.cur.Load().Close(); err != nil {
		return err
	}
	sp := w.tr.begin(aggRecover)
	sp.bytes = onDisk
	agg, err := dist.NewAggregator(w.topo, dist.SealOptions{DataDir: w.dataDir})
	sp.commit()
	if err != nil {
		return checkf("restart: reopening the aggregator: %v", err)
	}
	w.agg.cur.Store(agg)

	for ti, t := range w.tenants {
		st, err := agg.State(t.name)
		if err != nil {
			return err
		}
		got, err := privmdr.EncodeState(st)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, pre[ti].state) {
			return checkf("restart: %s recovered a state of %d reports that differs from the %d-byte state before the close",
				t.name, st.Received(), len(pre[ti].state))
		}
		r, err := c.do(http.MethodGet, w.aggSrv.url+"/v1/"+t.name+"/epoch/latest", nil, noSpan)
		if err != nil {
			return err
		}
		sealed, epoch, err := privmdr.DecodeSnapshot(r.body)
		if err != nil {
			return err
		}
		if epoch != pre[ti].epoch {
			return checkf("restart: %s recovered sealed epoch %d, was %d", t.name, epoch, pre[ti].epoch)
		}
		if _, err := reference(t.proto, sealed, t.batch, pre[ti].answers, t.name+" recovered sealed epoch"); err != nil {
			return err
		}
	}

	for ti, t := range w.tenants {
		if _, _, err := w.seal(c, ti); err != nil {
			return err
		}
		acked := w.acked(ti)
		if w.cfg.withhold && ti == 0 {
			acked -= frameSize
		}
		if err := w.accounting(c, ti, acked); err != nil {
			return err
		}
		answers, err := c.query(w.repSrv.url+"/v1/"+t.name+"/query", t.batchBody)
		if err != nil {
			return err
		}
		st, err := agg.State(t.name)
		if err != nil {
			return err
		}
		if _, err := reference(t.proto, st, t.batch, answers, t.name+" final epoch"); err != nil {
			return err
		}
	}
	return nil
}

// dirSize sums the sizes of the files under dir.
func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

func (w *distMix) stats() windowStats {
	var fresh series
	for _, s := range w.seals {
		var oldest time.Time
		for sh, from := range s.from {
			if from < 0 {
				continue
			}
			if ack, ok := w.leds[s.tenant][sh].ackOf(from); ok && (oldest.IsZero() || ack.Before(oldest)) {
				oldest = ack
			}
		}
		if !oldest.IsZero() {
			fresh = append(fresh, sample{s.at.Sub(w.start), max(s.at.Sub(oldest), 0)})
		}
	}
	var acks []time.Duration
	for ti := range w.tenants {
		for _, l := range w.leds[ti] {
			acks = append(acks, sinceStart(w.start, l.acks)...)
			l.acks = nil
		}
	}
	st := summarize(w.cfg.window, acks, w.submitLat, w.queryLat, fresh)
	w.submitLat, w.queryLat, w.seals = nil, nil, nil
	return st
}

func (w *distMix) close() {
	for _, s := range w.shardSrv {
		s.close()
	}
	w.aggSrv.close()
	w.repSrv.close()
	for _, s := range w.shards {
		if s != nil {
			_ = s.Close()
		}
	}
	if agg := w.agg.cur.Load(); agg != nil {
		_ = agg.Close()
	}
	if w.replica != nil {
		_ = w.replica.Close()
	}
	if w.dataDir != "" {
		_ = os.RemoveAll(w.dataDir)
	}
}
