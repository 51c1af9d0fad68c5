// privmdr is the end-user tool: generate synthetic datasets, run an LDP
// mechanism end-to-end over a CSV of ordinal records, answer
// multi-dimensional range queries from the private aggregate — and drive
// the two sides of a real deployment separately through the protocol API
// (params / client / serve).
//
// Usage:
//
//	privmdr gen -data normal -n 100000 -d 6 -c 64 -out data.csv
//	privmdr run -in data.csv -c 64 -mech HDG -eps 1.0 -queries "0:16-47,3:0-31;1:8-39"
//	privmdr eval -in data.csv -c 64 -mech HDG -eps 1.0 -lambda 2 -num 100
//
//	privmdr params -mech HDG -n 100000 -d 6 -c 64 -eps 1.0 -seed 7 -out params.json
//	privmdr client -params params.json -in data.csv -users 0:50000 -out shard0.bin
//	privmdr client -params params.json -in data.csv -users 50000:100000 -out shard1.bin
//	privmdr serve -params params.json -reports shard0.bin,shard1.bin -queries "0:16-47,3:0-31"
//	privmdr serve -params params.json -reports shard0.bin,shard1.bin -http :8080
//
// Query syntax: semicolon-separated queries, each a comma-separated list of
// attr:lo-hi predicates (0-based inclusive).
package main

import (
	"cmp"
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"privmdr"
	"privmdr/dist"
)

// osEntropyRand returns a generator seeded from the OS entropy pool — the
// default for real client-side perturbation, where unpredictability is the
// privacy guarantee.
func osEntropyRand() (*rand.Rand, error) {
	var buf [16]byte
	if _, err := cryptorand.Read(buf[:]); err != nil {
		return nil, fmt.Errorf("client: cannot read OS entropy: %w", err)
	}
	return rand.New(rand.NewPCG(
		binary.LittleEndian.Uint64(buf[:8]),
		binary.LittleEndian.Uint64(buf[8:]),
	)), nil
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "eval":
		err = cmdEval(os.Args[2:])
	case "marginal":
		err = cmdMarginal(os.Args[2:])
	case "params":
		err = cmdParams(os.Args[2:])
	case "client":
		err = cmdClient(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "merge":
		err = cmdMerge(os.Args[2:])
	case "dist":
		err = cmdDist(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "privmdr:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Println(`privmdr — multi-dimensional range queries under local differential privacy

batch subcommands (simulate both sides in one process):
  gen       generate a synthetic dataset as CSV
  run       fit a mechanism on a CSV and answer explicit queries
  eval      fit a mechanism and report MAE on a random workload
  marginal  fit a mechanism and export a private 2-D marginal as CSV

protocol subcommands (drive the two deployment sides separately):
  params    publish the public parameters of a deployment as JSON
  client    produce the ε-LDP report shard for a range of users (wire format)
  serve     ingest report shards, finalize, and answer queries — or, with
            -http, stay up as a persistent HTTP query server (POST /reports,
            POST /finalize, POST /query; see PROTOCOL.md "Serving"). With
            -refresh the server serves live: reports are accepted forever
            and a background refresher re-estimates on the interval (epoch
            serving). With -snapshot the server warm-restarts from the state
            file if it exists and persists its state there on shutdown —
            in live mode even while queries are being served
  merge     combine exported collector states (from GET /state or serve
            -snapshot) into one state file; the merged state finalizes
            bit-identically to a single collector that saw every report
  dist      run one role of the distributed serving tier over a shared
            topology file (see PROTOCOL.md "Distributed topology"):
            -role shard accepts reports and pushes deltas to the
            aggregator; -role aggregator merges shard deltas and seals
            epochs out to the replicas; -role replica serves queries from
            the latest sealed epoch; -role server is the single-node
            multi-tenant mode (one live query server per tenant). All
            roles route per tenant under /v1/{tenant}/...

examples:
  privmdr gen -data normal -n 100000 -d 6 -c 64 -out data.csv
  privmdr run -in data.csv -c 64 -mech HDG -eps 1.0 -queries "0:16-47,3:0-31"
  privmdr eval -in data.csv -c 64 -mech HDG -eps 1.0 -lambda 2 -num 100
  privmdr marginal -in data.csv -c 64 -eps 1.0 -attrs 0,3 -out marg.csv
  privmdr params -mech HDG -n 100000 -d 6 -c 64 -eps 1.0 -seed 7 -out params.json
  privmdr client -params params.json -in data.csv -users 0:50000 -out shard0.bin
  privmdr serve -params params.json -reports shard0.bin,shard1.bin -queries "0:16-47"
  privmdr serve -params params.json -reports shard0.bin,shard1.bin -http :8080
  privmdr serve -params params.json -http :8080 -snapshot state.bin
  privmdr serve -params params.json -http :8080 -refresh 30s -min-new 1000
  privmdr merge -out merged.state shard0.state shard1.state
  privmdr dist -role aggregator -topology topo.json -http :9090 -seal 30s -data /var/lib/privmdr
  privmdr dist -role shard -id edge-1 -topology topo.json -http :8080 -push 5s
  privmdr dist -role replica -topology topo.json -http :9191 -poll 15s
  privmdr dist -role server -topology topo.json -http :8080 -refresh 30s`)
}

// paramsFile is the on-disk form of a deployment's public parameters: the
// mechanism name plus privmdr.Params. Everything in it is public — it is
// what the aggregator publishes to every client.
type paramsFile struct {
	Mechanism string `json:"mechanism"`
	privmdr.Params
}

func loadParams(path string) (paramsFile, privmdr.Protocol, error) {
	var pf paramsFile
	data, err := os.ReadFile(path)
	if err != nil {
		return pf, nil, err
	}
	if err := json.Unmarshal(data, &pf); err != nil {
		return pf, nil, fmt.Errorf("params file %s: %w", path, err)
	}
	proto, err := privmdr.ProtocolByName(pf.Mechanism, pf.Params)
	if err != nil {
		return pf, nil, err
	}
	return pf, proto, nil
}

func cmdParams(args []string) error {
	fs := flag.NewFlagSet("params", flag.ExitOnError)
	mechName := fs.String("mech", "HDG", "mechanism: Uni|MSW|CALM|HIO|LHIO|TDG|HDG")
	n := fs.Int("n", 100_000, "number of enrolled users")
	d := fs.Int("d", 6, "attributes per record")
	c := fs.Int("c", 64, "domain size (power of two)")
	eps := fs.Float64("eps", 1.0, "privacy budget epsilon")
	seed := fs.Uint64("seed", 1, "public assignment seed")
	out := fs.String("out", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	pf := paramsFile{
		Mechanism: *mechName,
		Params:    privmdr.Params{N: *n, D: *d, C: *c, Eps: *eps, Seed: *seed},
	}
	// Construct the protocol once so infeasible parameters fail here, not
	// on every client.
	if _, err := privmdr.ProtocolByName(pf.Mechanism, pf.Params); err != nil {
		return err
	}
	data, err := json.MarshalIndent(pf, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(*out, data, 0o644)
}

func cmdClient(args []string) error {
	fs := flag.NewFlagSet("client", flag.ExitOnError)
	paramsPath := fs.String("params", "", "public parameters JSON (required)")
	in := fs.String("in", "", "input CSV holding the users' records (required)")
	users := fs.String("users", "", "user range lo:hi, hi exclusive (default all)")
	sim := fs.Bool("sim", false, "derive client randomness from the public seed (reproducible SIMULATION ONLY — invertible by anyone holding the params, so no privacy)")
	out := fs.String("out", "", "output report shard (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *paramsPath == "" || *in == "" || *out == "" {
		return fmt.Errorf("client: -params, -in, and -out are required")
	}
	pf, proto, err := loadParams(*paramsPath)
	if err != nil {
		return err
	}
	ds, err := loadData(*in, pf.C)
	if err != nil {
		return err
	}
	if ds.N() != pf.N || ds.D() != pf.D {
		return fmt.Errorf("client: dataset shape (n=%d d=%d) does not match params (n=%d d=%d)",
			ds.N(), ds.D(), pf.N, pf.D)
	}
	lo, hi := 0, pf.N
	if *users != "" {
		lo, hi, err = parseUserRange(*users, pf.N)
		if err != nil {
			return err
		}
	}
	// Each iteration is one client: only the report joins the shard. By
	// default perturbation draws from OS entropy — the randomness is what
	// makes the report ε-LDP, so it must be unpredictable to anyone who
	// knows the public parameters. -sim switches to the seed-derived
	// stream for reproducible simulations.
	reports := make([]privmdr.Report, 0, hi-lo)
	record := make([]int, pf.D)
	for u := lo; u < hi; u++ {
		a, err := proto.Assignment(u)
		if err != nil {
			return err
		}
		for t := 0; t < pf.D; t++ {
			record[t] = ds.Value(t, u)
		}
		var rng *rand.Rand
		if *sim {
			rng = privmdr.ClientRand(pf.Params, u)
		} else {
			rng, err = osEntropyRand()
			if err != nil {
				return err
			}
		}
		rep, err := proto.ClientReport(a, record, rng)
		if err != nil {
			return err
		}
		reports = append(reports, rep)
	}
	frame, err := privmdr.EncodeReports(reports)
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, frame, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d reports (%d bytes) for users [%d,%d) to %s\n", len(reports), len(frame), lo, hi, *out)
	return nil
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	paramsPath := fs.String("params", "", "public parameters JSON (required)")
	reportsArg := fs.String("reports", "", "comma-separated report shards (required unless -http)")
	queries := fs.String("queries", "", "semicolon-separated queries, predicates attr:lo-hi (required unless -http)")
	save := fs.String("save", "", "also persist the finalized estimator as JSON (HDG only)")
	httpAddr := fs.String("http", "", "listen address (e.g. :8080): stay up as a persistent HTTP query server instead of answering -queries and exiting")
	finalizeNow := fs.Bool("finalize", false, "with -http: finalize right after ingesting -reports instead of on the first query")
	snapshot := fs.String("snapshot", "", "with -http: state file for warm restarts — loaded at startup if present, written on SIGINT/SIGTERM")
	refresh := fs.Duration("refresh", 0, "with -http: serve live — reports are accepted forever and a background refresher seals a new estimator epoch on this interval (see PROTOCOL.md \"Lifecycle\")")
	minNew := fs.Int("min-new", 0, "with -refresh: a scheduled refresh rebuilds only after at least this many new reports (0 → any new report)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *httpAddr != "" {
		if *paramsPath == "" {
			return fmt.Errorf("serve: -params is required")
		}
		if *queries != "" || *save != "" {
			return fmt.Errorf("serve: -queries and -save apply to the batch mode only; POST /query to the HTTP server instead")
		}
		if *refresh > 0 && *finalizeNow {
			return fmt.Errorf("serve: -finalize contradicts -refresh (a live server keeps ingesting; POST /finalize ends it explicitly)")
		}
		if *refresh < 0 {
			return fmt.Errorf("serve: -refresh must be positive")
		}
		if *minNew != 0 && *refresh == 0 {
			return fmt.Errorf("serve: -min-new requires -refresh (it thresholds the background refresher)")
		}
		return serveHTTP(*httpAddr, *paramsPath, *reportsArg, *snapshot, *finalizeNow, *refresh, *minNew)
	}
	if *finalizeNow {
		return fmt.Errorf("serve: -finalize applies to the HTTP mode only (batch mode always finalizes)")
	}
	if *snapshot != "" {
		return fmt.Errorf("serve: -snapshot applies to the HTTP mode only")
	}
	if *refresh != 0 || *minNew != 0 {
		return fmt.Errorf("serve: -refresh and -min-new apply to the HTTP mode only")
	}
	if *paramsPath == "" || *reportsArg == "" || *queries == "" {
		return fmt.Errorf("serve: -params, -reports, and -queries are required (or pass -http to run the persistent server)")
	}
	pf, proto, err := loadParams(*paramsPath)
	if err != nil {
		return err
	}
	qs, err := parseQueries(*queries)
	if err != nil {
		return err
	}
	coll, err := proto.NewCollector()
	if err != nil {
		return err
	}
	if err := ingestShards(coll, *reportsArg); err != nil {
		return err
	}
	received := coll.Received()
	est, err := coll.Finalize()
	if err != nil {
		return err
	}
	fmt.Printf("%s  n=%d (received %d reports) d=%d c=%d eps=%g\n",
		pf.Mechanism, pf.N, received, pf.D, pf.C, pf.Eps)
	answers, err := privmdr.AnswerBatch(est, qs)
	if err != nil {
		return err
	}
	for i, q := range qs {
		fmt.Printf("%-40s  %.6f\n", formatQuery(q), answers[i])
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := privmdr.SaveEstimator(f, est); err != nil {
			return err
		}
	}
	return nil
}

// ingestShards reads each comma-separated binary shard and submits it.
func ingestShards(coll privmdr.Collector, reportsArg string) error {
	for _, path := range strings.Split(reportsArg, ",") {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		frame, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		batch, err := privmdr.DecodeReports(frame)
		if err != nil {
			return fmt.Errorf("shard %s: %w", path, err)
		}
		if err := coll.SubmitBatch(batch); err != nil {
			return fmt.Errorf("shard %s: %w", path, err)
		}
	}
	return nil
}

// serveHTTP runs the persistent query server: preload any shards given on
// the command line, then serve ingestion and query traffic until killed.
// Without -refresh the lifecycle is finalize-once — the first POST /query
// (or POST /finalize, or -finalize here) freezes the estimator, after which
// report submissions are rejected. With -refresh the server is live:
// reports are accepted forever, a background refresher seals a fresh
// estimator epoch on the given interval, and queries always answer from the
// latest epoch. With a snapshot path, the server warm-restarts from the
// state file if one exists and persists its state there on SIGINT/SIGTERM —
// including mid-serving in live mode, where the snapshot also round-trips
// the epoch counter — so a crash-restart cycle loses at most the reports
// that arrived after the last snapshot.
func serveHTTP(addr, paramsPath, reportsArg, snapshotPath string, finalizeNow bool, refresh time.Duration, minNew int) error {
	pf, proto, err := loadParams(paramsPath)
	if err != nil {
		return err
	}
	live := refresh > 0
	var srv *privmdr.QueryServer
	if live {
		srv, err = privmdr.NewLiveQueryServer(proto, privmdr.LiveOptions{Refresh: refresh, MinNewReports: minNew})
	} else {
		srv, err = privmdr.NewQueryServer(proto)
	}
	if err != nil {
		return err
	}
	defer srv.Close()
	restored := false
	if snapshotPath != "" {
		switch _, err := os.Stat(snapshotPath); {
		case err == nil:
			if err := srv.LoadSnapshot(snapshotPath); err != nil {
				return err
			}
			restored = true
			fmt.Printf("warm restart: %d reports restored from %s\n", srv.Received(), snapshotPath)
		case !os.IsNotExist(err):
			return err
		}
	}
	if reportsArg != "" {
		// After a warm restart a non-empty snapshot already contains every
		// report the previous run accepted — including any -reports
		// preload, since the snapshot is taken at shutdown. Re-ingesting
		// the same shard files would double-count their users (reports are
		// anonymous, so the collector cannot deduplicate), so the preload
		// is skipped; new shards still arrive over POST /reports. A
		// zero-report snapshot provably contains no shard, so the preload
		// proceeds.
		if restored && srv.Received() > 0 {
			fmt.Printf("snapshot restored; skipping -reports preload of %s to avoid double-counting\n", reportsArg)
		} else if err := ingestShards(srv, reportsArg); err != nil {
			return err
		}
	}
	if finalizeNow {
		if _, err := srv.Finalize(); err != nil {
			return err
		}
	}
	if live && srv.Received() > 0 {
		// Seal the first epoch before taking traffic so the first query is
		// served at steady-state latency; later epochs ride the refresher.
		if epoch, _, err := srv.Refresh(); err != nil {
			return err
		} else {
			fmt.Printf("sealed epoch %d over %d preloaded reports\n", epoch, srv.Received())
		}
	}
	mode := "finalize-once"
	if live {
		mode = fmt.Sprintf("live, refresh every %v", refresh)
	}
	fmt.Printf("%s  n=%d d=%d c=%d eps=%g — serving on %s (%d reports preloaded, %s)\n",
		pf.Mechanism, pf.N, pf.D, pf.C, pf.Eps, addr, srv.Received(), mode)
	server := &http.Server{
		Addr:    addr,
		Handler: srv,
		// A long-lived public listener must not let slow clients pin
		// goroutines forever; bodies are already capped by the handler.
		ReadHeaderTimeout: 10 * time.Second,
	}
	if snapshotPath == "" {
		return server.ListenAndServe()
	}
	errc := make(chan error, 1)
	go func() { errc <- server.ListenAndServe() }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		// Drain in-flight requests first: a POST /reports acknowledged with
		// 200 during the graceful shutdown must be in the snapshot, and the
		// collector stays live through Shutdown (only Finalize closes it).
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownErr := server.Shutdown(ctx)
		if shutdownErr != nil {
			// The drain timed out: a handler may still be mid-Submit, so the
			// snapshot below can miss reports that are acknowledged after it
			// is taken. Say so rather than imply a clean cut.
			fmt.Fprintf(os.Stderr, "privmdr: shutdown did not drain cleanly (%v); snapshot may miss in-flight reports\n", shutdownErr)
		}
		fmt.Printf("\n%v: snapshotting to %s\n", s, snapshotPath)
		switch err := srv.SaveSnapshot(snapshotPath); {
		case err == nil:
			fmt.Printf("snapshot saved (%d reports)\n", srv.Received())
		case errors.Is(err, privmdr.ErrCollectorFinalized):
			// A finalized server has no collector state left; the estimator
			// is the durable artifact (privmdr serve -save).
			fmt.Println("server already finalized; snapshot skipped")
		default:
			fmt.Fprintln(os.Stderr, "privmdr: snapshot failed:", err)
		}
		return shutdownErr
	}
}

// cmdMerge combines exported collector states into one. The blobs are
// self-describing — the first one names the mechanism and Params, every
// further one must match — so no params file is needed.
func cmdMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	out := fs.String("out", "", "output merged state file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	inputs := fs.Args()
	if *out == "" || len(inputs) == 0 {
		return fmt.Errorf("merge: usage: privmdr merge -out merged.state shard0.state shard1.state ...")
	}
	var coll privmdr.StatefulCollector
	for _, path := range inputs {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		// DecodeSnapshot accepts both bare states (GET /state, finalize-once
		// snapshots) and a live server's epoch-stamped snapshot files.
		st, _, err := privmdr.DecodeSnapshot(data)
		if err != nil {
			return fmt.Errorf("state %s: %w", path, err)
		}
		if coll == nil {
			proto, err := privmdr.ProtocolByName(st.Mech, st.Params)
			if err != nil {
				return fmt.Errorf("state %s: %w", path, err)
			}
			c, err := proto.NewCollector()
			if err != nil {
				return err
			}
			sc, ok := c.(privmdr.StatefulCollector)
			if !ok {
				return fmt.Errorf("merge: %s collector does not merge state", st.Mech)
			}
			coll = sc
			fmt.Printf("%s  n=%d d=%d c=%d eps=%g seed=%d\n",
				st.Mech, st.Params.N, st.Params.D, st.Params.C, st.Params.Eps, st.Params.Seed)
		}
		if err := coll.Merge(st); err != nil {
			return fmt.Errorf("state %s: %w", path, err)
		}
		shape := "reports"
		if st.Version == 2 {
			shape = "reports as counts"
		}
		fmt.Printf("  + %s (%d %s)\n", path, st.Received(), shape)
	}
	merged, err := coll.State()
	if err != nil {
		return err
	}
	data, err := privmdr.EncodeState(merged)
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d reports (%d bytes) to %s\n", merged.Received(), len(data), *out)
	return nil
}

// parseUserRange parses "lo:hi" (hi exclusive), rejecting ranges that fall
// outside [0, n) or are empty.
func parseUserRange(s string, n int) (lo, hi int, err error) {
	parts := strings.SplitN(strings.TrimSpace(s), ":", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad user range %q (want lo:hi)", s)
	}
	lo, err = strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return 0, 0, fmt.Errorf("bad user range %q: %w", s, err)
	}
	hi, err = strconv.Atoi(strings.TrimSpace(parts[1]))
	if err != nil {
		return 0, 0, fmt.Errorf("bad user range %q: %w", s, err)
	}
	if lo < 0 || hi > n || lo >= hi {
		return 0, 0, fmt.Errorf("user range %q outside [0,%d)", s, n)
	}
	return lo, hi, nil
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	data := fs.String("data", "normal", "generator: ipums|bfive|normal|laplace|loan|acs|uniform")
	n := fs.Int("n", 100_000, "records")
	d := fs.Int("d", 6, "attributes")
	c := fs.Int("c", 64, "domain size (power of two)")
	rho := fs.Float64("rho", 0, "correlation for normal/laplace (0 = default 0.8)")
	seed := fs.Uint64("seed", 1, "seed")
	out := fs.String("out", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ds, err := privmdr.GenerateDataset(*data, privmdr.GenOptions{N: *n, D: *d, C: *c, Seed: *seed, Rho: *rho})
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return ds.SaveCSV(w)
}

func loadData(path string, c int) (*privmdr.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return privmdr.LoadCSV(f, c)
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	in := fs.String("in", "", "input CSV (required)")
	c := fs.Int("c", 64, "domain size")
	mechName := fs.String("mech", "HDG", "mechanism: Uni|MSW|CALM|HIO|LHIO|TDG|HDG")
	eps := fs.Float64("eps", 1.0, "privacy budget epsilon")
	seed := fs.Uint64("seed", 1, "seed")
	queries := fs.String("queries", "", "semicolon-separated queries, predicates attr:lo-hi (required)")
	truth := fs.Bool("truth", false, "also print exact answers (requires trust in this machine!)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *queries == "" {
		return fmt.Errorf("run: -in and -queries are required")
	}
	ds, err := loadData(*in, *c)
	if err != nil {
		return err
	}
	m, err := privmdr.MechanismByName(*mechName)
	if err != nil {
		return err
	}
	qs, err := parseQueries(*queries)
	if err != nil {
		return err
	}
	est, err := privmdr.Fit(m, ds, *eps, *seed)
	if err != nil {
		return err
	}
	var exact []float64
	if *truth {
		exact = privmdr.TrueAnswers(ds, qs)
	}
	for i, q := range qs {
		a, err := est.Answer(q)
		if err != nil {
			return err
		}
		if *truth {
			fmt.Printf("%-40s  %.6f  (exact %.6f)\n", formatQuery(q), a, exact[i])
		} else {
			fmt.Printf("%-40s  %.6f\n", formatQuery(q), a)
		}
	}
	return nil
}

func cmdEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	in := fs.String("in", "", "input CSV (required)")
	c := fs.Int("c", 64, "domain size")
	mechName := fs.String("mech", "HDG", "mechanism")
	eps := fs.Float64("eps", 1.0, "privacy budget")
	lambda := fs.Int("lambda", 2, "query dimension")
	omega := fs.Float64("omega", 0.5, "per-attribute query volume")
	num := fs.Int("num", 100, "workload size")
	seed := fs.Uint64("seed", 1, "seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("eval: -in is required")
	}
	ds, err := loadData(*in, *c)
	if err != nil {
		return err
	}
	m, err := privmdr.MechanismByName(*mechName)
	if err != nil {
		return err
	}
	qs, err := privmdr.RandomWorkload(*num, *lambda, ds.D(), ds.C, *omega, *seed)
	if err != nil {
		return err
	}
	truth := privmdr.TrueAnswers(ds, qs)
	est, err := privmdr.Fit(m, ds, *eps, *seed)
	if err != nil {
		return err
	}
	answers, err := privmdr.Answers(est, qs)
	if err != nil {
		return err
	}
	fmt.Printf("%s  n=%d d=%d c=%d eps=%g lambda=%d omega=%g |Q|=%d\n",
		m.Name(), ds.N(), ds.D(), ds.C, *eps, *lambda, *omega, len(qs))
	fmt.Printf("MAE = %.6f\n", privmdr.MAE(answers, truth))
	return nil
}

func cmdMarginal(args []string) error {
	fs := flag.NewFlagSet("marginal", flag.ExitOnError)
	in := fs.String("in", "", "input CSV (required)")
	c := fs.Int("c", 64, "domain size")
	mechName := fs.String("mech", "HDG", "mechanism")
	eps := fs.Float64("eps", 1.0, "privacy budget")
	attrs := fs.String("attrs", "0,1", "attribute pair a,b (a < b)")
	seed := fs.Uint64("seed", 1, "seed")
	out := fs.String("out", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("marginal: -in is required")
	}
	a, b, err := parsePair(*attrs)
	if err != nil {
		return err
	}
	ds, err := loadData(*in, *c)
	if err != nil {
		return err
	}
	m, err := privmdr.MechanismByName(*mechName)
	if err != nil {
		return err
	}
	est, err := privmdr.Fit(m, ds, *eps, *seed)
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	// Row per value of a, column per value of b: the private estimate of
	// Pr[a = i AND b = j], queryable with no privacy cost beyond the fit.
	for i := 0; i < *c; i++ {
		for j := 0; j < *c; j++ {
			if j > 0 {
				if _, err := fmt.Fprint(w, ","); err != nil {
					return err
				}
			}
			est2, err := est.Answer(privmdr.Query{
				{Attr: a, Lo: i, Hi: i},
				{Attr: b, Lo: j, Hi: j},
			})
			if err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%.8g", est2); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// parsePair parses "a,b" with a < b.
func parsePair(s string) (int, int, error) {
	parts := strings.SplitN(strings.TrimSpace(s), ",", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad attribute pair %q (want a,b)", s)
	}
	a, err := strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return 0, 0, fmt.Errorf("bad attribute in %q: %w", s, err)
	}
	b, err := strconv.Atoi(strings.TrimSpace(parts[1]))
	if err != nil {
		return 0, 0, fmt.Errorf("bad attribute in %q: %w", s, err)
	}
	if a >= b || a < 0 {
		return 0, 0, fmt.Errorf("attribute pair %q must satisfy 0 <= a < b", s)
	}
	return a, b, nil
}

// parseQueries parses "0:16-47,3:0-31;1:8-39" into two queries.
func parseQueries(s string) ([]privmdr.Query, error) {
	var out []privmdr.Query
	for _, qs := range strings.Split(s, ";") {
		qs = strings.TrimSpace(qs)
		if qs == "" {
			continue
		}
		var q privmdr.Query
		for _, ps := range strings.Split(qs, ",") {
			parts := strings.SplitN(strings.TrimSpace(ps), ":", 2)
			if len(parts) != 2 {
				return nil, fmt.Errorf("bad predicate %q (want attr:lo-hi)", ps)
			}
			attr, err := strconv.Atoi(parts[0])
			if err != nil {
				return nil, fmt.Errorf("bad attribute in %q: %w", ps, err)
			}
			bounds := strings.SplitN(parts[1], "-", 2)
			if len(bounds) != 2 {
				return nil, fmt.Errorf("bad interval in %q (want lo-hi)", ps)
			}
			lo, err := strconv.Atoi(bounds[0])
			if err != nil {
				return nil, fmt.Errorf("bad lower bound in %q: %w", ps, err)
			}
			hi, err := strconv.Atoi(bounds[1])
			if err != nil {
				return nil, fmt.Errorf("bad upper bound in %q: %w", ps, err)
			}
			q = append(q, privmdr.Pred{Attr: attr, Lo: lo, Hi: hi})
		}
		if len(q) == 0 {
			return nil, fmt.Errorf("empty query in %q", qs)
		}
		out = append(out, q)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no queries parsed")
	}
	return out, nil
}

func formatQuery(q privmdr.Query) string {
	parts := make([]string, len(q))
	for i, p := range q {
		parts[i] = fmt.Sprintf("a%d∈[%d,%d]", p.Attr, p.Lo, p.Hi)
	}
	return strings.Join(parts, " & ")
}

// cmdDist runs one role of the distributed serving tier: a delta-pushing
// ingest shard, the epoch-sealing aggregator, a stateless query replica, or
// the single-node multi-tenant server. Every role loads the same topology
// file and serves its tenants under /v1/{tenant}/...; shutdown is graceful
// per role (shards flush their un-shipped deltas, the aggregator seals a
// final epoch, the multi-tenant server snapshots).
func cmdDist(args []string) error {
	fs := flag.NewFlagSet("dist", flag.ExitOnError)
	role := fs.String("role", "", "shard | aggregator | replica | server")
	topoPath := fs.String("topology", "", "topology JSON file (tenants, aggregator URL, replica URLs)")
	addr := fs.String("http", "", "listen address, e.g. :8080")
	id := fs.String("id", "", "shard: this shard's stable identity (required)")
	aggURL := fs.String("aggregator", "", "shard/replica: override the topology's aggregator URL")
	push := fs.Duration("push", 5*time.Second, "shard: delta push interval (0 = manual pushes only)")
	minPush := fs.Int("min-push", 0, "shard: min new reports before a scheduled push bothers")
	seal := fs.Duration("seal", 30*time.Second, "aggregator: epoch seal interval (0 = threshold/manual only)")
	minNew := fs.Int("min-new", 0, "aggregator: seal as soon as this many new reports merged; server: refresh threshold")
	dataDir := fs.String("data", "", "aggregator: durability dir (journal + snapshots; empty = in-memory only)")
	syncEvery := fs.Duration("sync", 0, "aggregator: batch journal fsyncs at this cadence (0 = fsync every push)")
	poll := fs.Duration("poll", 15*time.Second, "replica: catch-up poll interval for the latest sealed epoch (0 = push-only)")
	refresh := fs.Duration("refresh", 0, "server: live refresh interval per tenant")
	timeout := fs.Duration("timeout", 10*time.Second, "outbound request timeout (pushes, fan-out)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *topoPath == "" || *addr == "" {
		return fmt.Errorf("dist requires -topology and -http")
	}
	topo, err := dist.LoadTopology(*topoPath)
	if err != nil {
		return err
	}

	var handler http.Handler
	var drain func(context.Context) // best-effort graceful work before exit
	switch *role {
	case "shard":
		if *id == "" {
			return fmt.Errorf("dist -role shard requires -id")
		}
		shard, err := dist.NewShard(topo, dist.ShardOptions{
			ID: *id, Aggregator: *aggURL, PushInterval: *push, MinPush: *minPush, Timeout: *timeout,
		})
		if err != nil {
			return err
		}
		defer shard.Close()
		handler = shard
		drain = func(ctx context.Context) {
			if err := shard.Flush(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "privmdr: final flush:", err)
			} else {
				fmt.Println("final deltas flushed to the aggregator")
			}
		}
		fmt.Printf("dist shard %s (%d tenants) — pushing to %s every %v, serving on %s\n",
			*id, len(topo.Tenants), cmp.Or(*aggURL, topo.Aggregator), *push, *addr)
	case "aggregator":
		agg, err := dist.NewAggregator(topo, dist.SealOptions{
			Interval: *seal, MinNewReports: *minNew, Timeout: *timeout,
			DataDir: *dataDir, SyncInterval: *syncEvery,
		})
		if err != nil {
			return err
		}
		defer agg.Close()
		handler = agg
		drain = func(ctx context.Context) {
			for _, tc := range topo.Tenants {
				if res, err := agg.Seal(ctx, tc.Name, true); err != nil {
					fmt.Fprintf(os.Stderr, "privmdr: final seal %s: %v\n", tc.Name, err)
				} else if res.Sealed {
					fmt.Printf("sealed final epoch %d for %s (%d reports, %d replicas)\n",
						res.Epoch, tc.Name, res.Reports, res.Fanout)
				}
			}
		}
		durability := "in-memory"
		if *dataDir != "" {
			durability = "journaling to " + *dataDir
		}
		fmt.Printf("dist aggregator (%d tenants, %d replicas, %s) — sealing every %v, serving on %s\n",
			len(topo.Tenants), len(topo.Replicas), durability, *seal, *addr)
	case "replica":
		rep, err := dist.NewReplica(topo, dist.ReplicaOptions{
			Aggregator: *aggURL, Poll: *poll, Timeout: *timeout,
		})
		if err != nil {
			return err
		}
		defer rep.Close()
		handler = rep
		fmt.Printf("dist replica (%d tenants) — serving on %s, catching up from %s every %v\n",
			len(topo.Tenants), *addr, cmp.Or(*aggURL, topo.Aggregator), *poll)
	case "server":
		srv, err := dist.NewTenantServer(topo, privmdr.LiveOptions{Refresh: *refresh, MinNewReports: *minNew})
		if err != nil {
			return err
		}
		defer srv.Close()
		if restored, err := srv.LoadSnapshots(); err != nil {
			return err
		} else if restored > 0 {
			fmt.Printf("restored %d tenant snapshot(s)\n", restored)
		}
		handler = srv
		drain = func(context.Context) {
			if err := srv.SaveSnapshots(); err != nil {
				fmt.Fprintln(os.Stderr, "privmdr: tenant snapshots:", err)
			}
		}
		fmt.Printf("dist server (%d tenants, live) — serving on %s\n", len(topo.Tenants), *addr)
	case "":
		return fmt.Errorf("dist requires -role shard|aggregator|replica|server")
	default:
		return fmt.Errorf("unknown dist role %q (want shard, aggregator, replica, or server)", *role)
	}

	server := &http.Server{Addr: *addr, Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	if drain == nil {
		return server.ListenAndServe()
	}
	errc := make(chan error, 1)
	go func() { errc <- server.ListenAndServe() }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		// Drain in-flight requests so acknowledged reports are inside the
		// final flush/seal/snapshot, then run the role's graceful step.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr := server.Shutdown(ctx)
		if shutdownErr != nil {
			fmt.Fprintf(os.Stderr, "privmdr: shutdown did not drain cleanly: %v\n", shutdownErr)
		}
		fmt.Printf("\n%v: draining\n", s)
		drain(ctx)
		return shutdownErr
	}
}
