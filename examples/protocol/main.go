// Protocol: a simulated remote deployment at full tilt. A fleet of client
// workers — standing in for users' devices — encodes and perturbs records
// into wire-format report frames; a pool of server workers decodes the
// frames and feeds the collector concurrently; the aggregator finalizes
// once the fleet drains. The result is compared against the batch Fit
// wrapper to show the two paths are the same computation.
//
// Run with:
//
//	go run ./examples/protocol
package main

import (
	"fmt"
	"log"
	"slices"
	"sync"

	"privmdr"
)

func main() {
	const (
		n       = 120_000
		d       = 4
		c       = 64
		eps     = 1.0
		seed    = 21
		clients = 8   // concurrent client-side workers
		servers = 4   // concurrent ingestion workers
		batch   = 256 // reports per wire frame
	)
	// Stand-in for the users' private records.
	ds, err := privmdr.GenerateDataset("normal", privmdr.GenOptions{N: n, D: d, C: c, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}

	// Both sides derive the identical protocol from the public parameters.
	params := privmdr.Params{N: n, D: d, C: c, Eps: eps, Seed: seed}
	proto, err := privmdr.NewHDG().Protocol(params)
	if err != nil {
		log.Fatal(err)
	}
	collector, err := proto.NewCollector()
	if err != nil {
		log.Fatal(err)
	}

	// ── Client fleet: each worker handles a slice of users, shipping wire
	// frames of `batch` reports. Only encoded bytes cross the channel. ──
	frames := make(chan []byte, 2*servers)
	var clientWG sync.WaitGroup
	for w := 0; w < clients; w++ {
		clientWG.Add(1)
		go func(w int) {
			defer clientWG.Done()
			lo := w * n / clients
			hi := (w + 1) * n / clients
			record := make([]int, d)
			pending := make([]privmdr.Report, 0, batch)
			flush := func() {
				if len(pending) == 0 {
					return
				}
				frame, err := privmdr.EncodeReports(pending)
				if err != nil {
					log.Fatal(err)
				}
				frames <- frame
				pending = pending[:0]
			}
			for u := lo; u < hi; u++ {
				a, err := proto.Assignment(u)
				if err != nil {
					log.Fatal(err)
				}
				for t := 0; t < d; t++ {
					record[t] = ds.Value(t, u)
				}
				rep, err := proto.ClientReport(a, record, privmdr.ClientRand(params, u))
				if err != nil {
					log.Fatal(err)
				}
				pending = append(pending, rep)
				if len(pending) == batch {
					flush()
				}
			}
			flush()
		}(w)
	}

	// ── Server pool: decode frames and ingest concurrently. ──
	var serverWG sync.WaitGroup
	for w := 0; w < servers; w++ {
		serverWG.Add(1)
		go func() {
			defer serverWG.Done()
			for frame := range frames {
				reports, err := privmdr.DecodeReports(frame)
				if err != nil {
					log.Fatal(err)
				}
				if err := collector.SubmitBatch(reports); err != nil {
					log.Fatal(err)
				}
			}
		}()
	}
	clientWG.Wait()
	close(frames)
	serverWG.Wait()

	fmt.Printf("ingested %d reports from %d client workers through %d server workers\n",
		collector.Received(), clients, servers)
	est, err := collector.Finalize()
	if err != nil {
		log.Fatal(err)
	}

	// The batch wrapper is the same computation: identical answers.
	fitEst, err := privmdr.Fit(privmdr.NewHDG(), ds, eps, seed)
	if err != nil {
		log.Fatal(err)
	}
	queries, err := privmdr.RandomWorkload(100, 2, d, c, 0.5, 13)
	if err != nil {
		log.Fatal(err)
	}
	protoAns, err := privmdr.Answers(est, queries)
	if err != nil {
		log.Fatal(err)
	}
	fitAns, err := privmdr.Answers(fitEst, queries)
	if err != nil {
		log.Fatal(err)
	}
	identical := slices.Equal(protoAns, fitAns)
	truth := privmdr.TrueAnswers(ds, queries)
	fmt.Printf("deployment answers identical to Fit: %v\n", identical)
	fmt.Printf("2-D workload MAE over %d queries: %.5f\n", len(queries), privmdr.MAE(protoAns, truth))
	if !identical {
		log.Fatal("deployment answers differ from Fit")
	}
}
