package main

import (
	"encoding/json"
	"fmt"
	"strings"

	"privmdr"
)

// Query batches: the fixed batch the closed loops post holds batchPerLambda
// queries per λ; the accuracy batch behind mae holds accPerLambda per λ.
// λ runs over 1..min(3, d), and every predicate covers half its domain.
const (
	batchPerLambda = 2
	accPerLambda   = 250
	queryVolume    = 0.5
)

// tenantSpec is one deployment a workload serves.
type tenantSpec struct {
	mech    string
	n, d, c int
}

// tenant is a deployment plus every input the workload feeds it, all
// generated from the workload seed before the system under test sees any
// of it.
type tenant struct {
	name   string // URL-safe tenant name
	mech   int8   // index into mechOrder
	proto  privmdr.Protocol
	frames [][]byte // every generated report once, frameSize per frame

	batch     []privmdr.Query
	batchBody []byte
	acc       []privmdr.Query
	accBody   []byte
	ds        *privmdr.Dataset // for the true answers to acc
}

func (t *tenant) reports() int { return frameSize * len(t.frames) }

// genTenant draws a dataset, runs every user's client side
// (Protocol.ClientReport, timed per frame with EncodeReports as client.gen)
// and draws the query batches.
func genTenant(tr *tracer, sp tenantSpec, seed uint64) (*tenant, error) {
	if sp.n%frameSize != 0 {
		return nil, fmt.Errorf("%s: %d users is not a whole number of %d-report frames", sp.mech, sp.n, frameSize)
	}
	ds, err := privmdr.GenerateDataset("normal", privmdr.GenOptions{N: sp.n, D: sp.d, C: sp.c, Seed: mix(seed, 1)})
	if err != nil {
		return nil, err
	}
	p := privmdr.Params{N: sp.n, D: sp.d, C: sp.c, Eps: 1, Seed: mix(seed, 2)}
	proto, err := privmdr.ProtocolByName(sp.mech, p)
	if err != nil {
		return nil, err
	}
	t := &tenant{name: strings.ToLower(proto.Name()), mech: -1, proto: proto, ds: ds}
	for i, m := range mechOrder {
		if m == proto.Name() {
			t.mech = int8(i)
		}
	}
	record := make([]int, sp.d)
	reps := make([]privmdr.Report, frameSize)
	for lo := 0; lo < sp.n; lo += frameSize {
		s := tr.begin(clientGen)
		for i := range reps {
			user := lo + i
			a, err := proto.Assignment(user)
			if err != nil {
				return nil, err
			}
			for j := range record {
				record[j] = ds.Value(j, user)
			}
			if reps[i], err = proto.ClientReport(a, record, privmdr.ClientRand(p, user)); err != nil {
				return nil, err
			}
		}
		frame, err := privmdr.EncodeReports(reps)
		if err != nil {
			return nil, err
		}
		s.commit()
		t.frames = append(t.frames, frame)
	}
	for lambda := 1; lambda <= min(3, sp.d); lambda++ {
		qs, err := privmdr.RandomWorkload(batchPerLambda, lambda, sp.d, sp.c, queryVolume, mix(seed, uint64(10+lambda)))
		if err != nil {
			return nil, err
		}
		t.batch = append(t.batch, qs...)
		if qs, err = privmdr.RandomWorkload(accPerLambda, lambda, sp.d, sp.c, queryVolume, mix(seed, uint64(20+lambda))); err != nil {
			return nil, err
		}
		t.acc = append(t.acc, qs...)
	}
	if t.batchBody, err = json.Marshal(privmdr.QueryRequest{Queries: t.batch}); err != nil {
		return nil, err
	}
	if t.accBody, err = json.Marshal(privmdr.QueryRequest{Queries: t.acc}); err != nil {
		return nil, err
	}
	return t, nil
}
