// Package dist is the distributed serving tier: it scales one privmdr
// deployment from "one process" to a horizontally scalable service by wiring
// three roles over HTTP, all of them multi-tenant (one process hosts many
// named deployments under /v1/{tenant}/...):
//
//   - Ingest shards (NewShard) sit at the edge and accept POST
//     /v1/{tenant}/reports exactly like a QueryServer — each tenant's
//     reports fold into the shard's local collector. A background pusher
//     periodically ships the *delta* since the last push to the aggregator:
//     an O(groups×domain) count-vector difference (DiffStates on v2 states)
//     for every mechanism — all seven stream — with one carve-out: a capped
//     HIO deployment's over-cap groups ride the v3 delta as the report
//     suffix received since the last push, while its other groups still
//     diff as count vectors.
//     Every push carries the shard's ID, a random per-incarnation instance
//     nonce, and a monotonic sequence number, so a retried push is
//     idempotent and a restarted shard is never confused with its previous
//     life. An unacknowledged delta is frozen in flight and retried
//     byte-identically (with backoff) until the aggregator acknowledges it;
//     reports that arrive meanwhile ride the next delta, so nothing is lost
//     even when the aggregator applied a push whose ACK never came back.
//
//   - The aggregator / epoch coordinator (NewAggregator) merges shard deltas
//     into one collector per tenant — the standard CollectorState Merge, so
//     any shard count and any push interleaving reconstructs exactly the
//     union multiset — and seals epochs on a schedule, on a report
//     threshold, or on demand (POST /v1/{tenant}/seal). Sealing exports the
//     collector state non-destructively, stamps it with the next epoch
//     number, and fans it out to every configured query replica.
//
//   - Query replicas (NewReplica) are stateless: they ingest nothing and
//     hold only the latest installed epoch in an atomic pointer, as a
//     finalized QueryServer over the sealed state. POST /v1/{tenant}/epoch
//     installs a sealed epoch (older epochs are rejected, so fan-outs may
//     race or repeat freely); POST /v1/{tenant}/query is the current
//     epoch's QueryServer /query handler.
//
// NewTenantServer is the degenerate single-node topology: one process
// hosting N independent live QueryServers behind the same /v1/{tenant}/...
// routing, for deployments that need multi-tenancy before they need
// distribution.
//
// The golden invariant is preserved end to end: for any shard count, any
// report partition, any push interleaving, and any number of retried or
// duplicated pushes, a sealed epoch answers every query bit-identically to a
// single monolithic collector that ingested the same report multiset. The
// deltas sum to the union because count-vector merges are integer vector
// adds and report merges are multiset unions — the same order-independence
// the CollectorState design pinned for manual sharding.
package dist

import (
	"fmt"
	"net/http"

	"privmdr"
	"privmdr/internal/httpapi"
)

// Sentinel errors for the distributed wire protocol, matched with errors.Is.
// They all answer 409 Conflict: the request was well-formed but contradicts
// the receiver's sequencing or epoch state. The three push verdicts also
// carry the code a rejected push's reply names them by ("stale", "gap",
// "conflict"), which the shard reads back into the same sentinel.
var (
	// ErrStaleSeq reports a push whose sequence number is older than the
	// last one applied for that shard — a confused or rolled-back shard.
	ErrStaleSeq = httpapi.Sentinel("dist: push sequence number is stale", http.StatusConflict, "stale")
	// ErrSeqGap reports a push whose sequence number skips ahead of the next
	// expected one — the aggregator is missing deltas (it restarted, or the
	// shard re-baselined without it) and the shard must resync.
	ErrSeqGap = httpapi.Sentinel("dist: push sequence number skips ahead", http.StatusConflict, "gap")
	// ErrShardConflict reports a mid-sequence push under an instance nonce
	// that does not match the one whose pushes built the shard's applied
	// history: either two live shards share an ID, or a restarted shard's
	// state diverged from what the aggregator already merged. The aggregator
	// cannot merge such a delta without risking double counting, so it
	// rejects it and the shard surfaces the conflict loudly instead of
	// retrying quietly forever.
	ErrShardConflict = httpapi.Sentinel("dist: shard instance conflicts with applied push history", http.StatusConflict, "conflict")
	// ErrStaleEpoch reports an epoch install that is not newer than the
	// epoch a replica is already serving.
	ErrStaleEpoch = httpapi.Sentinel("dist: epoch is not newer than the serving epoch", http.StatusConflict, "")
)

// byTenant routes a /v1/{tenant}/... request to h with the named tenant
// looked up in tenants, and answers the 404 every role returns for a
// tenant outside its topology.
func byTenant[T any](tenants map[string]T, h func(http.ResponseWriter, *http.Request, T)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("tenant")
		t, ok := tenants[name]
		if !ok {
			httpapi.WriteError(w, http.StatusNotFound, fmt.Errorf("dist: unknown tenant %q", name))
			return
		}
		h(w, r, t)
	}
}

// writeParams is the GET /v1/{tenant}/params reply of the roles that do
// not delegate it to a QueryServer.
func writeParams(w http.ResponseWriter, proto privmdr.Protocol) {
	httpapi.WriteJSON(w, http.StatusOK, privmdr.ServerParams{Mechanism: proto.Name(), Params: proto.Params()})
}
