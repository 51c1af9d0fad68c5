package dist

import (
	"errors"
	"fmt"
	"io/fs"
	"net/http"

	"privmdr"
	"privmdr/internal/httpapi"
)

// TenantServer is the degenerate single-node topology: one process hosting
// every tenant as its own live QueryServer behind the same /v1/{tenant}/...
// routing the distributed roles use. Each tenant keeps the full QueryServer
// surface (reports, state, refresh, query, healthz — prefix-stripped and
// delegated verbatim), so a deployment can start multi-tenant on one box
// and split into shards/aggregator/replicas later without clients noticing.
// Tenants ingest independently (separate collectors), and within one tenant
// concurrent report frames scale across cores on the collector's sharded
// count stripes — the single-box topology saturates hardware, not a lock,
// before a split becomes necessary.
//
//	GET /v1/tenants           — every tenant's name and ServerStatus
//	/v1/{tenant}/{endpoint}   — the tenant's QueryServer endpoint
type TenantServer struct {
	tenants map[string]*privmdr.QueryServer
	// handlers holds each tenant's prefix-stripped QueryServer, built once
	// at construction so routing doesn't allocate a delegating handler per
	// request.
	handlers  map[string]http.Handler
	snapshots map[string]string
	names     []string
	mux       *http.ServeMux
}

// TenantStatus is one entry of the GET /v1/tenants reply.
type TenantStatus struct {
	Tenant string `json:"tenant"`
	privmdr.ServerStatus
}

// NewTenantServer builds one live QueryServer per tenant. opts applies to
// every tenant (refresh interval, min-new threshold). Call Close when the
// server is discarded.
func NewTenantServer(topo *Topology, opts privmdr.LiveOptions) (*TenantServer, error) {
	protos, err := topo.protocols()
	if err != nil {
		return nil, err
	}
	s := &TenantServer{
		tenants:   make(map[string]*privmdr.QueryServer, len(topo.Tenants)),
		handlers:  make(map[string]http.Handler, len(topo.Tenants)),
		snapshots: make(map[string]string),
	}
	for _, tc := range topo.Tenants {
		qs, err := privmdr.NewLiveQueryServer(protos[tc.Name], opts)
		if err != nil {
			s.closeTenants()
			return nil, fmt.Errorf("dist: tenant %q: %w", tc.Name, err)
		}
		s.tenants[tc.Name] = qs
		s.handlers[tc.Name] = http.StripPrefix("/v1/"+tc.Name, qs)
		s.names = append(s.names, tc.Name)
		if tc.Snapshot != "" {
			s.snapshots[tc.Name] = tc.Snapshot
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/tenants", s.handleTenants)
	mux.Handle("/v1/{tenant}/{endpoint...}", byTenant(s.handlers, func(w http.ResponseWriter, r *http.Request, h http.Handler) {
		h.ServeHTTP(w, r)
	}))
	s.mux = mux
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *TenantServer) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Tenant exposes one tenant's QueryServer for in-process use.
func (s *TenantServer) Tenant(name string) (*privmdr.QueryServer, bool) {
	qs, ok := s.tenants[name]
	return qs, ok
}

func (s *TenantServer) closeTenants() {
	for _, qs := range s.tenants {
		_ = qs.Close()
	}
}

// Close stops every tenant's refresher.
func (s *TenantServer) Close() error {
	s.closeTenants()
	return nil
}

// LoadSnapshots restores every tenant that has a configured snapshot path
// and an existing file, returning how many were restored. Missing files are
// a cold start, not an error.
func (s *TenantServer) LoadSnapshots() (int, error) {
	restored := 0
	for _, name := range s.names {
		path, ok := s.snapshots[name]
		if !ok {
			continue
		}
		if err := s.tenants[name].LoadSnapshot(path); err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue
			}
			return restored, fmt.Errorf("dist: tenant %q: %w", name, err)
		}
		restored++
	}
	return restored, nil
}

// SaveSnapshots persists every tenant that has a configured snapshot path.
func (s *TenantServer) SaveSnapshots() error {
	for _, name := range s.names {
		path, ok := s.snapshots[name]
		if !ok {
			continue
		}
		if err := s.tenants[name].SaveSnapshot(path); err != nil {
			return fmt.Errorf("dist: tenant %q: %w", name, err)
		}
	}
	return nil
}

func (s *TenantServer) handleTenants(w http.ResponseWriter, r *http.Request) {
	out := make([]TenantStatus, 0, len(s.names))
	for _, name := range s.names {
		out = append(out, TenantStatus{Tenant: name, ServerStatus: s.tenants[name].Status()})
	}
	httpapi.WriteJSON(w, http.StatusOK, out)
}
