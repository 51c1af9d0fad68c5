package core

import (
	"encoding/json"
	"fmt"
	"io"

	"privmdr/internal/grid"
	"privmdr/internal/mathx"
	"privmdr/internal/mech"
	"privmdr/internal/mwem"
)

// Snapshot is the serializable state of a fitted HDG estimator: the
// post-processed grid frequencies plus the public parameters needed to
// answer queries. It contains no per-user data — everything in it is
// post-processed output of ε-LDP reports, so persisting or shipping it
// carries no additional privacy cost.
type Snapshot struct {
	Version    int         `json:"version"`
	D          int         `json:"d"`
	C          int         `json:"c"`
	G1         int         `json:"g1"`
	G2         int         `json:"g2"`
	WUMaxIters int         `json:"wu_max_iters"`
	WUTol      float64     `json:"wu_tol"`
	WUMethod   string      `json:"wu_method,omitempty"`
	Grids1     [][]float64 `json:"grids1"` // per attribute, g1 cells each
	Grids2     [][]float64 `json:"grids2"` // per pair, g2*g2 cells each
}

// snapshotVersion guards the on-disk format.
const snapshotVersion = 1

// Snapshot extracts the estimator's serializable state.
func (e *hdgEstimator) Snapshot() *Snapshot {
	s := &Snapshot{
		Version:    snapshotVersion,
		D:          e.d,
		C:          e.c,
		G1:         e.G1,
		G2:         e.G2,
		WUMaxIters: e.wu.MaxIters,
		WUTol:      e.wu.Tol,
		WUMethod:   string(e.wu.Method),
	}
	for _, g := range e.grids1 {
		s.Grids1 = append(s.Grids1, append([]float64(nil), g.Freq...))
	}
	for _, g := range e.grids2 {
		s.Grids2 = append(s.Grids2, append([]float64(nil), g.Freq...))
	}
	return s
}

// Snapshotter is implemented by estimators that can be serialized.
type Snapshotter interface {
	Snapshot() *Snapshot
}

// FromSnapshot reconstructs an HDG estimator. Atom-grid response matrices
// are rebuilt lazily on first use, exactly as after a fresh Fit.
func FromSnapshot(s *Snapshot) (mech.Estimator, error) {
	if s == nil {
		return nil, fmt.Errorf("core: nil snapshot")
	}
	if s.Version != snapshotVersion {
		return nil, fmt.Errorf("core: snapshot version %d unsupported (want %d)", s.Version, snapshotVersion)
	}
	if s.D < 2 || !mathx.IsPow2(s.C) {
		return nil, fmt.Errorf("core: snapshot has invalid shape d=%d c=%d", s.D, s.C)
	}
	if len(s.Grids1) != s.D || len(s.Grids2) != s.D*(s.D-1)/2 {
		return nil, fmt.Errorf("core: snapshot has %d 1-D and %d 2-D grids for d=%d", len(s.Grids1), len(s.Grids2), s.D)
	}
	wu := mwem.Options{MaxIters: s.WUMaxIters, Tol: s.WUTol, Method: mwem.Method(s.WUMethod)}
	if wu.Tol <= 0 {
		wu.Tol = 1e-6
	}
	var grids1 []*grid.Grid1D
	for a, freq := range s.Grids1 {
		g, err := grid.NewGrid1D(s.C, s.G1)
		if err != nil {
			return nil, err
		}
		if len(freq) != s.G1 {
			return nil, fmt.Errorf("core: snapshot 1-D grid %d has %d cells, want %d", a, len(freq), s.G1)
		}
		copy(g.Freq, freq)
		grids1 = append(grids1, g)
	}
	var grids2 []*grid.Grid2D
	for pi, freq := range s.Grids2 {
		g, err := grid.NewGrid2D(s.C, s.G2)
		if err != nil {
			return nil, err
		}
		if len(freq) != s.G2*s.G2 {
			return nil, fmt.Errorf("core: snapshot 2-D grid %d has %d cells, want %d", pi, len(freq), s.G2*s.G2)
		}
		copy(g.Freq, freq)
		grids2 = append(grids2, g)
	}
	return newHDGEstimator(s.C, s.D, s.G1, s.G2, grids1, grids2, wu, false), nil
}

// SaveEstimator writes a fitted HDG estimator as JSON. Only HDG estimators
// (from Fit or Collector.Finalize) are serializable.
func SaveEstimator(w io.Writer, est mech.Estimator) error {
	snap, ok := est.(Snapshotter)
	if !ok {
		return fmt.Errorf("core: estimator of type %T is not serializable (only HDG)", est)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(snap.Snapshot())
}

// LoadEstimator reads an estimator written by SaveEstimator.
func LoadEstimator(r io.Reader) (mech.Estimator, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("core: decoding snapshot: %w", err)
	}
	return FromSnapshot(&s)
}
