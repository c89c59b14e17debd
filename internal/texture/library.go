// Package texture builds TinyLEO's Earth-repeat ground-track ("texture")
// library (paper §4.1, Table 1): an over-complete set of candidate orbital
// slots, each with its spatiotemporal coverage over the geographic cell
// grid, stored track-major in CSR form so the synthesizer's matching
// pursuit can score any candidate from its own row.
package texture

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/orbit"
	"repro/internal/sparse"
)

// Track is one candidate orbital slot: an Earth-repeat family plus a
// concrete inclination, RAAN, and initial phase. Placing x satellites on a
// Track multiplies its coverage column by x (the paper's linear supply
// model A_t·x).
type Track struct {
	Spec     orbit.RepeatSpec
	Elements orbit.Elements
}

// InclinationDeg returns the track's inclination β in degrees.
func (t Track) InclinationDeg() float64 { return geom.Rad2Deg(t.Elements.Inclination) }

// RAANDeg returns the track's right ascension α in degrees.
func (t Track) RAANDeg() float64 { return geom.Rad2Deg(t.Elements.RAAN) }

// PhaseDeg returns the track's initial argument of latitude in degrees.
func (t Track) PhaseDeg() float64 { return geom.Rad2Deg(t.Elements.Phase) }

// Config parameterizes library generation.
type Config struct {
	Grid *geo.Grid
	// Specs are the Earth-repeat (p,q) families to include. If empty,
	// orbit.EnumerateRepeatSpecs(2, 423 km, 1,873 km) — the paper's Table 1
	// altitude band — is used.
	Specs []orbit.RepeatSpec
	// InclinationsDeg is the β grid. If empty a default ±{30,53,70,85}°
	// prograde/retrograde mix is used.
	InclinationsDeg []float64
	// RAANs is the number of evenly spaced right ascensions α in [-180,180).
	RAANs int
	// Phases is the number of evenly spaced initial phases per orbit.
	Phases int
	// Slots and SlotSeconds define the planning horizon (temporal
	// unfolding). The paper samples demand at 15-minute intervals.
	Slots       int
	SlotSeconds float64
	// SubSamples is the number of instants sampled inside each slot;
	// A(i,j) is the fraction of sampled instants at which track j covers
	// cell i, realizing the paper's fractional coverage A_t(i,j) ∈ [0,1].
	SubSamples int
	// Coverage sets the radio footprint geometry.
	Coverage orbit.CoverageParams
	// Occupied, if non-nil, filters out orbits already occupied or
	// allocated per the space-track/ITU databases the paper consults
	// (§5); return true to exclude the candidate.
	Occupied func(spec orbit.RepeatSpec, incDeg, raanDeg float64) bool
	// Parallelism bounds the number of worker goroutines (0 = NumCPU).
	Parallelism int
}

func (c *Config) fillDefaults() {
	if c.Grid == nil {
		c.Grid = geo.DefaultGrid()
	}
	if len(c.Specs) == 0 {
		c.Specs = orbit.EnumerateRepeatSpecs(2, 423e3, 1873e3)
	}
	if len(c.InclinationsDeg) == 0 {
		c.InclinationsDeg = []float64{30, 53, 70, 85, 97.6, -30, -53, -70}
	}
	if c.RAANs <= 0 {
		c.RAANs = 12
	}
	if c.Phases <= 0 {
		c.Phases = 4
	}
	if c.Slots <= 0 {
		c.Slots = 96
	}
	if c.SlotSeconds <= 0 {
		c.SlotSeconds = 900
	}
	if c.SubSamples <= 0 {
		c.SubSamples = 3
	}
	if c.Coverage.MinElevation == 0 {
		c.Coverage = orbit.DefaultCoverageParams
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.NumCPU()
	}
}

// Library is the assembled texture library: candidate tracks plus their
// coverage over the unfolded (slot × cell) space.
type Library struct {
	Grid        *geo.Grid
	Tracks      []Track
	Slots       int
	SlotSeconds float64
	Coverage    orbit.CoverageParams

	// mat is track-major: mat[j] is track j's coverage row over the
	// unfolded index space slot*m + cell (i.e. Ãᵀ of the paper).
	mat *sparse.Matrix
}

// Build enumerates candidates and computes their coverage in parallel.
func Build(cfg Config) (*Library, error) {
	cfg.fillDefaults()
	if len(cfg.Specs) == 0 {
		return nil, fmt.Errorf("texture: no repeat specs in configuration")
	}
	var tracks []Track
	for _, spec := range cfg.Specs {
		for _, incDeg := range cfg.InclinationsDeg {
			for a := 0; a < cfg.RAANs; a++ {
				raanDeg := -180 + 360*float64(a)/float64(cfg.RAANs)
				if cfg.Occupied != nil && cfg.Occupied(spec, incDeg, raanDeg) {
					continue
				}
				for ph := 0; ph < cfg.Phases; ph++ {
					phase := 2 * 3.141592653589793 * float64(ph) / float64(cfg.Phases)
					el := spec.Elements(geom.Deg2Rad(incDeg), geom.Deg2Rad(raanDeg), phase)
					tracks = append(tracks, Track{Spec: spec, Elements: el})
				}
			}
		}
	}
	if len(tracks) == 0 {
		return nil, fmt.Errorf("texture: all candidates filtered out")
	}
	m := cfg.Grid.NumCells()
	rows := make([][]int32, len(tracks))
	vals := make([][]float64, len(tracks))
	var wg sync.WaitGroup
	sem := make(chan struct{}, cfg.Parallelism)
	for j := range tracks {
		wg.Add(1)
		sem <- struct{}{}
		go func(j int) {
			defer wg.Done()
			defer func() { <-sem }()
			rows[j], vals[j] = coverageRow(cfg, tracks[j].Elements, m)
		}(j)
	}
	wg.Wait()

	lib := FromRows(cfg.Grid, cfg.Slots, cfg.SlotSeconds, tracks, rows, vals)
	lib.Coverage = cfg.Coverage
	return lib, nil
}

// FromRows assembles a library from per-track coverage rows over the
// unfolded slot*m+cell space: cols[j] holds track j's indices in strictly
// increasing order and vals[j] its capacity fractions. Build computes the
// rows from orbital geometry; FromRows also takes synthetic coverage.
func FromRows(grid *geo.Grid, slots int, slotSeconds float64, tracks []Track, cols [][]int32, vals [][]float64) *Library {
	return &Library{
		Grid:        grid,
		Tracks:      tracks,
		Slots:       slots,
		SlotSeconds: slotSeconds,
		mat:         sparse.FromRows(len(tracks), slots*grid.NumCells(), cols, vals),
	}
}

// coverageRow computes one track's unfolded coverage: sorted column indices
// slot*m+cell with fractional values. Per the paper's supply model, A_t(i,j)
// is the fraction of satellite j's radio-link capacity over cell i, so each
// satellite's coverage sums to 1 per slot (its capacity is one satellite
// unit regardless of footprint size): a wide footprint spreads capacity
// thinner, it does not multiply it.
func coverageRow(cfg Config, el orbit.Elements, m int) ([]int32, []float64) {
	lam := cfg.Coverage.FootprintRadius(el.Altitude())
	var cols []int32
	var vals []float64
	counts := map[int]int{}
	for s := 0; s < cfg.Slots; s++ {
		for k := range counts {
			delete(counts, k)
		}
		total := 0
		for ss := 0; ss < cfg.SubSamples; ss++ {
			t := (float64(s) + float64(ss)/float64(cfg.SubSamples)) * cfg.SlotSeconds
			sub := el.SubSatellitePoint(t)
			for _, cell := range cfg.Grid.CellsWithin(sub, lam) {
				counts[cell]++
				total++
			}
		}
		if total == 0 {
			continue
		}
		// Emit this slot's cells in ascending order, capacity-normalized.
		base := s * m
		cells := make([]int, 0, len(counts))
		for c := range counts {
			cells = append(cells, c)
		}
		sortInts(cells)
		for _, c := range cells {
			cols = append(cols, int32(base+c))
			vals = append(vals, float64(counts[c])/float64(total))
		}
	}
	return cols, vals
}

func sortInts(a []int) {
	// insertion sort: footprints are tiny (≈10–40 cells).
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// NumTracks returns the number of candidate tracks.
func (l *Library) NumTracks() int { return len(l.Tracks) }

// UnfoldedLen returns slots × cells, the length of demand/residual vectors.
func (l *Library) UnfoldedLen() int { return l.Slots * l.Grid.NumCells() }

// TrackCoverage iterates track j's stored coverage entries as
// (slot, cell, fraction) triples.
func (l *Library) TrackCoverage(j int, f func(slot, cell int, frac float64)) {
	m := l.Grid.NumCells()
	l.mat.Row(j, func(k int, v float64) { f(k/m, k%m, v) })
}

// TrackRow iterates track j's coverage over the flattened slot*m+cell space.
func (l *Library) TrackRow(j int, f func(idx int, frac float64)) {
	l.mat.Row(j, f)
}

// TrackNNZ returns the number of (slot, cell) pairs track j covers.
func (l *Library) TrackNNZ(j int) int { return l.mat.RowNNZ(j) }

// Supply accumulates the unfolded network supply Ã·x for integer satellite
// counts x (len NumTracks) into a dense vector of length UnfoldedLen.
func (l *Library) Supply(x []int) []float64 {
	if len(x) != len(l.Tracks) {
		panic("texture: Supply dimension mismatch")
	}
	out := make([]float64, l.UnfoldedLen())
	for j, n := range x {
		if n == 0 {
			continue
		}
		fn := float64(n)
		l.mat.Row(j, func(k int, v float64) { out[k] += fn * v })
	}
	return out
}

// NNZ returns the total stored coverage entries across all tracks.
func (l *Library) NNZ() int { return l.mat.NNZ() }

// Stats summarizes the library the way the paper's Table 1 does.
type Stats struct {
	NumTracks            int
	MinAltKm, MaxAltKm   float64
	MinPeriodMin         float64
	MaxPeriodMin         float64
	NumSpecs             int
	CoverageEntriesTotal int
}

// Stats computes Table 1-style statistics.
func (l *Library) Stats() Stats {
	s := Stats{NumTracks: len(l.Tracks), MinAltKm: 1e18, MinPeriodMin: 1e18}
	specs := map[orbit.RepeatSpec]bool{}
	for _, t := range l.Tracks {
		specs[t.Spec] = true
		alt := t.Elements.Altitude() / 1e3
		per := t.Elements.Period() / 60
		if alt < s.MinAltKm {
			s.MinAltKm = alt
		}
		if alt > s.MaxAltKm {
			s.MaxAltKm = alt
		}
		if per < s.MinPeriodMin {
			s.MinPeriodMin = per
		}
		if per > s.MaxPeriodMin {
			s.MaxPeriodMin = per
		}
	}
	s.NumSpecs = len(specs)
	s.CoverageEntriesTotal = l.NNZ()
	return s
}
