package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/demand"
	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/orbit"
	"repro/internal/texture"
)

func geomLatLon(lat, lon float64) geom.LatLon { return geom.LatLon{Lat: lat, Lon: lon} }

func testLibrary(t *testing.T) *texture.Library {
	t.Helper()
	lib, err := texture.Build(texture.Config{
		Grid:            geo.MustGrid(10),
		Specs:           []orbit.RepeatSpec{{P: 1, Q: 15}, {P: 1, Q: 13}},
		InclinationsDeg: []float64{53, 85, -53},
		RAANs:           6,
		Phases:          3,
		Slots:           8,
		SlotSeconds:     900,
		SubSamples:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

func TestSparsifyCoversSimpleDemand(t *testing.T) {
	lib := testLibrary(t)
	d := demand.StarlinkCustomers(demand.ScenarioOptions{
		Grid: lib.Grid, Slots: lib.Slots, SlotSeconds: lib.SlotSeconds,
		TotalSatUnits: 100,
	})
	res, err := Sparsify(Problem{Library: lib, Demand: d.Y, Epsilon: 0.85})
	if err != nil {
		t.Fatal(err)
	}
	if res.Satellites == 0 {
		t.Fatal("no satellites placed")
	}
	if res.Availability < 0.85 {
		t.Errorf("availability = %v < target 0.85", res.Availability)
	}
	// Independent verification must agree with the solver's accounting.
	if v := Verify(lib, res.X, d.Y); math.Abs(v-res.Availability) > 1e-6 {
		t.Errorf("Verify = %v, solver said %v", v, res.Availability)
	}
}

func TestSparsifySparseSolution(t *testing.T) {
	lib := testLibrary(t)
	d := demand.StarlinkCustomers(demand.ScenarioOptions{
		Grid: lib.Grid, Slots: lib.Slots, SlotSeconds: lib.SlotSeconds,
		TotalSatUnits: 20,
	})
	res, err := Sparsify(Problem{Library: lib, Demand: d.Y, Epsilon: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	// The solution must be sparse: most candidate tracks unused (x_j = 0
	// for most j, §4.1). The test library is only mildly over-complete
	// (108 candidates), so require ≤60% use; at paper scale the ratio is
	// far smaller (see EXPERIMENTS.md).
	chosen := len(res.ChosenTracks())
	if chosen*5 > 3*lib.NumTracks() {
		t.Errorf("solution not sparse: %d of %d tracks used", chosen, lib.NumTracks())
	}
	sum := 0
	for _, x := range res.X {
		if x < 0 {
			t.Fatal("negative satellite count")
		}
		sum += x
	}
	if sum != res.Satellites {
		t.Errorf("‖x‖₁ = %d, Satellites = %d", sum, res.Satellites)
	}
}

func TestSparsifyZeroDemand(t *testing.T) {
	lib := testLibrary(t)
	res, err := Sparsify(Problem{Library: lib, Demand: make([]float64, lib.UnfoldedLen()), Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Satellites != 0 {
		t.Errorf("zero demand placed %d satellites", res.Satellites)
	}
	if res.Availability != 1 {
		t.Errorf("zero demand availability = %v", res.Availability)
	}
}

func TestSparsifyUncoverableDemand(t *testing.T) {
	// Demand at the pole with only low-inclination candidates must fail
	// with ErrNoProgress and report partial availability.
	lib, err := texture.Build(texture.Config{
		Grid:            geo.MustGrid(10),
		Specs:           []orbit.RepeatSpec{{P: 1, Q: 15}},
		InclinationsDeg: []float64{20},
		RAANs:           4, Phases: 2, Slots: 4, SlotSeconds: 900, SubSamples: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, lib.UnfoldedLen())
	polar := lib.Grid.CellOf(geomLatLon(88, 10))
	for s := 0; s < lib.Slots; s++ {
		y[s*lib.Grid.NumCells()+polar] = 5
	}
	_, err = Sparsify(Problem{Library: lib, Demand: y, Epsilon: 1})
	if !errors.Is(err, ErrNoProgress) {
		t.Errorf("err = %v, want ErrNoProgress", err)
	}
}

func TestSparsifyValidation(t *testing.T) {
	lib := testLibrary(t)
	if _, err := Sparsify(Problem{Library: nil}); err == nil {
		t.Error("nil library accepted")
	}
	if _, err := Sparsify(Problem{Library: lib, Demand: []float64{1}, Epsilon: 1}); err == nil {
		t.Error("bad demand length accepted")
	}
	if _, err := Sparsify(Problem{Library: lib, Demand: make([]float64, lib.UnfoldedLen()), Epsilon: 0}); err == nil {
		t.Error("epsilon 0 accepted")
	}
	if _, err := Sparsify(Problem{Library: lib, Demand: make([]float64, lib.UnfoldedLen()), Epsilon: 1.5}); err == nil {
		t.Error("epsilon >1 accepted")
	}
}

func TestLowerEpsilonNeedsFewerSatellites(t *testing.T) {
	// Figure 15c: relaxing the availability target shrinks the network.
	lib := testLibrary(t)
	d := demand.StarlinkCustomers(demand.ScenarioOptions{
		Grid: lib.Grid, Slots: lib.Slots, SlotSeconds: lib.SlotSeconds,
		TotalSatUnits: 200,
	})
	strict, err := Sparsify(Problem{Library: lib, Demand: d.Y, Epsilon: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	relaxed, err := Sparsify(Problem{Library: lib, Demand: d.Y, Epsilon: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if relaxed.Satellites > strict.Satellites {
		t.Errorf("relaxed ε used more satellites (%d) than strict (%d)",
			relaxed.Satellites, strict.Satellites)
	}
}

func TestTraceMonotone(t *testing.T) {
	lib := testLibrary(t)
	d := demand.StarlinkCustomers(demand.ScenarioOptions{
		Grid: lib.Grid, Slots: lib.Slots, SlotSeconds: lib.SlotSeconds,
		TotalSatUnits: 100,
	})
	var cbStats []IterationStat
	res, err := Sparsify(Problem{
		Library: lib, Demand: d.Y, Epsilon: 0.9,
		OnIteration: func(it IterationStat) { cbStats = append(cbStats, it) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != len(cbStats) {
		t.Fatalf("trace %d vs callback %d", len(res.Trace), len(cbStats))
	}
	prevAvail, prevSats := 0.0, 0
	for i, it := range res.Trace {
		if it.Iteration != i+1 {
			t.Fatalf("iteration numbering broken at %d", i)
		}
		if it.Availability < prevAvail-1e-12 {
			t.Fatalf("availability decreased at iteration %d", i)
		}
		if it.Satellites <= prevSats {
			t.Fatalf("satellite count not increasing at iteration %d", i)
		}
		if it.Added < 1 {
			t.Fatalf("iteration %d added %d", i, it.Added)
		}
		prevAvail, prevSats = it.Availability, it.Satellites
	}
}

func TestMaxSatellitesCap(t *testing.T) {
	lib := testLibrary(t)
	d := demand.StarlinkCustomers(demand.ScenarioOptions{
		Grid: lib.Grid, Slots: lib.Slots, SlotSeconds: lib.SlotSeconds,
		TotalSatUnits: 500,
	})
	res, err := Sparsify(Problem{Library: lib, Demand: d.Y, Epsilon: 1, MaxSatellites: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Satellites > 10 {
		t.Errorf("cap exceeded: %d", res.Satellites)
	}
}

func TestExpandIncremental(t *testing.T) {
	// §4.1 incremental expansion: adding new demand must keep the existing
	// satellites and only add new ones.
	lib := testLibrary(t)
	base := demand.StarlinkCustomers(demand.ScenarioOptions{
		Grid: lib.Grid, Slots: lib.Slots, SlotSeconds: lib.SlotSeconds,
		TotalSatUnits: 60,
	})
	p := Problem{Library: lib, Demand: base.Y, Epsilon: 0.9}
	first, err := Sparsify(p)
	if err != nil {
		t.Fatal(err)
	}
	extra := demand.LatinAmerica(demand.ScenarioOptions{
		Grid: lib.Grid, Slots: lib.Slots, SlotSeconds: lib.SlotSeconds,
		TotalSatUnits: 60,
	})
	combined, err := Expand(p, first, extra.Y)
	if err != nil {
		t.Fatal(err)
	}
	for j := range first.X {
		if combined.X[j] < first.X[j] {
			t.Fatalf("track %d lost satellites during expansion", j)
		}
	}
	if combined.Satellites < first.Satellites {
		t.Error("expansion shrank the network")
	}
	// Combined result must satisfy the combined demand at ε.
	tot := make([]float64, len(base.Y))
	for k := range tot {
		tot[k] = base.Y[k] + extra.Y[k]
	}
	if v := Verify(lib, combined.X, tot); v < 0.9-1e-9 {
		t.Errorf("combined availability %v < 0.9", v)
	}
}

func TestSolverDeterministic(t *testing.T) {
	lib := testLibrary(t)
	d := demand.StarlinkCustomers(demand.ScenarioOptions{
		Grid: lib.Grid, Slots: lib.Slots, SlotSeconds: lib.SlotSeconds,
		TotalSatUnits: 80,
	})
	p := Problem{Library: lib, Demand: d.Y, Epsilon: 0.9}
	a, err := Sparsify(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sparsify(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Satellites != b.Satellites || a.Iterations != b.Iterations {
		t.Errorf("non-deterministic: %d/%d vs %d/%d sats/iters",
			a.Satellites, a.Iterations, b.Satellites, b.Iterations)
	}
	for j := range a.X {
		if a.X[j] != b.X[j] {
			t.Fatalf("x differs at track %d", j)
		}
	}
}
