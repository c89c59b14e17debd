package mpc

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/intent"
	"repro/internal/orbit"
)

// benchController builds a 529-satellite (23×23 Walker) controller over
// the equatorial chain intent — the ISSUE's ≥500-satellite scale for the
// horizon speedup claim.
func benchController(b *testing.B) *Controller {
	b.Helper()
	g := geo.MustGrid(10)
	sats := baseline.WalkerConfig{
		InclinationDeg: 53, AltitudeKm: 1200, Planes: 23, SatsPerPlane: 23, PhasingF: 1,
	}.Satellites()
	topo := intent.NewTopology(g)
	var cells []int
	for i := 0; i < 4; i++ {
		id := g.CellOf(geom.LatLon{Lat: 5, Lon: float64(-15 + i*10)})
		topo.AddCell(id, 3)
		cells = append(cells, id)
	}
	for i := 1; i < len(cells); i++ {
		topo.Connect(cells[i-1], cells[i], 1)
	}
	c, err := New(Config{
		Topo: topo, Sats: sats, LifetimeHorizon: 600, LifetimeStep: 60,
		Coverage: orbit.CoverageParams{MinElevation: geom.Deg2Rad(15)},
	})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkCompileSlot measures one cold-cache slot compile at 529
// satellites (distinct slot times so the propagation memo never repeats).
func BenchmarkCompileSlot(b *testing.B) {
	c := benchController(b)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		c.Compile(float64(i) * 30)
	}
}

// BenchmarkCompileSlotWarm measures a fully memoized re-compile of the
// same slot — the upper bound the propagation cache buys.
func BenchmarkCompileSlotWarm(b *testing.B) {
	c := benchController(b)
	c.Compile(0)
	b.ReportAllocs()
	for b.Loop() {
		c.Compile(0)
	}
}

// BenchmarkRepair measures incremental failover repair against a compiled
// slot whose geometry is already cached (the paper's §4.2 fast path).
func BenchmarkRepair(b *testing.B) {
	c := benchController(b)
	snap := c.Compile(0)
	if len(snap.InterLinks) == 0 {
		b.Fatal("no inter-links to fail")
	}
	fail := []Link{snap.InterLinks[0]}
	b.ReportAllocs()
	for b.Loop() {
		c.Repair(snap, fail, nil, 0)
	}
}
