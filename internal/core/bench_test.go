package core

import (
	"testing"

	"repro/internal/demand"
	"repro/internal/geo"
	"repro/internal/orbit"
	"repro/internal/texture"
)

func benchProblem(tb testing.TB) Problem {
	tb.Helper()
	lib, err := texture.Build(texture.Config{
		Grid:            geo.MustGrid(10),
		Specs:           orbit.EnumerateRepeatSpecs(1, 500e3, 1873e3),
		InclinationsDeg: []float64{30, 53, 70, -53},
		RAANs:           8, Phases: 3, Slots: 8, SlotSeconds: 900, SubSamples: 2,
	})
	if err != nil {
		tb.Fatal(err)
	}
	d := demand.StarlinkCustomers(demand.ScenarioOptions{
		Grid: lib.Grid, Slots: lib.Slots, SlotSeconds: lib.SlotSeconds,
		TotalSatUnits: 80,
	})
	return Problem{Library: lib, Demand: d.Y, Epsilon: 0.8}
}

// BenchmarkSparsify measures a full Algorithm 1 run (the paper reports
// 6.5–7.7 h at full scale vs >2 months for exact ILP; this is the
// laptop-scale equivalent).
func BenchmarkSparsify(b *testing.B) {
	p := benchProblem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sparsify(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSparsifyBatched measures the fast batched-add configuration.
func BenchmarkSparsifyBatched(b *testing.B) {
	p := benchProblem(b)
	p.MaxAddPerIteration = 16
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sparsify(p); err != nil {
			b.Fatal(err)
		}
	}
}
