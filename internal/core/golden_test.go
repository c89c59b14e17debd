package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/demand"
)

// goldenPath holds one "name sha256" line per case: the digest of every
// bit of the case's result. The digests were recorded with the full-scan
// argmax and pin the solver's output across changes to how it searches.
const goldenPath = "testdata/sparsify_golden.txt"

type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) int(v int) { _ = binary.Write(d.h, binary.LittleEndian, int64(v)) }

func (d *digest) float(v float64) { d.int(int(math.Float64bits(v))) }

func (d *digest) ints(v []int) {
	d.int(len(v))
	for _, x := range v {
		d.int(x)
	}
}

func (d *digest) str(s string) {
	d.int(len(s))
	d.h.Write([]byte(s))
}

func (d *digest) err(err error) {
	if err != nil {
		d.str(err.Error())
	} else {
		d.str("")
	}
}

func (d *digest) result(res *Result) {
	d.ints(res.X)
	d.int(res.Satellites)
	d.float(res.Availability)
	d.int(res.Iterations)
	d.int(res.Pruned)
	d.int(len(res.Trace))
	for _, it := range res.Trace {
		d.int(it.Iteration)
		d.int(it.Track)
		d.int(it.Added)
		d.int(it.Satellites)
		d.float(it.Availability)
	}
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// goldenCases runs every solver entry point on fixed inputs and returns
// each case's digest.
func goldenCases(t *testing.T) map[string]string {
	lib := testLibrary(t)
	opts := func(units float64) demand.ScenarioOptions {
		return demand.ScenarioOptions{Grid: lib.Grid, Slots: lib.Slots, SlotSeconds: lib.SlotSeconds, TotalSatUnits: units}
	}
	starlink := func(units float64) []float64 { return demand.StarlinkCustomers(opts(units)).Y }
	sparsify := func(p Problem) string {
		d := newDigest()
		res, err := Sparsify(p)
		d.err(err)
		if res != nil {
			d.result(res)
		}
		return d.sum()
	}
	bench := benchProblem(t)
	bl := bench.Library
	full := demand.StarlinkCustomers(demand.ScenarioOptions{
		Grid: bl.Grid, Slots: bl.Slots, SlotSeconds: bl.SlotSeconds, TotalSatUnits: 60,
	}).Y
	out := map[string]string{
		"sparsify-eps0.99": sparsify(Problem{Library: bl, Demand: full, Epsilon: 0.99}),
		// ε = 1 is out of reach here: this pins the ErrNoProgress result.
		"sparsify-eps1":    sparsify(Problem{Library: bl, Demand: full, Epsilon: 1}),
		"maxadd1":          sparsify(Problem{Library: lib, Demand: starlink(60), Epsilon: 0.9, MaxAddPerIteration: 1}),
		"maxadd16":         sparsify(Problem{Library: lib, Demand: starlink(60), Epsilon: 0.9, MaxAddPerIteration: 16}),
		"maxadd16-noprune": sparsify(Problem{Library: lib, Demand: starlink(60), Epsilon: 0.9, MaxAddPerIteration: 16, DisablePrune: true}),
		"maxsatellites":    sparsify(Problem{Library: lib, Demand: starlink(60), Epsilon: 0.9, MaxSatellites: 40}),
		"bench-eps0.8":     sparsify(bench),
	}
	bench.MaxAddPerIteration = 16
	out["bench-batched16"] = sparsify(bench)

	p := Problem{Library: lib, Demand: starlink(60), Epsilon: 0.9}
	first, err := Sparsify(p)
	if err != nil {
		t.Fatal(err)
	}
	d := newDigest()
	combined, err := Expand(p, first, demand.LatinAmerica(opts(60)).Y)
	d.err(err)
	d.result(combined)
	out["expand"] = d.sum()

	w := wrap{lib.Grid, lib.Slots, lib.SlotSeconds}
	ops := []Operator{
		{Name: "americas-isp", Demand: regionalDemand(w, 60, -40, 55, -130, -30), Epsilon: 0.8},
		{Name: "emea-isp", Demand: regionalDemand(w, 60, -40, 60, -15, 60), Epsilon: 0.8},
		{Name: "apac-isp", Demand: regionalDemand(w, 40, -45, 45, 60, 180), Epsilon: 0.9},
	}
	fed, err := Federate(Problem{Library: lib}, ops)
	if err != nil {
		t.Fatal(err)
	}
	d = newDigest()
	for _, name := range fed.OperatorNames() {
		d.str(name)
		d.ints(fed.Contributions[name])
		d.float(fed.Availability[name])
	}
	d.ints(fed.Combined)
	d.int(fed.Satellites)
	d.int(fed.IndependentSatellites)
	out["federate"] = d.sum()
	return out
}

// TestSparsifyGoldenDigests pins Sparsify, Expand and Federate results
// bit for bit: X, Trace, Iterations, Pruned and Availability.
func TestSparsifyGoldenDigests(t *testing.T) {
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, sum, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = sum
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := goldenCases(t)
	for name, sum := range got {
		if want[name] != sum {
			t.Errorf("%s: digest %s, want %q", name, sum, want[name])
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: golden case not run", name)
		}
	}
}
