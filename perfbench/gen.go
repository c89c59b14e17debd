package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"sort"

	"repro/internal/baseline"
	"repro/internal/demand"
	"repro/internal/experiments"
	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/intent"
	"repro/internal/mpc"
	"repro/internal/orbit"
)

// digester hashes generated inputs so two runs with one seed can be
// checked to have received identical inputs.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) int(v int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
	d.h.Write(b[:])
}

func (d *digester) float(v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	d.h.Write(b[:])
}

func (d *digester) bool(v bool) {
	if v {
		d.int(1)
	} else {
		d.int(0)
	}
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// Inputs of the plan workload: the three Fig. 13 demand scenarios at
// Small scale, calibrated the way the Fig. 15 pipeline
// (experiments.RunSparsification) calibrates them — each scaled to the
// largest multiple the scaled Starlink constellation serves at ε, less
// 15% headroom — and then each (slot, cell) entry scaled by a seeded
// factor in [0.9, 1.1].
type planInputs struct {
	scenarios []*demand.Demand
	digest    string
}

// planHeadroom is the operational headroom RunSparsification leaves
// below the Starlink-calibrated demand.
const planHeadroom = 0.85

func genPlan(seed int64) *planInputs {
	rng := rand.New(rand.NewSource(seed))
	scale := experiments.Small
	supply := baseline.Supply(baseline.SupplyConfig{
		Grid: scale.Grid(), Slots: scale.Slots, SlotSeconds: scale.SlotSeconds,
		SubSamples: scale.SubSamples, Parallelism: scale.Parallelism,
	}, starlinkSatellites(scale))
	in := &planInputs{scenarios: experiments.Scenarios(scale)}
	d := newDigester()
	for _, s := range in.scenarios {
		s.CalibrateToSupply(supply, scale.Epsilon)
		s.Scale(planHeadroom)
		for k := range s.Y {
			s.Y[k] *= 0.9 + 0.2*rng.Float64()
			d.float(s.Y[k])
		}
	}
	in.digest = d.sum()
	return in
}

// starlinkSatellites is the reference constellation RunSparsification
// calibrates against: every Starlink shell thinned by the same factor
// until the total fits the scale's budget of six times its control
// satellites.
func starlinkSatellites(scale experiments.Scale) []orbit.Elements {
	shells := baseline.StarlinkShells()
	total := 0
	for _, sh := range shells {
		total += sh.Config.NumSatellites()
	}
	budget := scale.ControlSats * 6
	if budget >= total {
		return baseline.ShellSatellites(shells)
	}
	f := math.Sqrt(float64(budget) / float64(total))
	var out []orbit.Elements
	for _, sh := range shells {
		w := sh.Config
		w.Planes = max(1, int(float64(w.Planes)*f))
		w.SatsPerPlane = max(1, int(float64(w.SatsPerPlane)*f))
		out = append(out, w.Satellites()...)
	}
	return out
}

// The control and forward workloads share the 529-satellite 23×23 Walker
// shell and the 12-cell equatorial chain intent of `tinyleo-bench -run
// delta`: a lifetime horizon of 3600 s sampled every 30 s, one control
// slot per 30 s of orbital time.
const (
	lifetimeHorizon = 3600.0
	lifetimeStep    = 30.0
	chainCells      = 12
)

type chainScenario struct {
	ctl   *mpc.Controller
	topo  *intent.Topology
	sats  []orbit.Elements
	cells []int // chain cells, west to east
}

func newChainScenario() (*chainScenario, error) {
	g := geo.MustGrid(10)
	sats := baseline.WalkerConfig{
		InclinationDeg: 53, AltitudeKm: 1200, Planes: 23, SatsPerPlane: 23, PhasingF: 1,
	}.Satellites()
	topo := intent.NewTopology(g)
	var cells []int
	for i := 0; i < chainCells; i++ {
		id := g.CellOf(geom.LatLon{Lat: 5, Lon: float64(-55 + i*10)})
		topo.AddCell(id, 8)
		cells = append(cells, id)
	}
	for i := 1; i < len(cells); i++ {
		topo.Connect(cells[i-1], cells[i], 3)
	}
	ctl, err := mpc.New(mpc.Config{
		Topo: topo, Sats: sats, LifetimeHorizon: lifetimeHorizon, LifetimeStep: lifetimeStep,
		Coverage: orbit.CoverageParams{MinElevation: geom.Deg2Rad(15)},
	})
	if err != nil {
		return nil, err
	}
	return &chainScenario{ctl: ctl, topo: topo, sats: sats, cells: cells}, nil
}

// Inputs of the control workload: per-slot events, generated for a fixed
// number of slots. Event times are fractions of the slot period after the
// slot's due time; picks are uniform draws the run maps onto the links
// current at the event.

type failureEvent struct {
	at   float64
	pick float64
}

type reregEvent struct {
	at     float64
	sat    int
	reboot bool
}

type slotEvents struct {
	catchUpSteps int // > 0: the orbital clock jumps this many extra lifetime steps
	failures     []failureEvent
	reregs       []reregEvent
}

type controlInputs struct {
	slots      []slotEvents
	checkSlots []int // slots a fresh controller recompiles after the run
	digest     string
}

const (
	catchUpBlock  = 50 // one catch-up slot per block: 2%
	reregBlock    = 20 // one handover and one reboot per block: 1 per 10 slots
	checkedSlots  = 8
	failuresMean  = 1.0
	horizonSteps  = int(lifetimeHorizon / lifetimeStep)
	maxExtraSteps = 40
)

func genControl(seed int64, slots, numSats int) *controlInputs {
	rng := rand.New(rand.NewSource(seed ^ 0x636f6e74726f6c))
	in := &controlInputs{slots: make([]slotEvents, slots)}
	for s := range in.slots {
		for n := poisson(rng, failuresMean); n > 0; n-- {
			in.slots[s].failures = append(in.slots[s].failures, failureEvent{at: rng.Float64(), pick: rng.Float64()})
		}
		fs := in.slots[s].failures
		sort.Slice(fs, func(i, j int) bool { return fs[i].at < fs[j].at })
	}
	for b := 0; b < slots; b += catchUpBlock {
		if s := b + rng.Intn(catchUpBlock); s < slots {
			in.slots[s].catchUpSteps = horizonSteps + 1 + rng.Intn(maxExtraSteps)
		}
	}
	for b := 0; b < slots; b += reregBlock {
		for _, reboot := range []bool{false, true} {
			s := b + rng.Intn(reregBlock)
			ev := reregEvent{at: rng.Float64(), sat: rng.Intn(numSats), reboot: reboot}
			if s < slots {
				in.slots[s].reregs = append(in.slots[s].reregs, ev)
			}
		}
	}
	for _, s := range rng.Perm(slots) {
		if len(in.checkSlots) == checkedSlots {
			break
		}
		in.checkSlots = append(in.checkSlots, s)
	}
	d := newDigester()
	for _, ev := range in.slots {
		d.int(ev.catchUpSteps)
		d.int(len(ev.failures))
		for _, f := range ev.failures {
			d.float(f.at)
			d.float(f.pick)
		}
		d.int(len(ev.reregs))
		for _, r := range ev.reregs {
			d.float(r.at)
			d.int(r.sat)
			d.bool(r.reboot)
		}
	}
	for _, s := range in.checkSlots {
		d.int(s)
	}
	in.digest = d.sum()
	return in
}

func poisson(rng *rand.Rand, mean float64) int {
	limit, p, n := math.Exp(-mean), rng.Float64(), 0
	for p > limit {
		p *= rng.Float64()
		n++
	}
	return n
}

// Inputs of the forward workload: one flow per ordered pair of chain
// cells, in seeded order and each injected by a seeded gateway of its
// source cell, so every seed offers the same mix of route lengths; and a
// pool of injection batches the run cycles through. Each
// batch injects its packets open loop over batchWindow seconds of
// simulated time and takes a seeded set of inter-cell ISLs down for the
// middle of the window.

type flowSpec struct {
	src, dst int     // chain indices
	gwPick   float64 // which gateway of the source cell injects
}

type packetSpec struct {
	at   float64 // simulated seconds after the batch start
	flow int
	size int // payload bytes
}

type batchSpec struct {
	packets      []packetSpec
	failPicks    []float64
	downAt, upAt float64
}

type forwardInputs struct {
	flows   []flowSpec
	batches []batchSpec
	digest  string
}

const (
	flows           = chainCells * (chainCells - 1)
	batchPool       = 64
	packetsPerBatch = 512
	batchWindow     = 0.010
	bigPayload      = 1400
)

func genForward(seed int64) *forwardInputs {
	rng := rand.New(rand.NewSource(seed ^ 0x666f7277617264))
	in := &forwardInputs{}
	for src := 0; src < chainCells; src++ {
		for dst := 0; dst < chainCells; dst++ {
			if src != dst {
				in.flows = append(in.flows, flowSpec{src: src, dst: dst, gwPick: rng.Float64()})
			}
		}
	}
	rng.Shuffle(len(in.flows), func(i, j int) { in.flows[i], in.flows[j] = in.flows[j], in.flows[i] })
	for b := 0; b < batchPool; b++ {
		bs := batchSpec{
			downAt: batchWindow * (0.25 + 0.2*rng.Float64()),
			upAt:   batchWindow * (0.55 + 0.2*rng.Float64()),
		}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			bs.failPicks = append(bs.failPicks, rng.Float64())
		}
		times := make([]float64, packetsPerBatch)
		for i := range times {
			times[i] = batchWindow * rng.Float64()
		}
		sort.Float64s(times)
		for i, t := range times {
			size := 0
			if i%2 == 1 {
				size = bigPayload
			}
			bs.packets = append(bs.packets, packetSpec{at: t, flow: rng.Intn(flows), size: size})
		}
		in.batches = append(in.batches, bs)
	}
	d := newDigester()
	for _, f := range in.flows {
		d.int(f.src)
		d.int(f.dst)
		d.float(f.gwPick)
	}
	for _, b := range in.batches {
		d.float(b.downAt)
		d.float(b.upAt)
		d.int(len(b.failPicks))
		for _, p := range b.failPicks {
			d.float(p)
		}
		for _, p := range b.packets {
			d.float(p.at)
			d.int(p.flow)
			d.int(p.size)
		}
	}
	in.digest = d.sum()
	return in
}

// pickIndex maps a uniform draw in [0, 1) onto [0, n).
func pickIndex(u float64, n int) int {
	i := int(u * float64(n))
	if i >= n {
		i = n - 1
	}
	return i
}
