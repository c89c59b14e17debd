package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/texture"
)

// planEpsilon is the availability target Algorithm 1 runs at.
const planEpsilon = 0.99

// verifyTolerance absorbs float rounding between the solver's running
// availability and core.Verify's from-scratch recomputation (the solver
// itself stops within 1e-9 of the target).
const verifyTolerance = 1e-9

// planRun is what one run of the plan workload measured. A pass builds
// the texture library and runs Algorithm 1 on every scenario.
type planRun struct {
	passMs     []float64 // texture.Build plus every Sparsify, per pass
	scenarios  int
	failed     int
	satellites []int // per pass, all scenarios
	iterations []int // per pass, all scenarios
	added      int   // satellites the greedy phase placed
	pruned     int
	nnz        int
	texAlloc   []float64 // MB per build
	coreAlloc  []float64 // MB per pass
	heap       *heapProbe

	// The last pass's library and results, held between passes as a
	// planner holds its output, so the retained heap after a run is
	// theirs. A pass drops them before it builds.
	keptLib     *texture.Library
	keptResults []*core.Result

	// Per scenario, in input order: name, solver iterations of the last
	// pass and Sparsify time of every pass.
	names      []string
	scenIters  []int
	scenarioMs [][]float64
}

// runPlan runs passes until the budget would be exceeded by one more pass
// of the last pass's length, and at least minPasses.
func runPlan(in *planInputs, budget time.Duration, minPasses int, rec *recorder) (*planRun, error) {
	r := &planRun{
		heap:       newHeapProbe(),
		scenIters:  make([]int, len(in.scenarios)),
		scenarioMs: make([][]float64, len(in.scenarios)),
	}
	for _, dem := range in.scenarios {
		r.names = append(r.names, dem.Name)
	}
	cfg := experiments.Small.LibraryConfig()
	start := time.Now()
	var last time.Duration
	for len(r.passMs) < minPasses || time.Since(start)+last <= budget {
		passStart := time.Now()
		if err := r.pass(cfg, in, rec); err != nil {
			return nil, err
		}
		last = time.Since(passStart)
	}
	return r, nil
}

// pass builds the library and runs Algorithm 1 on every scenario. Its
// time is that of the layer calls alone; the output checks and heap
// readings between them are not timed.
func (r *planRun) pass(cfg texture.Config, in *planInputs, rec *recorder) error {
	rec.begin("plan.pass", rec.newTrace())
	defer rec.end()
	r.keptLib, r.keptResults = nil, nil
	b0, _ := r.heap.allocated()
	t0 := time.Now()
	rec.begin("texture.build", 0)
	lib, err := texture.Build(cfg)
	rec.end()
	build := time.Since(t0)
	if err != nil {
		return fmt.Errorf("texture build: %w", err)
	}
	b1, _ := r.heap.allocated()
	r.texAlloc = append(r.texAlloc, float64(b1-b0)/1e6)
	r.nnz = lib.NNZ()
	r.heap.observe()

	sats, iters := 0, 0
	var sparsify time.Duration
	var coreAlloc uint64
	for i, dem := range in.scenarios {
		r.scenarios++
		rec.begin("plan.scenario", rec.newTrace())
		a0, _ := r.heap.allocated()
		s0 := time.Now()
		rec.begin("core.sparsify", 0)
		res, err := core.Sparsify(core.Problem{Library: lib, Demand: dem.Y, Epsilon: planEpsilon})
		rec.end()
		took := time.Since(s0)
		sparsify += took
		a1, _ := r.heap.allocated()
		coreAlloc += a1 - a0
		rec.end()
		r.heap.observe()
		r.scenarioMs[i] = append(r.scenarioMs[i], ms(took))
		r.keptResults = append(r.keptResults, res)
		if !planOK(lib, dem.Y, res, err) {
			r.failed++
			continue
		}
		r.scenIters[i] = res.Iterations
		sats += res.Satellites
		iters += res.Iterations
		r.added += res.Satellites + res.Pruned
		r.pruned += res.Pruned
	}
	r.keptLib = lib
	r.passMs = append(r.passMs, ms(build+sparsify))
	r.coreAlloc = append(r.coreAlloc, float64(coreAlloc)/1e6)
	r.satellites = append(r.satellites, sats)
	r.iterations = append(r.iterations, iters)
	return nil
}

// planOK is the plan workload's output check: the solver succeeded, the
// chosen constellation meets ε when recomputed from scratch, and the
// reported size is the sum of the per-track counts.
func planOK(lib *texture.Library, y []float64, res *core.Result, err error) bool {
	if err != nil || res == nil {
		return false
	}
	sum := 0
	for _, x := range res.X {
		sum += x
	}
	return sum == res.Satellites && core.Verify(lib, res.X, y) >= planEpsilon-verifyTolerance
}

func (r *planRun) endToEnd(rep *report) {
	rep.opMs(r.passMs)
	rep.ops(r.scenarios, r.failed, r.scenarios-r.failed)
	r.heap.note(rep)
	rep.note("plan_s %.4f s (median pass: texture.Build + one Sparsify per scenario)", median(r.passMs)/1e3)
	rep.note("plan_satellites %d count, iterations per pass %d", lastInt(r.satellites), lastInt(r.iterations))
	for i, name := range r.names {
		rep.note("scenario %s: %d iterations, Sparsify median %.1f ms", name, r.scenIters[i], median(r.scenarioMs[i]))
	}
}

func (r *planRun) layers(rep *report, rec *recorder) {
	rep.set("plan.plan_s", median(r.passMs)/1e3)
	rep.set("plan.satellites", float64(lastInt(r.satellites)))
	rep.set("texture.build_s", rec.quantileMs("texture.build", 0.5)/1e3)
	rep.set("texture.alloc_mb", median(r.texAlloc))
	rep.set("texture.nnz", float64(r.nnz))
	sparsifyMs := ratio(float64(rec.agg("core.sparsify").total)/1e6, float64(rec.agg("plan.pass").count))
	rep.set("core.sparsify_s", sparsifyMs/1e3)
	iters := float64(lastInt(r.iterations))
	rep.set("core.iterations", iters)
	rep.set("core.ms_per_iteration", ratio(sparsifyMs, iters))
	rep.set("core.alloc_mb", median(r.coreAlloc))
	rep.set("core.prune_share", ratio(float64(r.pruned), float64(r.added)))
}

func lastInt(xs []int) int {
	if len(xs) == 0 {
		return 0
	}
	return xs[len(xs)-1]
}

// libraryHeapMB is the live heap a built Small library holds, between
// two forced collections. Traced runs measure it after their GC counters
// are read and outside any timed call, so the forced collections show
// in no other metric.
func libraryHeapMB() (float64, error) {
	before := retainedHeapMB()
	lib, err := texture.Build(experiments.Small.LibraryConfig())
	if err != nil {
		return 0, err
	}
	after := retainedHeapMB()
	runtime.KeepAlive(lib)
	return after - before, nil
}

// tracePlan runs the plan stage of a traced run.
func tracePlan(rep *report, seed int64, selected bool, half time.Duration, rec *recorder) error {
	t0 := time.Now()
	rec.begin("demand.gen", rec.newTrace())
	in := genPlan(seed)
	rec.end()
	rep.set("demand.gen_s", time.Since(t0).Seconds())
	var untraced *planRun
	if selected {
		u, err := runPlan(in, half, 1, nil)
		if err != nil {
			return err
		}
		untraced = u
	}
	budget := time.Duration(0)
	if selected {
		budget = half
	}
	tr, err := runPlan(in, budget, 1, rec)
	if err != nil {
		return err
	}
	if untraced == nil {
		untraced = tr
	}
	untraced.layers(rep, rec)
	if selected {
		overhead(rep, untraced.passMs, tr.passMs, rec, "plan.pass")
		untraced.heap.layers(rep)
	}
	rep.note("plan inputs digest %s", in.digest)
	rep.ops(tr.scenarios, tr.failed, tr.scenarios-tr.failed)
	return nil
}
