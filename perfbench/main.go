// Command perfbench is the repository's seeded benchmark of the TinyLEO
// loop. It drives one workload per run — plan (texture library and
// Algorithm 1), control (the online MPC loop over a real southbound) or
// forward (the geo-segment data plane on the emulator) — from inputs
// generated from the seed, checks the outputs, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics of a traced run) as
// one JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload control --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// units of every metric the benchmark prints; BENCHMARK.json lists the
// same names.
var units = map[string]string{
	// End to end, every workload.
	"setup_s":          "s",
	"op_p50_ms":        "ms",
	"op_ok_ratio":      "ratio",
	"retained_heap_mb": "MB",

	// Per layer, from the traced run.
	"plan.plan_s":                    "s",
	"plan.satellites":                "count",
	"control.slot_p50_ms":            "ms",
	"control.slot_p99_ms":            "ms",
	"control.slot_miss_ratio":        "ratio",
	"control.repair_p50_ms":          "ms",
	"control.repair_p99_ms":          "ms",
	"control.sb_msgs_per_slot":       "count",
	"control.sb_bytes_per_slot":      "B",
	"forward.kpps":                   "kpkt/s",
	"forward.batch_p99_ms":           "ms",
	"forward.delay_p50_ms":           "ms",
	"forward.delay_p99_ms":           "ms",
	"texture.build_s":                "s",
	"texture.alloc_mb":               "MB",
	"texture.heap_mb":                "MB",
	"texture.nnz":                    "count",
	"core.sparsify_s":                "s",
	"core.iterations":                "count",
	"core.ms_per_iteration":          "ms",
	"core.alloc_mb":                  "MB",
	"core.prune_share":               "ratio",
	"demand.gen_s":                   "s",
	"orbit.cache_hit_ratio":          "ratio",
	"orbit.warm_hit_ratio":           "ratio",
	"mpc.compile_warm_p50_ms":        "ms",
	"mpc.compile_cold_p50_ms":        "ms",
	"mpc.repair_p50_us":              "us",
	"mpc.repair_p99_us":              "us",
	"mpc.links_changed_per_slot":     "count",
	"mpc.alloc_kb_per_slot":          "kB",
	"mpc.enforcement_ratio":          "ratio",
	"southbound.push_us_per_slot":    "us",
	"southbound.ack_wait_p50_ms":     "ms",
	"southbound.ack_wait_p99_ms":     "ms",
	"southbound.install_us_per_cmd":  "us",
	"southbound.delta_msgs":          "count",
	"southbound.snapshot_msgs":       "count",
	"southbound.retransmits":         "count",
	"southbound.abandoned":           "count",
	"southbound.divergent_sat_slots": "count",
	"dataplane.encap_ns_per_pkt":     "ns",
	"dataplane.inject_ns_per_pkt":    "ns",
	"dataplane.hops_per_pkt":         "count",
	"dataplane.allocs_per_pkt":       "count",
	"dataplane.alloc_bytes_per_pkt":  "B",
	"dataplane.failover_share":       "ratio",
	"dataplane.ring_hop_share":       "ratio",
	"dataplane.buffered_pkts":        "count",
	"dataplane.dropped_pkts":         "count",
	"dataplane.build_ms":             "ms",
	"netem.run_ns_per_pkt":           "ns",
	"netem.queue_drops":              "count",
	"netem.lost_in_flight":           "count",
	"intent.route_ms":                "ms",
	"harness.gen_lag_p99_ms":         "ms",
	"harness.trace_overhead_x":       "x",
	"harness.self_share":             "ratio",
	"runtime.gc_cycles":              "count",
	"runtime.gc_pause_ms":            "ms",
	"runtime.live_heap_mb":           "MB",
	"runtime.peak_heap_mb":           "MB",
}

var endToEnd = []string{"setup_s", "op_p50_ms", "op_ok_ratio", "retained_heap_mb"}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 21

// report collects one run's metrics and operation counts.
type report struct {
	metrics   map[string]float64
	attempted int
	failed    int      // operations whose output check found a wrong result
	ok        int      // operations that completed in full
	problems  []string // failed output checks, by kind
	notes     []string
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.metrics[name] = v }

// opMs sets the median of the workload's per-operation latency. Tails
// are per-layer metrics: on the reference box they follow host contention
// (a forward batch's p90 moved by a quarter between identical runs).
func (r *report) opMs(samples []float64) {
	r.set("op_p50_ms", median(samples))
	r.note("op samples %d: p50=%.4f p90=%.4f p95=%.4f p98=%.4f p99=%.4f max=%.4f ms", len(samples),
		median(samples), quantile(samples, 0.9), quantile(samples, 0.95), quantile(samples, 0.98), quantile(samples, 0.99), quantile(samples, 1))
}

// ops adds checked operations and sets the share that completed in
// full. An operation that is neither failed nor ok gave a correct but
// incomplete result: a packet lost on a failed link, or a slot that
// left a rebooted satellite not yet re-synced.
func (r *report) ops(attempted, failed, ok int) {
	r.attempted += attempted
	r.failed += failed
	r.ok += max(0, ok)
	r.set("op_ok_ratio", ratio(float64(r.ok), float64(r.attempted)))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// problem records an output check that found a wrong result.
func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: plan, control or forward")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 20, "measured run length in seconds")
	trace := fs.Int("trace", 0, "1: run traced and print the per-layer metrics instead of the end-to-end ones")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	fmt.Printf("env nproc=%d gomaxprocs=%d go=%s workload=%s seed=%d seconds=%d trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *workload, *seed, *seconds, *trace)
	budget := time.Duration(*seconds) * time.Second
	var rep *report
	var err error
	if *trace == 1 {
		rep, err = runTraced(*workload, *seed, budget)
	} else {
		rep, err = runUntraced(*workload, *seed, budget)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	names := endToEnd
	if *trace == 1 {
		names = layerNames()
	}
	out := result{
		Correct:   len(rep.problems) == 0 && rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	for _, p := range rep.problems {
		fmt.Println("check failed:", p)
	}
	for _, name := range names {
		v, ok := rep.metrics[name]
		if !ok {
			fmt.Fprintln(os.Stderr, "perfbench: metric not measured:", name)
			return 1
		}
		fmt.Printf("metric %-32s %16.6f %s\n", name, v, units[name])
		out.Metrics[name] = metricValue{Value: v, Unit: units[name]}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func layerNames() []string {
	var out []string
	for name := range units {
		if strings.Contains(name, ".") {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

var errWorkload = errors.New("unknown workload (want plan, control or forward)")

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(workload string, seed int64, budget time.Duration) (*report, error) {
	rep := newReport()
	switch workload {
	case "plan":
		var in *planInputs
		setup, err := timeSetups(func() error { in = genPlan(seed); return nil }, nil)
		if err != nil {
			return nil, err
		}
		rep.set("setup_s", setup)
		rep.note("inputs digest %s", in.digest)
		r, err := runPlan(in, budget, 1, nil)
		if err != nil {
			return nil, err
		}
		rep.set("retained_heap_mb", retainedHeapMB())
		r.endToEnd(rep)
	case "control":
		var c *controlLoop
		setup, err := timeSetups(func() (err error) {
			c, err = newControlLoop(seed, slotsFor(budget), false)
			return err
		}, func() { c.close() })
		if err != nil {
			return nil, err
		}
		defer c.close()
		rep.set("setup_s", setup)
		rep.note("inputs digest %s", c.in.digest)
		if err := c.run(nil); err != nil {
			return nil, err
		}
		rep.set("retained_heap_mb", retainedHeapMB())
		c.check(rep)
		c.endToEnd(rep)
	case "forward":
		var f *forwardRun
		setup, err := timeSetups(func() (err error) {
			f, err = newForwardRun(seed, nil)
			return err
		}, nil)
		if err != nil {
			return nil, err
		}
		rep.set("setup_s", setup)
		rep.note("inputs digest %s", f.in.digest)
		f.run(budget, 1, nil)
		rep.set("retained_heap_mb", retainedHeapMB())
		f.check(rep)
		f.endToEnd(rep)
	default:
		return nil, fmt.Errorf("%w: %q", errWorkload, workload)
	}
	return rep, nil
}

// timeSetups runs setup setupRepeats times and returns the median
// duration in seconds. teardown, when set, releases a set-up before the
// next one, untimed; the last set-up is the one the run measures.
func timeSetups(setup func() error, teardown func()) (float64, error) {
	var secs []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 && teardown != nil {
			teardown()
		}
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return median(secs), nil
}

// runTraced measures the per-layer metrics. The selected workload runs
// untraced for half the budget (operation counts, allocations and the
// untraced baseline of the tracing overhead) and then traced for the
// other half (busy and wait times from spans). The other two workloads
// run one short traced pass each, so every layer is reported on every
// workload.
func runTraced(workload string, seed int64, budget time.Duration) (*report, error) {
	switch workload {
	case "plan", "control", "forward":
	default:
		return nil, fmt.Errorf("%w: %q", errWorkload, workload)
	}
	rep := newReport()
	half := budget / 2
	gc0 := readGC()
	for _, w := range []string{"plan", "control", "forward"} {
		rec := newRecorder()
		var err error
		switch w {
		case "plan":
			err = tracePlan(rep, seed, w == workload, half, rec)
		case "control":
			err = traceControl(rep, seed, w == workload, half, rec)
		case "forward":
			err = traceForward(rep, seed, w == workload, half, rec)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w, err)
		}
		if err := dumpTrace(rec, w, workload, seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: trace dump:", err)
		}
	}
	gc1 := readGC()
	rep.set("runtime.gc_cycles", float64(gc1.cycles-gc0.cycles))
	rep.set("runtime.gc_pause_ms", float64(gc1.pauseNs-gc0.pauseNs)/1e6)
	libMB, err := libraryHeapMB()
	if err != nil {
		return nil, fmt.Errorf("texture heap: %w", err)
	}
	rep.set("texture.heap_mb", libMB)
	return rep, nil
}

// overhead records the selected workload's traced ÷ untraced median
// operation time, and the share of its root spans no layer call covers.
func overhead(rep *report, untraced, traced []float64, rec *recorder, roots ...string) {
	rep.set("harness.trace_overhead_x", ratio(median(traced), median(untraced)))
	rep.set("harness.self_share", rec.selfShare(roots...))
}

// dumpTrace writes a traced pass's spans under .bench_build/traces of the
// working directory.
func dumpTrace(rec *recorder, stage, workload string, seed int64) error {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return rec.dump(filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.tsv", workload, seed, stage)))
}
