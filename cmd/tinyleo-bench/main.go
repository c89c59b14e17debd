// Command tinyleo-bench regenerates the paper's evaluation tables and
// figures (§6). Each experiment prints the same rows/series the paper
// reports; see EXPERIMENTS.md for the paper-vs-measured record.
//
// Usage:
//
//	tinyleo-bench [-scale small|paper] [-run all|table1|fig3|fig4|fig9|fig13|
//	               fig14|fig15|fig15d|fig15e|fig16|fig17|fig17d|fig18|fig19a|
//	               fig19bcd|delta|chaos|southbound|fleet] [-delta-slots N]
//	               [-chaos-scenario all|NAME] [-chaos-seed N]
//	               [-chaos-fleet-out f.json] [-csv] [-bench-json out.json]
//	               [-metrics-addr host:port] [-trace-out file.jsonl]
//	               [-record-out flight.jsonl.gz] [-pprof]
//
// -run delta measures the incremental MPC compiler (mpc.DeltaCompile): a
// full Compile chain versus a warm-started delta chain over the same
// control slots at the 529-satellite scenario, verifying byte-identical
// plans and reporting the warm-slot speedup, warm-hit ratio, and the
// southbound bytes of per-satellite slot-delta batches versus per-link
// SetISL pushes; its rows feed the CI regression gate via -bench-json.
//
// -run chaos executes the seeded fault-injection campaigns (internal/chaos):
// ISL failures, loss storms, agent crashes, southbound connection drops,
// and demand surges driven through MPC repair, southbound enforcement, and
// data-plane failover, scored against the flight recorder's SLO rules.
// Same -chaos-seed → byte-identical results, including the fleet
// telemetry health view (-chaos-fleet-out dumps each scenario's final
// constellation summary as a deterministic JSON artifact). Repairs are
// enforced as per-satellite slot-delta batches.
//
// -run fleet benchmarks the fleet telemetry plane itself: agents hammer
// their registries while flushing delta reports into a controller-side
// aggregator over real TCP, once with telemetry off and once on; the
// reported overhead ratio feeds the CI regression gate via -bench-json.
//
// -run southbound benchmarks the real-TCP southbound command path twice
// (tracing off, then on) and reports the tracing overhead ratio; its
// rows feed the CI regression gate via -bench-json. -pprof serves
// net/http/pprof under /debug/pprof/ on the -metrics-addr listener.
//
// Telemetry: -metrics-addr serves live Prometheus text on /metrics (plus
// /metrics.json, /healthz, /trace, /trace.chrome) while the experiments
// run — solver iterations, MPC compile latency, data-plane counters move
// in real time; -trace-out writes the span ring as JSONL when done;
// -record-out writes a flight recording for tinyleo-ctl inspect;
// -bench-json flattens every emitted table into a
// [{"name","value","unit"}] array (schema: EXPERIMENTS.md) for
// continuous-benchmarking dashboards. All output files flush on
// SIGINT/SIGTERM, so an interrupted sweep keeps its partial results.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/chaos"
	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/flightrec"
	"repro/internal/texture"
)

func main() {
	scaleName := flag.String("scale", "small", "experiment scale: small or paper")
	run := flag.String("run", "all", "comma-separated experiment list (all, table1, fig3, fig4, fig9, fig13, fig14, fig15, fig15d, fig15e, fig16, fig17, fig17d, fig18, fig19a, fig19bcd, delta, chaos, southbound, fleet, ablations, discussion)")
	deltaSlots := flag.Int("delta-slots", 0, "control slots for the -run delta incremental-compile sweep (0 = 12)")
	chaosScenario := flag.String("chaos-scenario", "all", "chaos scenario for -run chaos (all, baseline, isl-storm, agent-crash, conn-flap, surge, mixed)")
	chaosSeed := flag.Int64("chaos-seed", 42, "campaign seed for -run chaos (same seed => identical results)")
	chaosFleetOut := flag.String("chaos-fleet-out", "", "write each chaos scenario's final fleet telemetry summary as JSON to this file (deterministic for a given -chaos-seed)")
	sbAgents := flag.Int("sb-agents", 4, "in-process agents for -run southbound")
	sbCmds := flag.Int("sb-cmds", 2000, "commands to push for -run southbound")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /healthz, /trace on this address while experiments run (empty = telemetry off)")
	traceOut := flag.String("trace-out", "", "write the span trace as JSONL to this file when done")
	recordOut := flag.String("record-out", "", "write a flight recording to this file when done (.gz = gzip)")
	benchJSON := flag.String("bench-json", "", "write every emitted table as a flat [{name,value,unit}] JSON array to this file")
	pprof := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ on -metrics-addr")
	flag.Parse()

	defer cli.Flush()
	cli.TrapSignals()

	if *metricsAddr != "" || *traceOut != "" || *recordOut != "" {
		obs.Enable()
		obs.EnableTracing(0)
	}
	if *pprof {
		if *metricsAddr == "" {
			cli.Fatalf("tinyleo-bench: -pprof needs -metrics-addr to serve on\n")
		}
		obs.EnablePprof()
	}
	if *recordOut != "" {
		if err := flightrec.Enable(flightrec.Options{}); err != nil {
			cli.Fatalf("tinyleo-bench: flight recorder: %v\n", err)
		}
		cli.AtExit(func() {
			summary, err := flightrec.SaveRecording(*recordOut, "tinyleo-bench")
			if err != nil {
				fmt.Fprintf(os.Stderr, "tinyleo-bench: recording: %v\n", err)
				return
			}
			fmt.Fprintf(os.Stderr, "recording: wrote %s to %s\n", summary, *recordOut)
		})
	}
	if *metricsAddr != "" {
		srv, err := obs.Serve(*metricsAddr, obs.Default())
		if err != nil {
			cli.Fatalf("tinyleo-bench: %v\n", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "telemetry on http://%s/metrics\n", srv.Addr())
	}
	if *traceOut != "" {
		cli.AtExit(func() {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tinyleo-bench: trace: %v\n", err)
				return
			}
			defer f.Close()
			if err := obs.Trace().WriteJSONL(f); err != nil {
				fmt.Fprintf(os.Stderr, "tinyleo-bench: trace: %v\n", err)
				return
			}
			fmt.Fprintf(os.Stderr, "trace: wrote %s to %s\n", obs.Trace().WriteFileSummary(), *traceOut)
		})
	}

	scale, ok := experiments.ScaleByName(*scaleName)
	if !ok {
		fmt.Fprintf(os.Stderr, "tinyleo-bench: unknown scale %q\n", *scaleName)
		cli.Exit(2)
	}
	sel := map[string]bool{}
	for _, name := range strings.Split(*run, ",") {
		sel[strings.TrimSpace(name)] = true
	}
	want := func(name string) bool { return sel["all"] || sel[name] }
	var emitted []*metrics.Table
	if *benchJSON != "" {
		cli.AtExit(func() {
			if err := writeBenchJSON(*benchJSON, emitted); err != nil {
				fmt.Fprintf(os.Stderr, "tinyleo-bench: %v\n", err)
				return
			}
			fmt.Fprintf(os.Stderr, "bench-json: wrote %d tables to %s\n", len(emitted), *benchJSON)
		})
	}
	emit := func(tabs ...*metrics.Table) {
		for _, t := range tabs {
			if *csv {
				fmt.Printf("# %s\n", t.Title)
				t.RenderCSV(os.Stdout)
			} else {
				t.Render(os.Stdout)
			}
			fmt.Println()
			emitted = append(emitted, t)
		}
	}
	fail := func(name string, err error) {
		cli.Fatalf("tinyleo-bench: %s: %v\n", name, err)
	}

	needLib := want("table1") || want("fig9") || want("fig13") || want("fig14") ||
		want("fig15") || want("fig15d") || want("fig15e") || want("fig19a") ||
		want("ablations") || want("discussion")

	start := time.Now()
	var library *texture.Library
	if needLib {
		fmt.Fprintf(os.Stderr, "building texture library (%s scale)...\n", scale.Name)
		l, err := scale.BuildLibrary()
		if err != nil {
			fail("library", err)
		}
		library = l
		fmt.Fprintf(os.Stderr, "library: %d tracks, %d coverage entries (%.1fs)\n",
			l.NumTracks(), l.NNZ(), time.Since(start).Seconds())
	}

	if want("table1") {
		emit(experiments.Table1(library))
	}
	if want("fig3") {
		emit(experiments.Figure3(scale)...)
	}
	if want("fig4") {
		emit(experiments.Figure4(scale)...)
	}

	needOuts := want("fig9") || want("fig13") || want("fig14") || want("fig15") ||
		want("fig15e") || want("fig19a") || want("discussion")
	var outs []*experiments.SparsifyOutcome
	if needOuts {
		fmt.Fprintf(os.Stderr, "running sparsification pipeline...\n")
		o, err := experiments.RunSparsification(scale, library)
		if err != nil {
			fail("sparsification", err)
		}
		outs = o
	}
	if want("fig9") {
		tiny := experiments.RealizeConstellation(outs[0].Lib, outs[0].TinyLEO)
		side := 1
		for side*side < len(tiny) {
			side++
		}
		uniform := baseline.WalkerConfig{
			InclinationDeg: 53, AltitudeKm: 550, Planes: side, SatsPerPlane: side, PhasingF: 1,
		}.Satellites()
		emit(experiments.Figure9(scale, tiny, uniform)...)
	}
	if want("fig13") {
		emit(experiments.Figure13(outs))
	}
	if want("fig14") {
		emit(experiments.Figure14(outs))
		fmt.Println(experiments.Figure1Maps(outs))
	}
	if want("fig15") {
		emit(experiments.Figure15a(outs), experiments.Figure15b(outs), experiments.Figure15c(outs))
	}
	if want("fig15d") {
		tab, err := experiments.Figure15d(scale, library)
		if err != nil {
			fail("fig15d", err)
		}
		emit(tab)
	}
	if want("fig15e") {
		emit(experiments.Figure15e(outs)...)
	}
	if want("fig16") {
		tabs, _, err := experiments.Figure16(scale)
		if err != nil {
			fail("fig16", err)
		}
		emit(tabs...)
	}
	if want("fig17") {
		tabs, err := experiments.Figure17(scale)
		if err != nil {
			fail("fig17", err)
		}
		emit(tabs...)
	}
	if want("fig17d") {
		tab, err := experiments.Figure17d(scale, 1000)
		if err != nil {
			fail("fig17d", err)
		}
		emit(tab)
	}
	if want("fig18") {
		tab, err := experiments.Figure18(scale)
		if err != nil {
			fail("fig18", err)
		}
		emit(tab)
	}
	if want("fig19a") {
		var backbone *experiments.SparsifyOutcome
		for _, o := range outs {
			if o.Scenario == "internet-backbone" {
				backbone = o
			}
		}
		tab, err := experiments.Figure19a(scale, backbone)
		if err != nil {
			fail("fig19a", err)
		}
		emit(tab)
	}
	if want("fig19bcd") {
		tabs, err := experiments.Figure19bcd(scale)
		if err != nil {
			fail("fig19bcd", err)
		}
		emit(tabs...)
	}
	if want("delta") {
		tab, err := experiments.DeltaCompileSweep(*deltaSlots)
		if err != nil {
			fail("delta", err)
		}
		emit(tab)
	}
	if want("chaos") {
		tabs, fleets, err := experiments.ChaosCampaign(scale, *chaosScenario, *chaosSeed)
		if err != nil {
			fail("chaos", err)
		}
		emit(tabs...)
		if *chaosFleetOut != "" {
			if err := writeChaosFleet(*chaosFleetOut, fleets); err != nil {
				fail("chaos-fleet-out", err)
			}
			fmt.Fprintf(os.Stderr, "chaos-fleet: wrote %d scenario snapshots to %s\n",
				len(fleets), *chaosFleetOut)
		}
	}
	if want("southbound") {
		tab, err := experiments.SouthboundRoundtrip(*sbAgents, *sbCmds)
		if err != nil {
			fail("southbound", err)
		}
		emit(tab)
	}
	if want("fleet") {
		tab, err := experiments.FleetAggregation(*sbAgents, *sbCmds)
		if err != nil {
			fail("fleet", err)
		}
		emit(tab)
	}
	if want("ablations") {
		tab, err := experiments.AblationSolver(scale, library)
		if err != nil {
			fail("ablation-solver", err)
		}
		emit(tab)
		tab, err = experiments.AblationLibraryRichness(scale)
		if err != nil {
			fail("ablation-library", err)
		}
		emit(tab)
		tab, err = experiments.AblationMPCLifetime(scale)
		if err != nil {
			fail("ablation-mpc", err)
		}
		emit(tab)
	}
	if want("discussion") {
		tab, err := experiments.DiscussionFederation(scale, library)
		if err != nil {
			fail("discussion-federation", err)
		}
		emit(tab)
		tab, err = experiments.DiscussionRadioOverlap(scale, outs)
		if err != nil {
			fail("discussion-overlap", err)
		}
		emit(tab)
	}
	fmt.Fprintf(os.Stderr, "done in %.1fs\n", time.Since(start).Seconds())
}

// writeBenchJSON flattens every emitted table into the -bench-json file.
func writeBenchJSON(path string, tables []*metrics.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return metrics.WriteBenchJSON(f, tables)
}

// writeChaosFleet dumps the per-scenario fleet telemetry summaries as
// indented JSON (map keys sort, so the file is deterministic per seed).
func writeChaosFleet(path string, fleets map[string]*chaos.FleetSummary) error {
	b, err := json.MarshalIndent(fleets, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
