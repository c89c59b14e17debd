// Command tinyleo-ctl is the terrestrial TinyLEO controller: it serves
// the southbound API over TCP, compiles a geographic intent with the
// orbital MPC every control slot, pushes ISL/ring configuration to the
// connected satellite agents, and repairs reported failures (§4.2, §5).
//
// Each slot is compiled incrementally from the previous one
// (mpc.DeltaCompile) and enforced as one slot-delta batch per changed
// satellite, with a full-snapshot re-sync for any agent that
// (re-)registered or missed a command (southbound.DeltaEnforcer).
//
// Run one tinyleo-ctl and any number of tinyleo-sat agents against it:
//
//	tinyleo-ctl -listen 127.0.0.1:7601 -agents 8 -slots 4 -dt 300
//
// Telemetry: -metrics-addr serves live Prometheus text on /metrics —
// merging the process-wide registry (MPC compile/repair series) with the
// southbound controller's registry (per-type message counters, connected
// agents, ack RTT) — plus /metrics.json, /healthz, /trace; -trace-out
// writes the span ring as JSONL on exit. -record-out captures a flight
// recording (per-slot compiled topologies, typed events, SLO status) and
// -slo overrides the objective thresholds; with -metrics-addr the live
// SLO status is also served on /slo. Output files flush on
// SIGINT/SIGTERM too.
//
//	tinyleo-ctl -listen 127.0.0.1:7601 -agents 8 -metrics-addr 127.0.0.1:9100 \
//	    -record-out flight.jsonl.gz -slo 'availability>=0.95,deficit_ratio<=0.1'
//
// Postmortems: the inspect subcommand renders a recording into per-slot
// topology diffs, reconstructed failure→repair sequences, and SLO breach
// context:
//
//	tinyleo-ctl inspect -in flight.jsonl.gz
//	tinyleo-ctl inspect -in flight.jsonl.gz -events -max-links 16
//
// Distributed tracing: with -trace-out on the controller and every agent,
// the trace subcommand merges the per-process JSONL dumps into one
// timeline — correcting clock skew from the send→ack brackets — and
// renders it as a Chrome trace (chrome://tracing, Perfetto) or the
// deterministic canonical text form:
//
//	tinyleo-ctl trace -o merged.json ctl.jsonl sat3.jsonl sat4.jsonl
//	tinyleo-ctl trace -canonical ctl.jsonl sat3.jsonl sat4.jsonl
//
// Fleet telemetry: agents running with -fleet-interval push delta-encoded
// registry reports over the southbound session; the controller aggregates
// them into a rollup registry (served on /metrics and /fleet) and tracks
// per-agent staleness. The top subcommand renders the live constellation
// health view, and fleet snapshot dumps the /fleet document as a per-run
// artifact (-fleet-out does the same automatically on exit):
//
//	tinyleo-ctl top -addr 127.0.0.1:9100
//	tinyleo-ctl fleet snapshot -addr 127.0.0.1:9100 -o fleet.json
//
// -pprof additionally serves net/http/pprof profiles (CPU, heap, mutex,
// block) under /debug/pprof/ on the -metrics-addr listener.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/baseline"
	"repro/internal/cli"
	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/intent"
	"repro/internal/mpc"
	"repro/internal/obs"
	"repro/internal/obs/fleet"
	"repro/internal/obs/flightrec"
	"repro/internal/obs/tracemerge"
	"repro/internal/southbound"
	"repro/internal/testground"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "inspect":
			runInspect(os.Args[2:])
			return
		case "trace":
			runTraceMerge(os.Args[2:])
			return
		case "top":
			runTop(os.Args[2:])
			return
		case "fleet":
			runFleet(os.Args[2:])
			return
		}
	}
	runController()
}

// runTraceMerge implements `tinyleo-ctl trace`: merge per-process trace
// dumps (controller + agents) into one skew-corrected timeline.
func runTraceMerge(args []string) {
	fs := flag.NewFlagSet("tinyleo-ctl trace", flag.ExitOnError)
	out := fs.String("o", "", "output file (default stdout)")
	canonical := fs.Bool("canonical", false, "emit the deterministic canonical text form instead of a Chrome trace")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: tinyleo-ctl trace [-o merged.json] [-canonical] dump.jsonl...")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() == 0 {
		fs.Usage()
		os.Exit(2)
	}
	var dumps []*tracemerge.Dump
	for _, path := range fs.Args() {
		d, err := tracemerge.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tinyleo-ctl trace: %s: %v\n", path, err)
			os.Exit(1)
		}
		dumps = append(dumps, d)
	}
	m := tracemerge.Merge(dumps...)
	anchor, offsets := m.Offsets()
	fmt.Fprintf(os.Stderr, "merged %d dumps, %d spans; clock anchor %q\n", len(dumps), len(m.Spans), anchor)
	procs := make([]string, 0, len(offsets))
	for proc := range offsets {
		if proc != anchor {
			procs = append(procs, proc)
		}
	}
	sort.Strings(procs)
	for _, proc := range procs {
		fmt.Fprintf(os.Stderr, "  %s: %+.3fms skew\n", proc, float64(offsets[proc])/1000)
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tinyleo-ctl trace: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	var err error
	if *canonical {
		err = m.WriteCanonical(w)
	} else {
		err = m.WriteChromeTrace(w)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tinyleo-ctl trace: %v\n", err)
		os.Exit(1)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}
}

// runInspect implements `tinyleo-ctl inspect`: load a recording, print
// the postmortem report.
func runInspect(args []string) {
	fs := flag.NewFlagSet("tinyleo-ctl inspect", flag.ExitOnError)
	in := fs.String("in", "", "flight recording to inspect (required; .gz sniffed automatically)")
	events := fs.Bool("events", false, "append the full event log to the report")
	maxLinks := fs.Int("max-links", 8, "ISL diff entries to print per slot before eliding")
	ctx := fs.Int("context", 6, "events of context to print before each SLO breach")
	fs.Parse(args)
	if *in == "" {
		fmt.Fprintln(os.Stderr, "tinyleo-ctl inspect: -in <recording> is required")
		fs.Usage()
		os.Exit(2)
	}
	rec, err := flightrec.ReadRecordingFile(*in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tinyleo-ctl inspect: %v\n", err)
		os.Exit(1)
	}
	opt := flightrec.InspectOptions{MaxLinks: *maxLinks, Context: *ctx, Events: *events}
	if err := rec.WriteReport(os.Stdout, opt); err != nil {
		fmt.Fprintf(os.Stderr, "tinyleo-ctl inspect: %v\n", err)
		os.Exit(1)
	}
}

func runController() {
	listen := flag.String("listen", "127.0.0.1:7601", "southbound listen address")
	agents := flag.Int("agents", 4, "number of satellite agents to wait for")
	slots := flag.Int("slots", 4, "control slots to run")
	dt := flag.Float64("dt", 300, "control slot duration (seconds of orbital time)")
	wait := flag.Duration("wait", 30*time.Second, "how long to wait for agents")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /healthz, /trace, /slo on this address (empty = telemetry off)")
	traceOut := flag.String("trace-out", "", "write the span trace as JSONL to this file on exit")
	recordOut := flag.String("record-out", "", "write a flight recording to this file on exit (.gz = gzip)")
	sloSpec := flag.String("slo", "", "SLO rule spec, e.g. 'availability>=0.95,repair_p99<=0.2' (empty = defaults)")
	pprof := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ on -metrics-addr")
	fleetLag := flag.Duration("fleet-lag", fleet.DefaultLagAfter, "mark an agent lagging after this long without a fleet report")
	fleetSilent := flag.Duration("fleet-silent", fleet.DefaultSilentAfter, "mark an agent silent after this long without a fleet report")
	fleetOut := flag.String("fleet-out", "", "write the final /fleet snapshot JSON to this file on exit")
	syncURL := flag.String("sync", "", "testground sync service URL: publish the bound southbound and telemetry addresses as run parameters")
	hold := flag.Duration("hold", 0, "stay alive this long after the last slot (lets the fleet staleness ladder observe late faults)")
	planes := flag.Int("planes", 16, "Walker constellation planes")
	satsPerPlane := flag.Int("sats-per-plane", 16, "satellites per plane")
	inclination := flag.Float64("inclination", 53, "orbital inclination (degrees)")
	altitudeKm := flag.Float64("altitude-km", 1200, "orbital altitude (km)")
	phasing := flag.Int("phasing", 1, "Walker phasing factor F")
	flag.Parse()

	defer cli.Flush()
	cli.TrapSignals()

	if *metricsAddr != "" || *traceOut != "" || *recordOut != "" || *sloSpec != "" {
		// Recording implies telemetry: the SLO engine reads registry
		// metrics (enforcement ratio, repair latency, ack RTT).
		obs.Enable()
		obs.EnableTracing(0)
	}
	if *pprof {
		if *metricsAddr == "" {
			cli.Fatalf("tinyleo-ctl: -pprof needs -metrics-addr to serve on\n")
		}
		obs.EnablePprof()
	}
	ctl, err := southbound.ListenController(*listen)
	if err != nil {
		cli.Fatalf("tinyleo-ctl: %v\n", err)
	}
	defer ctl.Close()
	// The delta enforcer chains onto OnRegister/OnCommandFailed, so it is
	// installed before any agent can connect: a reconnect at any point
	// forces that agent's next push to be a full-snapshot re-sync.
	enf := southbound.NewDeltaEnforcer(ctl)

	// Fleet aggregation is always on: agents that never push telemetry
	// cost nothing, and the /fleet view plus the rollup registry are what
	// `tinyleo-ctl top` and the SLO engine aggregate over.
	agg := fleet.NewAggregator(fleet.Options{LagAfter: *fleetLag, SilentAfter: *fleetSilent})
	ctl.OnTelemetry = func(satID uint32, payload []byte) {
		if err := agg.HandleReport(satID, payload); err != nil {
			fmt.Fprintf(os.Stderr, "tinyleo-ctl: %v\n", err)
		}
	}
	agg.RegisterHTTP()
	fleetTick := time.NewTicker(time.Second)
	defer fleetTick.Stop()
	//tinyleo:goroutine liveness ticker runs for the controller's whole process lifetime; reclaimed at exit
	go func() {
		for range fleetTick.C {
			agg.Tick()
		}
	}()
	if *fleetOut != "" {
		out := *fleetOut
		cli.AtExit(func() {
			if err := writeFleetSnapshot(out, agg); err != nil {
				fmt.Fprintf(os.Stderr, "tinyleo-ctl: fleet snapshot: %v\n", err)
				return
			}
			fmt.Printf("fleet: wrote snapshot to %s\n", out)
		})
	}
	if *recordOut != "" || *sloSpec != "" {
		rules := flightrec.DefaultRules()
		if *sloSpec != "" {
			rules, err = flightrec.ParseRules(*sloSpec)
			if err != nil {
				cli.Fatalf("tinyleo-ctl: -slo: %v\n", err)
			}
		}
		opts := flightrec.Options{
			Rules:      rules,
			Registries: []flightrec.RegistrySource{obs.Default(), ctl.Metrics(), agg.Registry()},
		}
		if err := flightrec.Enable(opts); err != nil {
			cli.Fatalf("tinyleo-ctl: flight recorder: %v\n", err)
		}
		if *recordOut != "" {
			out := *recordOut
			cli.AtExit(func() {
				summary, err := flightrec.SaveRecording(out, "tinyleo-ctl")
				if err != nil {
					fmt.Fprintf(os.Stderr, "tinyleo-ctl: recording: %v\n", err)
					return
				}
				fmt.Printf("recording: wrote %s to %s\n", summary, out)
			})
		}
	}
	servedMetrics := ""
	if *metricsAddr != "" {
		srv, err := obs.Serve(*metricsAddr, obs.Default(), ctl.Metrics(), agg.Registry())
		if err != nil {
			cli.Fatalf("tinyleo-ctl: %v\n", err)
		}
		defer srv.Close()
		servedMetrics = srv.Addr()
		fmt.Printf("telemetry on http://%s/metrics\n", servedMetrics)
	}
	if *syncURL != "" {
		// Publish the actual bound addresses (both flags accept :0) so the
		// testground runner and the agents can find this controller.
		sc := testground.NewClient(*syncURL)
		if err := sc.SetParam(testground.ParamControllerAddr, ctl.Addr()); err != nil {
			cli.Fatalf("tinyleo-ctl: %v\n", err)
		}
		if servedMetrics != "" {
			if err := sc.SetParam(testground.ParamMetricsAddr, servedMetrics); err != nil {
				cli.Fatalf("tinyleo-ctl: %v\n", err)
			}
		}
		fmt.Printf("published addresses to sync service %s\n", *syncURL)
	}
	if *traceOut != "" {
		out := *traceOut
		cli.AtExit(func() {
			f, err := os.Create(out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tinyleo-ctl: trace: %v\n", err)
				return
			}
			defer f.Close()
			if err := obs.Trace().WriteJSONL(f); err != nil {
				fmt.Fprintf(os.Stderr, "tinyleo-ctl: trace: %v\n", err)
				return
			}
			fmt.Printf("trace: wrote %s to %s\n", obs.Trace().WriteFileSummary(), out)
		})
	}
	fmt.Printf("controller listening on %s, waiting for %d agents...\n", ctl.Addr(), *agents)
	if err := ctl.WaitForAgents(*agents, *wait); err != nil {
		cli.Fatalf("tinyleo-ctl: %v\n", err)
	}
	fmt.Printf("%d agents registered\n", ctl.AgentCount())

	// Demo constellation + chain intent (agents play the first N sats).
	sats := baseline.WalkerConfig{
		InclinationDeg: *inclination, AltitudeKm: *altitudeKm,
		Planes: *planes, SatsPerPlane: *satsPerPlane, PhasingF: *phasing,
	}.Satellites()
	g := geo.MustGrid(10)
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
	compiler, err := mpc.New(mpc.Config{Topo: topo, Sats: sats})
	if err != nil {
		cli.Fatalf("tinyleo-ctl: %v\n", err)
	}

	// Failure hook: tear the reported ISL down as a one-op slot delta
	// through the enforcer, so its desired set stays what was sent (a
	// later slot's delete of the same peer is then a no-op).
	ctl.OnFailure = func(report *southbound.Message) []*southbound.Message {
		fmt.Printf("failure report from sat %d (peer %d); repairing\n", report.SatID, report.Peer)
		if err := enf.Push(report.SatID, nil, []uint32{report.Peer}, time.Now(), obs.SpanContext{}); err != nil {
			fmt.Fprintf(os.Stderr, "tinyleo-ctl: repair: %v\n", err)
		}
		return nil
	}

	// Each slot warm-starts from the previous snapshot; its link changes
	// go out as one batch per changed satellite, in ascending satellite
	// order.
	var prev *mpc.Snapshot
	for s := 0; s < *slots; s++ {
		snap := compiler.DeltaCompile(prev, float64(s)**dt)
		added, removed := mpc.DiffLinks(prev, snap)
		prev = snap
		fmt.Printf("slot %d (t=%.0fs): %d inter-cell ISLs, %d ring ISLs, %d changes, enforcement %.2f\n",
			s, snap.Time, len(snap.InterLinks), len(snap.RingLinks), len(added)+len(removed),
			compiler.EnforcementRatio(snap))
		// Push changes to the agents that are connected (agent IDs are
		// satellite indices). Every batch in this slot descends from one
		// mpc.emit root span, so the merged cross-process trace shows the
		// whole enforcement round as a single causal tree.
		emit := obs.StartSpan("mpc.emit",
			"slot", fmt.Sprint(s), "t", fmt.Sprintf("%.0f", snap.Time))
		emitted := time.Now()
		adds, dels := map[int][]uint32{}, map[int][]uint32{}
		for _, l := range added {
			for _, end := range []int{l[0], l[1]} {
				adds[end] = append(adds[end], uint32(l.Peer(end)))
			}
		}
		for _, l := range removed {
			for _, end := range []int{l[0], l[1]} {
				dels[end] = append(dels[end], uint32(l.Peer(end)))
			}
		}
		sats := make([]int, 0, len(adds)+len(dels))
		for sat := range adds {
			sats = append(sats, sat)
		}
		for sat := range dels {
			if _, ok := adds[sat]; !ok {
				sats = append(sats, sat)
			}
		}
		sort.Ints(sats)
		pushed := 0
		for _, sat := range sats {
			if err := enf.Push(uint32(sat), adds[sat], dels[sat], emitted, emit.Context()); err == nil {
				pushed++
			}
		}
		emit.End()
		fmt.Printf("  pushed %d commands to connected agents\n", pushed)
		time.Sleep(200 * time.Millisecond)
	}
	fmt.Printf("totals: %d southbound messages\n", ctl.TotalMessages())
	if *hold > 0 {
		// Keep the southbound and telemetry surfaces up so the staleness
		// ladder can walk killed agents to silent before the exit snapshot.
		fmt.Printf("holding for %s\n", *hold)
		time.Sleep(*hold)
	}
}
