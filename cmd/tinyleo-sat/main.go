// Command tinyleo-sat is a satellite agent: it registers with tinyleo-ctl
// over the southbound API, prints and acknowledges every topology command,
// and can inject a synthetic ISL failure report to exercise the repair
// loop (§4.2's "repairing unpredictable failures"). Commands arrive per
// control slot, in slot order: one slot-delta batch of ISL changes per
// slot, or a full slot snapshot when the controller re-syncs this agent.
//
//	tinyleo-sat -controller 127.0.0.1:7601 -id 3 -fail-peer 7 -fail-after 2s
//
// Telemetry: -metrics-addr serves live Prometheus text on /metrics (plus
// /metrics.json, /healthz, /trace, /trace.chrome) for the duration of the
// run; -trace-out writes the span ring as JSONL on exit; -record-out
// writes a flight recording (events + SLO status) for tinyleo-ctl
// inspect. All output files also flush on SIGINT/SIGTERM, so an
// interrupted run still yields a usable postmortem.
//
//	tinyleo-sat -controller 127.0.0.1:7601 -id 3 \
//	    -metrics-addr 127.0.0.1:9103 -trace-out sat3-trace.jsonl \
//	    -record-out sat3-flight.jsonl.gz
//
// Fleet telemetry: unless -fleet-interval is 0, the agent delta-encodes
// its registry once per interval and pushes the report to the controller
// over the southbound session, feeding the controller's /fleet rollup and
// `tinyleo-ctl top`.
//
// Commands carry the controller's trace context over the wire; the agent
// applies each one to a local data-plane view and records the install as
// a span continuing that trace, so `tinyleo-ctl trace` can merge the
// controller's and agents' dumps into one cross-process timeline. -pprof
// serves net/http/pprof under /debug/pprof/ on the -metrics-addr
// listener.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/dataplane"
	"repro/internal/obs"
	"repro/internal/obs/fleet"
	"repro/internal/obs/flightrec"
	"repro/internal/southbound"
	"repro/internal/testground"
)

func main() {
	addr := flag.String("controller", "127.0.0.1:7601", "controller address")
	id := flag.Uint("id", 0, "satellite ID")
	failPeer := flag.Int("fail-peer", -1, "report an ISL failure toward this peer (-1 = never)")
	failAfter := flag.Duration("fail-after", 2*time.Second, "when to report the failure")
	runFor := flag.Duration("run-for", 10*time.Second, "how long to stay up")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /healthz, /trace on this address (empty = telemetry off)")
	traceOut := flag.String("trace-out", "", "write the span trace as JSONL to this file on exit")
	recordOut := flag.String("record-out", "", "write a flight recording to this file on exit (.gz = gzip)")
	pprof := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ on -metrics-addr")
	fleetInterval := flag.Duration("fleet-interval", time.Second, "push fleet telemetry reports to the controller at this interval (0 = off)")
	syncURL := flag.String("sync", "", "testground sync service URL: resolve the controller address from it and hold at the start barrier before dialing (overrides -controller)")
	flag.Parse()

	defer cli.Flush()
	cli.TrapSignals()

	if *metricsAddr != "" || *traceOut != "" || *recordOut != "" {
		obs.Enable()
		obs.EnableTracing(0)
	}
	if *fleetInterval > 0 {
		// Fleet reporting snapshots the default registry, so it must record.
		obs.Enable()
	}
	if *pprof {
		if *metricsAddr == "" {
			cli.Fatalf("tinyleo-sat: -pprof needs -metrics-addr to serve on\n")
		}
		obs.EnablePprof()
	}
	if *recordOut != "" {
		if err := flightrec.Enable(flightrec.Options{}); err != nil {
			cli.Fatalf("tinyleo-sat: flight recorder: %v\n", err)
		}
		cli.AtExit(func() {
			summary, err := flightrec.SaveRecording(*recordOut, "tinyleo-sat")
			if err != nil {
				fmt.Fprintf(os.Stderr, "tinyleo-sat: recording: %v\n", err)
				return
			}
			fmt.Printf("recording: wrote %s to %s\n", summary, *recordOut)
		})
	}
	if *metricsAddr != "" {
		srv, err := obs.Serve(*metricsAddr, obs.Default())
		if err != nil {
			cli.Fatalf("tinyleo-sat: %v\n", err)
		}
		defer srv.Close()
		fmt.Printf("sat %d telemetry on http://%s/metrics\n", *id, srv.Addr())
	}
	if *traceOut != "" {
		cli.AtExit(func() {
			if err := writeTrace(*traceOut); err != nil {
				fmt.Fprintf(os.Stderr, "tinyleo-sat: trace: %v\n", err)
			}
		})
	}

	if *syncURL != "" {
		// Testground coordination: learn the controller's bound address
		// (every port in a plan may be :0), then rendezvous with the rest
		// of the fleet so all agents register together.
		sc := testground.NewClient(*syncURL)
		resolved, err := sc.WaitParam(testground.ParamControllerAddr, 30*time.Second)
		if err != nil {
			cli.Fatalf("tinyleo-sat: %v\n", err)
		}
		*addr = resolved
		fmt.Printf("sat %d resolved controller %s via sync service\n", *id, *addr)
		if err := sc.Arrive(testground.BarrierAgentsReady, 0, 60*time.Second); err != nil {
			cli.Fatalf("tinyleo-sat: %v\n", err)
		}
	}

	span := obs.StartSpan("sat.session", "id", fmt.Sprint(*id))
	agent, err := southbound.DialAgent(*addr, uint32(*id), 10*time.Second)
	if err != nil {
		cli.Fatalf("tinyleo-sat: %v\n", err)
	}
	defer agent.Close()
	defer span.End()
	fmt.Printf("sat %d registered with %s\n", *id, *addr)

	if *fleetInterval > 0 {
		reporter := fleet.NewReporter(fleet.NewEncoder(obs.Default()), agent.SendTelemetry)
		reporter.Run(*fleetInterval)
		// Stop flushes one final report, so the controller's rollup catches
		// the last deltas even on SIGINT.
		cli.AtExit(reporter.Stop)
		defer reporter.Stop()
	}

	// Local data-plane view: each command actually lands somewhere (links
	// raised/lowered, ring successor set), and the install is recorded as
	// a span continuing the command's trace, so the merged timeline shows
	// emit → send → apply → install end to end.
	view := dataplane.NewNetwork()
	self := view.AddSatellite(int(*id), 0)
	// up tracks which ISL peers this agent believes are established —
	// the state a slot-snapshot reconciles against. OnCommand runs
	// serially on the agent's read loop, so no lock is needed.
	up := map[uint32]bool{}
	setISL := func(peer uint32, isUp bool) {
		if isUp {
			if view.Sats[int(peer)] == nil {
				view.AddSatellite(int(peer), 0)
			}
			view.EnsureLink(int(*id), int(peer), 0.003)
			up[peer] = true
			return
		}
		if l := view.Link(int(*id), int(peer)); l != nil {
			l.Down()
		}
		delete(up, peer)
	}
	agent.OnCommand = func(m *southbound.Message) {
		sp := obs.StartSpanCtx(m.Trace, "dataplane.install",
			"sat", fmt.Sprint(*id), "seq", fmt.Sprint(m.Seq), "type", m.Type.String())
		defer sp.End()
		switch m.Type {
		case southbound.MsgSetISL:
			state := "down"
			if m.Up {
				state = "up"
			}
			setISL(m.Peer, m.Up)
			fmt.Printf("sat %d: ISL to %d -> %s (seq %d)\n", *id, m.Peer, state, m.Seq)
		case southbound.MsgSlotDelta:
			ops, err := southbound.DecodeSlotDelta(m.Payload)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tinyleo-sat: slot-delta: %v\n", err)
				return
			}
			for _, op := range ops {
				setISL(op.Peer, op.Up)
			}
			fmt.Printf("sat %d: slot delta applied, %d ops (seq %d)\n", *id, len(ops), m.Seq)
		case southbound.MsgSlotSnapshot:
			peers, err := southbound.DecodeSlotSnapshot(m.Payload)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tinyleo-sat: slot-snapshot: %v\n", err)
				return
			}
			// Full re-sync: reconcile the local view against the desired
			// peer set — tear down everything absent, raise everything
			// present.
			want := make(map[uint32]bool, len(peers))
			for _, p := range peers {
				want[p] = true
			}
			for p := range up {
				if !want[p] {
					setISL(p, false)
				}
			}
			for _, p := range peers {
				setISL(p, true)
			}
			fmt.Printf("sat %d: slot snapshot applied, %d peers (seq %d)\n", *id, len(peers), m.Seq)
		case southbound.MsgSetRing:
			self.RingNext = int(m.Peer)
			fmt.Printf("sat %d: ring successor -> %d (seq %d)\n", *id, m.Peer, m.Seq)
		case southbound.MsgInstallRoute:
			fmt.Printf("sat %d: route installed, %d segments (seq %d)\n", *id, len(m.Cells), m.Seq)
		}
	}

	if *failPeer >= 0 {
		time.AfterFunc(*failAfter, func() {
			fmt.Printf("sat %d: reporting ISL failure toward %d\n", *id, *failPeer)
			if err := agent.ReportFailure(uint32(*failPeer)); err != nil {
				fmt.Fprintf(os.Stderr, "tinyleo-sat: report: %v\n", err)
			}
		})
	}
	time.Sleep(*runFor)
}

func writeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := obs.Trace().WriteJSONL(f); err != nil {
		return err
	}
	fmt.Printf("trace: wrote %s to %s\n", obs.Trace().WriteFileSummary(), path)
	return nil
}
