// Failover demo: shows the two recovery paths of §4.3 side by side on an
// emulated network, then exercises the orbital MPC and the real
// southbound TCP repair loop.
//
//  1. TinyLEO's data plane reroutes locally (anycast + gateway ring) in
//     milliseconds when an ISL dies mid-flow.
//
//  2. A legacy routing-table plane must buffer and wait ~84 ms for the
//     remote control plane (Figure 17d/19d).
//
//  3. The orbital MPC compiles a chain intent over a Walker
//     constellation and repairs a synthetic ISL failure (§4.2).
//
//  4. The reliable southbound session rides out trouble: a slow agent
//     forces at-least-once retransmission (applied once thanks to the
//     agent's dedup window), and a severed transport heals through the
//     agent's exponential-backoff reconnect.
//
//  5. The same failure report travels over a real TCP southbound session
//     to a controller that answers with repair commands.
//
//     go run ./examples/failover-demo
//
// With -metrics-addr every stage is recorded on the runtime telemetry
// registry and served as Prometheus text — non-zero MPC compile-latency,
// southbound message, and data-plane failover series on one /metrics
// endpoint — for -hold after the stages finish:
//
//	go run ./examples/failover-demo -metrics-addr 127.0.0.1:9100 -hold 1m
//
// With -record-out the whole run is captured by the constellation flight
// recorder — per-slot compiled topologies, typed failure/repair events,
// SLO status — and written as a recording that `tinyleo-ctl inspect`
// renders into a postmortem; -slo overrides the objective thresholds
// (live status on /slo when -metrics-addr is set too):
//
//	go run ./examples/failover-demo -record-out flight.jsonl.gz \
//	    -slo 'availability>=0.99,deficit_ratio<=0.01'
//	go run ./cmd/tinyleo-ctl inspect -in flight.jsonl.gz
package main

import (
	"flag"
	"fmt"
	"log"
	"sync/atomic"
	"time"

	tinyleo "repro"

	"repro/internal/mpc"
	"repro/internal/southbound"
)

func main() {
	metricsAddr := flag.String("metrics-addr", "",
		"serve /metrics, /healthz, /trace, /slo on this address (empty = telemetry off)")
	hold := flag.Duration("hold", 5*time.Second,
		"keep the telemetry endpoint up this long after the demo stages finish")
	recordOut := flag.String("record-out", "",
		"write a flight recording to this file when done (.gz = gzip)")
	sloSpec := flag.String("slo", "",
		"SLO rule spec, e.g. 'availability>=0.95,repair_p99<=0.2' (empty = defaults)")
	flag.Parse()

	if *metricsAddr != "" || *recordOut != "" || *sloSpec != "" {
		// The flight recorder's SLO engine reads registry metrics
		// (enforcement ratio, repair latency), so recording implies
		// telemetry.
		tinyleo.EnableTelemetry()
		tinyleo.EnableTraceSpans(0)
	}
	if *recordOut != "" || *sloSpec != "" {
		rules := tinyleo.DefaultSLORules()
		if *sloSpec != "" {
			var err error
			rules, err = tinyleo.ParseSLORules(*sloSpec)
			if err != nil {
				log.Fatalf("-slo: %v", err)
			}
		}
		if err := tinyleo.EnableFlightRecorder(tinyleo.FlightRecorderOptions{
			Rules:      rules,
			Registries: []*tinyleo.TelemetryRegistry{tinyleo.Telemetry()},
		}); err != nil {
			log.Fatal(err)
		}
	}
	emulatedFailover()
	mpcCompileRepair()
	southboundReliability()
	ctlMetrics := southboundRepair()
	tinyleo.AddSLORegistries(ctlMetrics)
	if *recordOut != "" {
		summary, err := tinyleo.SaveFlightRecording(*recordOut, "failover-demo")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== flight recording ==\nwrote %s to %s\ninspect with: go run ./cmd/tinyleo-ctl inspect -in %s\n",
			summary, *recordOut, *recordOut)
	}
	if *metricsAddr != "" {
		srv, err := tinyleo.ServeTelemetry(*metricsAddr, tinyleo.Telemetry(), ctlMetrics)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Printf("== telemetry ==\nserving http://%s/metrics (SLO status on /slo) for %v\n", srv.Addr(), *hold)
		time.Sleep(*hold)
	}
}

// mpcCompileRepair compiles a 4-cell chain intent over a Walker
// constellation for two control slots and repairs a synthetic ISL failure,
// so the MPC's compile/repair telemetry series move.
func mpcCompileRepair() {
	fmt.Println("== orbital MPC compile + repair ==")
	sats := tinyleo.WalkerConfig{
		InclinationDeg: 53, AltitudeKm: 1200, Planes: 16, SatsPerPlane: 16, PhasingF: 1,
	}.Satellites()
	g, err := tinyleo.NewGrid(10)
	if err != nil {
		log.Fatal(err)
	}
	topo := tinyleo.NewTopology(g)
	var cells []int
	for i := 0; i < 4; i++ {
		id := g.CellOf(tinyleo.LatLon{Lat: 5, Lon: float64(-15 + i*10)})
		topo.AddCell(id, 3)
		cells = append(cells, id)
	}
	for i := 1; i < len(cells); i++ {
		topo.Connect(cells[i-1], cells[i], 1)
	}
	ctrl, err := tinyleo.NewController(tinyleo.MPCConfig{Topo: topo, Sats: sats})
	if err != nil {
		log.Fatal(err)
	}
	// Each slot warm-starts from the previous one (output identical to a
	// full Compile).
	var prev *tinyleo.Snapshot
	for slot := 0; slot < 2; slot++ {
		snap := ctrl.DeltaCompile(prev, float64(slot)*300)
		added, removed := mpc.DiffLinks(prev, snap)
		prev = snap
		fmt.Printf("slot %d: %d inter-cell ISLs, %d ring ISLs, %d changes, enforcement %.2f\n",
			slot, len(snap.InterLinks), len(snap.RingLinks), len(added)+len(removed),
			ctrl.EnforcementRatio(snap))
	}
	if len(prev.InterLinks) > 0 {
		repaired, stats := ctrl.Repair(prev, prev.InterLinks[:1], nil, 83800*time.Microsecond)
		fmt.Printf("repair: %d new ISLs, %d messages, %v end-to-end (enforcement %.2f)\n",
			len(stats.NewLinks), stats.Messages, stats.Total().Round(time.Millisecond),
			ctrl.EnforcementRatio(repaired))
	}
}

// emulatedFailover builds a 3-cell chain with two gateways per cell and
// kills the primary ISL mid-flow.
func emulatedFailover() {
	fmt.Println("== emulated data-plane failover ==")
	build := func() *tinyleo.Network {
		n := tinyleo.NewNetwork()
		// cells: 10 (sats 0,1) -> 20 (sats 2,3) -> 30 (sats 4,5)
		for id, cell := range []int{10, 10, 20, 20, 30, 30} {
			n.AddSatellite(id, cell)
		}
		n.Connect(0, 2, 0.005)
		n.Connect(1, 3, 0.005)
		n.Connect(2, 4, 0.005)
		n.Connect(3, 5, 0.005)
		n.Connect(0, 1, 0.001)
		n.Connect(2, 3, 0.001)
		n.Connect(4, 5, 0.001)
		n.SetRing([]int{0, 1})
		n.SetRing([]int{2, 3})
		n.SetRing([]int{4, 5})
		return n
	}

	run := func(name string, legacy bool) {
		n := build()
		if legacy {
			n.Sats[0].RoutingTable = map[uint32]int{4: 2}
			n.Sats[2].RoutingTable = map[uint32]int{4: 4}
		}
		var deliveries []float64
		n.OnDeliver = func(s *tinyleo.Satellite, p *tinyleo.Packet) {
			deliveries = append(deliveries, n.Sim.Now())
		}
		// Primary ISL 0-2 dies at t=50 ms.
		n.Sim.Schedule(0.050, func() { n.Link(0, 2).Down() })
		if legacy {
			// Remote control plane repairs after the paper's 83.8 ms.
			n.Sim.Schedule(0.050+0.0838, func() {
				n.Sats[0].RoutingTable[4] = 1
				n.Sats[1].RoutingTable = map[uint32]int{4: 3}
				n.Sats[3].RoutingTable = map[uint32]int{4: 5}
				n.Sats[5].RoutingTable = map[uint32]int{4: 4}
				n.FlushBuffers()
			})
		}
		// 10 ms cadence flow for 200 ms.
		for i := 0; i < 20; i++ {
			i := i
			n.Sim.Schedule(float64(i)*0.010, func() {
				if legacy {
					p := &tinyleo.Packet{}
					p.Base.Ver = 1
					p.Base.HopLimit = 32
					p.Base.FlowID = 4
					p.SentAt = n.Sim.Now()
					n.Inject(0, p)
					return
				}
				p, err := tinyleo.NewGeoPacket(0, []int{20, 30}, 1, uint32(i), nil)
				if err != nil {
					log.Fatal(err)
				}
				n.Inject(0, p)
			})
		}
		n.Sim.Run(1)
		gap := 0.0
		for i := 1; i < len(deliveries); i++ {
			if d := deliveries[i] - deliveries[i-1]; d > gap {
				gap = d
			}
		}
		fmt.Printf("%-28s delivered %2d/20, max delivery gap %5.1f ms, failovers=%d\n",
			name, len(deliveries), gap*1e3, n.Sats[0].Failovers)
	}
	run("TinyLEO geo anycast:", false)
	run("legacy routing tables:", true)
}

// southboundReliability exercises the reliable southbound session: a slow
// agent forces at-least-once retransmission (with duplicate suppression on
// the agent side), and a severed transport heals through the agent's
// backoff reconnect with the command flow resuming afterwards.
func southboundReliability() {
	fmt.Println("== reliable southbound session ==")
	ctl, err := tinyleo.ListenSouthbound("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ctl.Close()
	ctl.RetransmitInterval = 25 * time.Millisecond
	acked := make(chan uint32, 8)
	ctl.OnAck = func(m *tinyleo.SouthboundMessage) { acked <- m.Seq }

	var applied atomic.Int64
	agent, err := tinyleo.DialSouthboundReliable(ctl.Addr(), 9, 2*time.Second,
		tinyleo.SouthboundAgentOptions{
			Reconnect:   true,
			BackoffBase: 10 * time.Millisecond,
			BackoffMax:  200 * time.Millisecond,
		})
	if err != nil {
		log.Fatal(err)
	}
	defer agent.Close()
	agent.OnCommand = func(m *tinyleo.SouthboundMessage) {
		if applied.Add(1) == 1 {
			// The first command applies slowly, so its ack misses several
			// retransmit deadlines: the controller resends, the agent's
			// dedup window re-acks the copies without re-applying.
			time.Sleep(100 * time.Millisecond)
		}
	}

	// Duplicate commands are re-acked by the agent, so acks for an older
	// sequence number can trail in; wait for the one we sent.
	waitAck := func(stage string, want uint32) {
		deadline := time.After(2 * time.Second)
		for {
			select {
			case seq := <-acked:
				if seq == want {
					return
				}
			case <-deadline:
				log.Fatalf("%s: command never acked", stage)
			case <-time.After(5 * time.Millisecond):
				ctl.SweepPending() // drive retransmission while waiting
			}
		}
	}

	up := &tinyleo.SouthboundMessage{Type: southbound.MsgSetISL, SatID: 9, Peer: 17, Up: true}
	if err := ctl.Send(up); err != nil {
		log.Fatal(err)
	}
	waitAck("slow apply", up.Seq)
	rtx := ctl.Metrics().Counter(southbound.MetricRetransmits).Value()
	fmt.Printf("slow agent: command acked after %d retransmissions, applied %d time(s)\n",
		rtx, applied.Load())

	// Sever the transport; the agent re-dials with exponential backoff and
	// re-registers, after which commands flow again.
	regs := ctl.Registrations(9)
	agent.DropConn()
	deadline := time.Now().Add(2 * time.Second)
	for ctl.Registrations(9) == regs {
		if time.Now().After(deadline) {
			log.Fatal("agent never re-registered after DropConn")
		}
		time.Sleep(5 * time.Millisecond)
	}
	down := &tinyleo.SouthboundMessage{Type: southbound.MsgSetISL, SatID: 9, Peer: 17, Up: false}
	if err := ctl.Send(down); err != nil {
		log.Fatal(err)
	}
	waitAck("post-reconnect", down.Seq)
	fmt.Printf("transport drop: healed after %d reconnect(s), post-reconnect command acked (applied %d total)\n",
		agent.Reconnects(), applied.Load())
}

// southboundRepair runs the failure-report → repair-command loop over a
// real localhost TCP session. It returns the controller's telemetry
// registry so main can serve its message counters after the session ends.
func southboundRepair() *tinyleo.TelemetryRegistry {
	fmt.Println("== southbound TCP repair loop ==")
	ctl, err := tinyleo.ListenSouthbound("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ctl.Close()
	ctl.OnFailure = func(report *tinyleo.SouthboundMessage) []*tinyleo.SouthboundMessage {
		// Repair policy: tear down the dead ISL, bring up a spare.
		return []*tinyleo.SouthboundMessage{
			{Type: southbound.MsgSetISL, SatID: report.SatID, Peer: report.Peer, Up: false},
			{Type: southbound.MsgSetISL, SatID: report.SatID, Peer: report.Peer + 1, Up: true},
		}
	}
	agent, err := tinyleo.DialSouthbound(ctl.Addr(), 7, 2*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	defer agent.Close()

	repaired := make(chan *tinyleo.SouthboundMessage, 2)
	agent.OnCommand = func(m *tinyleo.SouthboundMessage) { repaired <- m }

	start := time.Now()
	if err := agent.ReportFailure(42); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		select {
		case m := <-repaired:
			state := "down"
			if m.Up {
				state = "up"
			}
			fmt.Printf("repair command %d: ISL to %d -> %s (after %v)\n",
				i+1, m.Peer, state, time.Since(start).Round(time.Microsecond))
		case <-time.After(2 * time.Second):
			log.Fatal("controller never repaired")
		}
	}
	return ctl.Metrics()
}
