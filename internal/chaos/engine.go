package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/dataplane"
	"repro/internal/mpc"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/obs/fleet"
	"repro/internal/obs/flightrec"
	"repro/internal/southbound"
)

// MetricAgentApplied is the per-agent counter campaigns publish over the
// fleet telemetry plane: southbound commands the agent's OnCommand
// callback applied (duplicates suppressed by the dedup window). It is
// the series the campaign's rollup totals are checked against.
const MetricAgentApplied = "tinyleo_chaos_agent_applied_total"

// Campaign configures one seeded chaos run.
type Campaign struct {
	Scenario Scenario
	// Seed drives every random choice (fault targets, storm loss, agent
	// backoff jitter). Same seed + same scenario → byte-identical
	// CanonicalJSON.
	Seed int64
	// Testbed sizes the system under test (zero values take defaults).
	Testbed TestbedConfig
	// Flows is how many measured cell-to-cell flows to carry (default 4).
	Flows int
	// PacketsPerWindow is the per-flow offered load per measurement window
	// (default 16).
	PacketsPerWindow int
	// WindowSec is the sim-time length of each measurement window
	// (default 2 s).
	WindowSec float64
	// Tracer, when non-nil, records the campaign's causal spans (mpc.emit
	// roots, southbound send/retransmit/ack, agent applies). The engine
	// re-enables it on the campaign's virtual clock and seeds its span IDs
	// from Seed, so two runs of the same campaign produce identical span
	// timestamps and a byte-identical canonical merged trace
	// (tracemerge.WriteCanonical).
	Tracer *obs.Tracer
}

func (c *Campaign) fillDefaults() {
	if c.Flows <= 0 {
		c.Flows = 4
	}
	if c.PacketsPerWindow <= 0 {
		c.PacketsPerWindow = 16
	}
	if c.WindowSec <= 0 {
		c.WindowSec = 2
	}
}

// Southbound reliability tuning for campaigns: virtual-clock times (the
// engine advances them explicitly) and a fast real-time reconnect backoff
// so conn-drop rounds settle quickly.
const (
	campaignAckTimeout   = 5 * time.Second
	campaignRetransmit   = time.Second
	campaignMaxRetrans   = 2
	campaignBackoffBase  = 2 * time.Millisecond
	campaignBackoffMax   = 20 * time.Millisecond
	campaignRepairRTT    = 50 * time.Millisecond
	campaignPayloadBytes = 1024
	settleTimeout        = 10 * time.Second

	// Fleet telemetry cadence: each round ends with one coalesced report
	// per live agent, then the virtual clock advances one round tick and
	// the aggregator sweeps staleness. A flushed agent is therefore always
	// exactly one tick old at the sweep (healthy), while a crashed agent
	// accumulates ticks and drifts healthy → lagging → silent over the
	// following rounds.
	campaignRoundTick   = 10 * time.Second
	campaignFleetLag    = 15 * time.Second
	campaignFleetSilent = 25 * time.Second
)

// flow is one measured src→dst cell pair with its installed geo route and
// injection gateway.
type flow struct {
	src, dst int
	route    []int // cell route, destination last
	gw       int   // injection gateway satellite
}

// islAction is one link change an acknowledged slot-delta batch applies.
type islAction struct {
	link mpc.Link
	up   bool
}

type runner struct {
	c   Campaign
	tb  *Testbed
	ctl *southbound.Controller
	vc  *VClock
	rng *rand.Rand

	// mu guards everything the southbound callbacks (controller and agent
	// goroutines) share with the engine goroutine.
	mu sync.Mutex
	//tinyleo:guardedby mu
	agents map[int]*southbound.Agent
	//tinyleo:guardedby mu
	gates map[int]chan struct{} // blackholed agents (OnCommand blocks)
	//tinyleo:guardedby mu
	wedgedEntered map[int]bool // gated agents that reached their blocking callback
	//tinyleo:guardedby mu
	acked map[uint32]bool // slot-delta/probe seqs acknowledged
	//tinyleo:guardedby mu
	actions map[uint32][]islAction // this round's seq → its slot-delta batch's link changes
	//tinyleo:guardedby mu
	abandonedRound int // OnCommandFailed count this round
	//tinyleo:guardedby mu
	reconnects int64 // successful agent reconnections

	// Fleet telemetry plane: one always-enabled private registry +
	// reporter per agent feeding a virtual-clock aggregator, so the
	// campaign's constellation health view is part of the deterministic
	// report. fleetApplied/fleetReps are written once in start() and
	// read-only afterwards.
	agg          *fleet.Aggregator
	fleetApplied map[int]*obs.Counter
	fleetReps    map[int]*fleet.Reporter

	flows   []flow
	snap    *mpc.Snapshot
	impair  map[*netem.Link]*netem.Impairment
	crashed map[int]bool
	// prevUnreachable feeds last round's abandoned-command satellites into
	// this round's Repair as failed (graceful degradation: the controller
	// routes around them instead of erroring).
	prevUnreachable []int

	report *Report
	round  int
	curRR  *RoundReport
	// faultTime and firstDelivery measure per-flow recovery (sim seconds).
	faultTime     float64
	firstDelivery map[int]float64
	surged        map[int]bool
	pktSeq        uint32
}

// Run executes one seeded campaign and returns its report.
func Run(c Campaign) (*Report, error) {
	c.fillDefaults()
	if c.Scenario.Rounds <= 0 {
		return nil, fmt.Errorf("chaos: scenario %q has no rounds", c.Scenario.Name)
	}
	tb, err := NewTestbed(c.Testbed)
	if err != nil {
		return nil, err
	}
	r := &runner{
		c: c, tb: tb,
		vc:            NewVClock(),
		rng:           rand.New(rand.NewSource(c.Seed)),
		agents:        map[int]*southbound.Agent{},
		gates:         map[int]chan struct{}{},
		wedgedEntered: map[int]bool{},
		acked:         map[uint32]bool{},
		fleetApplied:  map[int]*obs.Counter{},
		fleetReps:     map[int]*fleet.Reporter{},
		impair:        map[*netem.Link]*netem.Impairment{},
		crashed:       map[int]bool{},
		snap:          tb.Snap,
		report:        &Report{Scenario: c.Scenario.Name, Seed: c.Seed},
	}
	defer r.shutdown()
	if err := r.start(); err != nil {
		return nil, err
	}
	if err := r.pickFlows(); err != nil {
		return nil, err
	}
	r.installHooks()
	//lint:tinyleo-ignore WallElapsedMs is wall telemetry excluded from the canonical (seed-keyed) report fields
	wallStart := time.Now()
	for round := 0; round < c.Scenario.Rounds; round++ {
		if err := r.runRound(round); err != nil {
			return nil, err
		}
	}
	if err := r.finish(wallStart); err != nil {
		return nil, err
	}
	return r.report, nil
}

// start brings up the southbound plane: a controller on a virtual clock
// and one reconnecting agent per network satellite.
func (r *runner) start() error {
	ctl, err := southbound.ListenController("127.0.0.1:0")
	if err != nil {
		return err
	}
	r.ctl = ctl
	ctl.Clock = r.vc.Now
	if r.c.Tracer != nil {
		// Rebase the tracer onto the campaign's virtual clock and seed its
		// span IDs before any span starts: timestamps and ID streams become
		// pure functions of (seed, scenario).
		r.c.Tracer.SetClock(r.vc.Now)
		r.c.Tracer.SeedIDs(uint64(r.c.Seed))
		r.c.Tracer.SetProcess("chaos")
		r.c.Tracer.Enable(0)
		ctl.Tracer = r.c.Tracer
	}
	ctl.AckTimeout = campaignAckTimeout
	ctl.RetransmitInterval = campaignRetransmit
	ctl.MaxRetransmits = campaignMaxRetrans
	ctl.OnAck = func(m *southbound.Message) {
		r.mu.Lock()
		r.acked[m.Seq] = true
		r.mu.Unlock()
	}
	ctl.OnCommandFailed = func(m *southbound.Message) {
		r.mu.Lock()
		r.abandonedRound++
		r.mu.Unlock()
	}

	// The fleet aggregator runs on the campaign's virtual clock with a
	// private (disabled) flight-recorder log: health transitions surface
	// only through OnTransition → r.event, so they land in the
	// deterministic report exactly once. Tick runs on the engine
	// goroutine (flushFleet), which makes r.event safe to call here.
	r.agg = fleet.NewAggregator(fleet.Options{
		Clock:       r.vc.Now,
		LagAfter:    campaignFleetLag,
		SilentAfter: campaignFleetSilent,
		Log:         new(flightrec.Log),
		OnTransition: func(agent uint32, from, to fleet.State) {
			typ := "agent_" + string(to)
			if to == fleet.StateHealthy {
				typ = "agent_recovered"
			}
			r.event(typ, "sat", fmt.Sprint(agent), "from", string(from), "to", string(to))
		},
	})
	ctl.OnTelemetry = func(sat uint32, payload []byte) {
		// Malformed reports are counted by the aggregator; a campaign
		// never produces one, so the error is not surfaced further.
		_ = r.agg.HandleReport(sat, payload)
	}

	ids := make([]int, 0, len(r.tb.Net.Sats))
	for id := range r.tb.Net.Sats {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		id := id
		reg := obs.NewRegistry(true)
		applied := reg.Counter(MetricAgentApplied)
		a, err := southbound.DialAgentOptions(ctl.Addr(), uint32(id), 2*time.Second,
			southbound.AgentOptions{
				Reconnect:   true,
				BackoffBase: campaignBackoffBase,
				BackoffMax:  campaignBackoffMax,
				Seed:        r.c.Seed + int64(id) + 1,
				Tracer:      r.c.Tracer,
				OnReconnect: func(int) {
					r.mu.Lock()
					r.reconnects++
					r.mu.Unlock()
				},
			})
		if err != nil {
			return fmt.Errorf("chaos: dial agent %d: %w", id, err)
		}
		a.OnCommand = func(m *southbound.Message) {
			r.mu.Lock()
			gate := r.gates[id]
			if gate != nil {
				r.wedgedEntered[id] = true
			}
			r.mu.Unlock()
			if gate != nil {
				<-gate // blackholed: wedge until the round releases it
			}
			applied.Inc()
		}
		r.mu.Lock()
		r.agents[id] = a
		r.mu.Unlock()
		r.fleetApplied[id] = applied
		r.fleetReps[id] = fleet.NewReporter(fleet.NewEncoder(reg), a.SendTelemetry)
	}
	return nil
}

// pickFlows selects the campaign's measured flows: sorted cell pairs with
// a ≥3-cell intent route whose probe packet actually delivers.
func (r *runner) pickFlows() error {
	for _, src := range r.tb.Cells {
		for _, dst := range r.tb.Cells {
			if len(r.flows) >= r.c.Flows {
				return nil
			}
			if src >= dst {
				continue
			}
			route, err := r.tb.Topo.ShortestPathRoute(src, dst)
			if err != nil || len(route.Cells) < 3 {
				continue
			}
			gw, ok := gatewayOf(r.tb.Topo, r.snap, src)
			if !ok {
				continue
			}
			if !r.probeDelivers(gw, route.Cells) {
				continue
			}
			r.flows = append(r.flows, flow{src: src, dst: dst, route: route.Cells, gw: gw})
		}
	}
	if len(r.flows) == 0 {
		return fmt.Errorf("chaos: no deliverable flows in testbed")
	}
	return nil
}

// probeDelivers checks a sentinel packet traverses the route end to end
// (run before the measurement hooks are installed; the sentinel flow ID
// keeps any late-buffered probe out of the round accounting).
func (r *runner) probeDelivers(gw int, route []int) bool {
	delivered := false
	r.tb.Net.OnDeliver = func(s *dataplane.Satellite, p *dataplane.Packet) { delivered = true }
	p, err := dataplane.NewGeoPacket(uint32(gw), route, ^uint32(0), 0, nil)
	if err != nil {
		r.tb.Net.OnDeliver = nil
		return false
	}
	r.tb.Net.Inject(gw, p)
	r.tb.Net.Sim.Run(r.tb.Net.Sim.Now() + 5)
	r.tb.Net.OnDeliver = nil
	return delivered
}

// installHooks attaches the round accounting to the data plane. Both hooks
// run on the engine goroutine (inside Sim.Run), so they touch round state
// without locks.
func (r *runner) installHooks() {
	r.tb.Net.OnDeliver = func(s *dataplane.Satellite, p *dataplane.Packet) {
		fi := int(p.Base.FlowID)
		if fi < 0 || fi >= len(r.flows) {
			return // probe or stale sentinel
		}
		r.curRR.PacketsDelivered++
		if _, ok := r.firstDelivery[fi]; !ok {
			r.firstDelivery[fi] = r.tb.Net.Sim.Now()
		}
	}
	r.tb.Net.OnDrop = func(s *dataplane.Satellite, p *dataplane.Packet, reason string) {
		fi := int(p.Base.FlowID)
		if fi < 0 || fi >= len(r.flows) {
			return
		}
		r.curRR.PacketsDropped++
	}
}

// event appends to the campaign's deterministic event log (and mirrors it
// into the flight recorder when one is recording).
func (r *runner) event(typ string, attrs ...string) {
	r.report.Events = append(r.report.Events, Event{
		Round: r.round, SimTime: r.tb.Net.Sim.Now(), Type: typ, Attrs: attrs,
	})
	if flightrec.Enabled() {
		flightrec.Emit(flightrec.CompChaos, typ,
			append([]string{"round", fmt.Sprint(r.round)}, attrs...)...)
	}
}

// runRound executes one fault→measure→repair→measure cycle.
func (r *runner) runRound(round int) error {
	r.round = round
	rr := RoundReport{Round: round}
	r.curRR = &rr
	r.firstDelivery = map[int]float64{}
	r.surged = map[int]bool{}
	r.mu.Lock()
	r.actions = map[uint32][]islAction{}
	r.abandonedRound = 0
	r.mu.Unlock()

	// Phase 1: inject this round's faults.
	failedLinks, crashedNow, err := r.injectFaults(&rr)
	if err != nil {
		return err
	}
	r.faultTime = r.tb.Net.Sim.Now()
	faulted := len(rr.Faults) > 0

	// Phase 2: offered load under failure — local failover (§4.3) carries
	// what it can before the control plane reacts.
	r.injectWindow(&rr)

	// Phase 3: MPC repair (§4.2). Unreachable satellites from the previous
	// round are handed to the controller as failed instead of erroring.
	failedSats := append(append([]int{}, crashedNow...), r.prevUnreachable...)
	sort.Ints(failedSats)
	//lint:tinyleo-ignore WallRepairMs is wall telemetry excluded from the canonical (seed-keyed) report fields
	wall := time.Now()
	newSnap, rstats := r.tb.Ctl.Repair(r.snap, failedLinks, failedSats, campaignRepairRTT)
	//lint:tinyleo-ignore WallRepairMs is wall telemetry excluded from the canonical (seed-keyed) report fields
	r.report.WallRepairMs = append(r.report.WallRepairMs, float64(time.Since(wall).Microseconds())/1000)
	added, removed := mpc.DiffLinks(r.snap, newSnap)
	rr.LinksAdded, rr.LinksRemoved, rr.Unrepaired = len(added), len(removed), rstats.Unrepaired
	r.event("repair",
		"failed_links", fmt.Sprint(len(failedLinks)),
		"failed_sats", fmt.Sprint(len(failedSats)),
		"added", fmt.Sprint(len(added)),
		"removed", fmt.Sprint(len(removed)),
		"unrepaired", fmt.Sprint(rstats.Unrepaired))

	// Phase 4: southbound enforcement with at-least-once delivery.
	if err := r.enforce(&rr, added, removed); err != nil {
		return err
	}
	r.snap = newSnap

	// Phase 5: apply acknowledged changes to the live network, rebuild the
	// gateway rings, and flush §4.3's repair buffers.
	r.applyTopology(newSnap)
	r.tb.Net.FlushBuffers()

	// Phase 6: offered load after repair.
	r.injectWindow(&rr)

	// Phase 7: fleet telemetry — every live agent flushes one coalesced
	// report, then the virtual clock ticks and the aggregator sweeps
	// staleness (crashed agents drift toward silent; transitions land in
	// the deterministic event log via OnTransition).
	if err := r.flushFleet(); err != nil {
		return err
	}

	if faulted {
		for fi := range r.flows {
			if t, ok := r.firstDelivery[fi]; ok {
				rr.RecoveryMs = append(rr.RecoveryMs, (t-r.faultTime)*1000)
			} else {
				rr.Unrecovered++
			}
		}
		sort.Float64s(rr.RecoveryMs)
	}
	r.report.Rounds = append(r.report.Rounds, rr)
	r.curRR = nil
	return nil
}

// flushFleet ends a round's telemetry window: every live agent pushes
// one coalesced report, the engine waits for the aggregator to absorb
// them all (so report timestamps are the pre-advance virtual time), then
// advances the virtual clock one round tick and runs the staleness
// sweep. All aggregator reads below happen after this settles, so the
// health view is a pure function of (seed, scenario).
func (r *runner) flushFleet() error {
	r.mu.Lock()
	ids := make([]int, 0, len(r.agents))
	for id := range r.agents {
		ids = append(ids, id)
	}
	r.mu.Unlock()
	sort.Ints(ids)
	type flushed struct {
		id  int
		seq uint64
	}
	var pend []flushed
	for _, id := range ids {
		seq, err := r.fleetReps[id].Flush()
		if err != nil {
			// Connection died mid-flush: the reporter reset its session, so
			// the next successful flush re-ships absolutes. Nothing to wait
			// for this round.
			continue
		}
		pend = append(pend, flushed{id: id, seq: seq})
	}
	if err := r.waitCond(func() bool {
		for _, p := range pend {
			if r.agg.AgentSeq(uint32(p.id)) < p.seq {
				return false
			}
		}
		return true
	}, "fleet reports"); err != nil {
		return err
	}
	r.vc.Advance(campaignRoundTick)
	r.agg.Tick()
	return nil
}

// upInterLinks lists the compiled inter-cell ISLs currently up in the
// network, in deterministic order: the isl_down / flap_storm target pool.
func (r *runner) upInterLinks() []mpc.Link {
	var out []mpc.Link
	for _, l := range r.snap.InterLinks {
		if nl := r.tb.Net.Link(l[0], l[1]); nl != nil && nl.IsUp() {
			out = append(out, l)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a][0] != out[b][0] {
			return out[a][0] < out[b][0]
		}
		return out[a][1] < out[b][1]
	})
	return out
}

// liveAgentIDs lists connected, non-blackholed agents in ascending order:
// the crash / conn-drop / blackhole target pool. Caller must not hold r.mu.
func (r *runner) liveAgentIDs() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]int, 0, len(r.agents))
	for id := range r.agents {
		if r.gates[id] == nil {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// injectFaults draws this round's faults from the scenario pool and
// applies them. Returns the hard link failures and satellites crashed now
// (both feed the MPC repair).
func (r *runner) injectFaults(rr *RoundReport) ([]mpc.Link, []int, error) {
	var failedLinks []mpc.Link
	var crashedNow []int
	for _, kind := range r.c.Scenario.Faults {
		switch kind {
		case FaultISLDown:
			cands := r.upInterLinks()
			if len(cands) == 0 {
				continue
			}
			l := cands[r.rng.Intn(len(cands))]
			r.tb.Net.Link(l[0], l[1]).Down()
			failedLinks = append(failedLinks, l)
			rr.Faults = append(rr.Faults, fmt.Sprintf("isl_down %d-%d", l[0], l[1]))
			r.event(string(FaultISLDown), "a", fmt.Sprint(l[0]), "b", fmt.Sprint(l[1]))

		case FaultFlapStorm:
			cands := r.upInterLinks()
			if len(cands) == 0 {
				continue
			}
			l := cands[r.rng.Intn(len(cands))]
			nl := r.tb.Net.Link(l[0], l[1])
			im := r.impair[nl]
			if im == nil {
				im = netem.NewImpairment(r.rng.Int63(), 0.35)
				im.LossUntil = r.tb.Net.Sim.Now() + r.c.WindowSec
				im.Attach(r.tb.Net.Sim, nl, 0)
				r.impair[nl] = im
			} else {
				im.LossUntil = r.tb.Net.Sim.Now() + r.c.WindowSec
			}
			rr.Faults = append(rr.Faults, fmt.Sprintf("flap_storm %d-%d", l[0], l[1]))
			r.event(string(FaultFlapStorm), "a", fmt.Sprint(l[0]), "b", fmt.Sprint(l[1]))

		case FaultSatCrash:
			var cands []int
			for _, id := range r.liveAgentIDs() {
				if s := r.tb.Net.Sats[id]; s != nil && len(s.Peers()) > 0 {
					cands = append(cands, id)
				}
			}
			if len(cands) == 0 {
				continue
			}
			id := cands[r.rng.Intn(len(cands))]
			r.mu.Lock()
			a := r.agents[id]
			delete(r.agents, id)
			r.mu.Unlock()
			a.Close()
			for _, peer := range r.tb.Net.Sats[id].Peers() {
				if nl := r.tb.Net.Link(id, peer); nl != nil && nl.IsUp() {
					nl.Down()
					failedLinks = append(failedLinks, mpc.MakeLink(id, peer))
				}
			}
			r.crashed[id] = true
			crashedNow = append(crashedNow, id)
			if err := r.waitCond(func() bool {
				return r.ctl.AgentCount() == r.agentCount()
			}, "crash deregistration"); err != nil {
				return nil, nil, err
			}
			rr.Faults = append(rr.Faults, fmt.Sprintf("sat_crash %d", id))
			r.event(string(FaultSatCrash), "sat", fmt.Sprint(id))

		case FaultConnDrop:
			cands := r.liveAgentIDs()
			if len(cands) == 0 {
				continue
			}
			id := cands[r.rng.Intn(len(cands))]
			r.mu.Lock()
			a := r.agents[id]
			r.mu.Unlock()
			before := r.ctl.Registrations(uint32(id))
			a.DropConn()
			if err := r.waitCond(func() bool {
				return r.ctl.Registrations(uint32(id)) > before
			}, "agent reconnect"); err != nil {
				return nil, nil, err
			}
			rr.Faults = append(rr.Faults, fmt.Sprintf("conn_drop %d", id))
			r.event(string(FaultConnDrop), "sat", fmt.Sprint(id))

		case FaultBlackhole:
			// Prefer wedging an agent the repair loop is about to command:
			// the addressed endpoint of a link already failed this round
			// (commandTarget prefers the lower endpoint). Falling back to
			// any live agent keeps the fault meaningful in fault pools
			// without a topology failure.
			var cands []int
			live := map[int]bool{}
			for _, id := range r.liveAgentIDs() {
				live[id] = true
			}
			seen := map[int]bool{}
			for _, l := range failedLinks {
				for _, end := range []int{l[0], l[1]} {
					if live[end] && !seen[end] {
						seen[end] = true
						cands = append(cands, end)
						break // only the endpoint commandTarget would pick
					}
				}
			}
			if len(cands) == 0 {
				cands = r.liveAgentIDs()
			}
			if len(cands) == 0 {
				continue
			}
			id := cands[r.rng.Intn(len(cands))]
			r.mu.Lock()
			r.gates[id] = make(chan struct{})
			r.mu.Unlock()
			rr.Faults = append(rr.Faults, fmt.Sprintf("blackhole %d", id))
			r.event(string(FaultBlackhole), "sat", fmt.Sprint(id))

		case FaultDemandSurge:
			n := len(r.flows) / 3
			if n < 1 {
				n = 1
			}
			var cands []int
			for fi := range r.flows {
				if !r.surged[fi] {
					cands = append(cands, fi)
				}
			}
			for i := 0; i < n && len(cands) > 0; i++ {
				j := r.rng.Intn(len(cands))
				fi := cands[j]
				cands = append(cands[:j], cands[j+1:]...)
				r.surged[fi] = true
				rr.Faults = append(rr.Faults, fmt.Sprintf("demand_surge flow%d", fi))
				r.event(string(FaultDemandSurge), "flow", fmt.Sprint(fi))
			}
		}
	}
	return failedLinks, crashedNow, nil
}

func (r *runner) agentCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.agents)
}

// injectWindow offers one window of load on every flow and runs the sim
// through it. Surged flows inject their multiplied load as a burst at the
// window start (a demand spike), normal flows pace evenly.
func (r *runner) injectWindow(rr *RoundReport) {
	sim := r.tb.Net.Sim
	start := sim.Now()
	payload := make([]byte, campaignPayloadBytes)
	for fi := range r.flows {
		count := r.c.PacketsPerWindow
		burst := false
		if r.surged[fi] {
			factor := r.c.Scenario.SurgeFactor
			if factor < 2 {
				factor = 2
			}
			count *= factor
			burst = true
		}
		for i := 0; i < count; i++ {
			off := r.c.WindowSec * float64(i) / float64(count)
			if burst {
				off = 0
			}
			fi := fi
			r.pktSeq++
			seq := r.pktSeq
			sim.Schedule(off, func() {
				f := r.flows[fi]
				p, err := dataplane.NewGeoPacket(uint32(f.gw), f.route, uint32(fi), seq, payload)
				if err != nil {
					return
				}
				r.tb.Net.Inject(f.gw, p)
			})
			rr.PacketsSent++
		}
	}
	sim.Run(start + r.c.WindowSec)
}

// enforce pushes the repair diff southbound and settles it: healthy agents
// ack over TCP; blackholed agents are driven through retransmission and
// ack-timeout abandonment on the virtual clock; the unreachable set is
// drained before gates release so late acknowledgements cannot leak into
// the next round's failure input.
func (r *runner) enforce(rr *RoundReport, added, removed []mpc.Link) error {
	type cmd struct {
		l  mpc.Link
		up bool
	}
	var cmds []cmd
	for _, l := range added {
		cmds = append(cmds, cmd{l, true})
	}
	for _, l := range removed {
		cmds = append(cmds, cmd{l, false})
	}
	// One mpc.emit root per round: every enforced command's causal tree
	// (send → retransmits → apply → ack) hangs off it in the merged trace.
	var emit obs.Span
	if r.c.Tracer != nil && r.c.Tracer.Enabled() {
		emit = r.c.Tracer.StartSpanCtx(obs.SpanContext{}, "mpc.emit",
			"round", fmt.Sprint(r.round),
			"commands", fmt.Sprint(len(cmds)))
	}
	defer emit.End()
	// One slot-delta batch per target satellite: ops in command order,
	// targets in ascending order.
	batchOps := map[int][]southbound.SlotDeltaOp{}
	batchActs := map[int][]islAction{}
	var targets []int
	for _, c := range cmds {
		target, other, ok := r.commandTarget(c.l)
		if !ok {
			rr.CommandsUnknown++
			continue
		}
		if _, seen := batchOps[target]; !seen {
			targets = append(targets, target)
		}
		batchOps[target] = append(batchOps[target], southbound.SlotDeltaOp{Peer: uint32(other), Up: c.up})
		batchActs[target] = append(batchActs[target], islAction{link: c.l, up: c.up})
	}
	sort.Ints(targets)
	gatedSends := 0
	gatedTargets := map[int]bool{}
	for _, target := range targets {
		m := &southbound.Message{
			Type: southbound.MsgSlotDelta, SatID: uint32(target),
			Payload: southbound.EncodeSlotDelta(batchOps[target]),
			Trace:   emit.Context(), Emitted: r.vc.Now(),
		}
		if err := r.ctl.Send(m); err != nil {
			rr.CommandsUnknown++
			continue
		}
		rr.CommandsSent++
		r.mu.Lock()
		r.actions[m.Seq] = batchActs[target]
		gated := r.gates[target] != nil
		r.mu.Unlock()
		if gated {
			gatedSends++
			gatedTargets[target] = true
		}
	}

	// Healthy agents ack promptly over real TCP.
	if err := r.waitCond(func() bool {
		return r.ctl.PendingAcks() <= gatedSends
	}, "command acks"); err != nil {
		return err
	}
	// Wedged agents must have reached their blocking callback before the
	// virtual clock moves: their apply span starts (and the trace's
	// determinism) depend on the command being read at this round's time,
	// not mid-retransmit-sweep.
	if len(gatedTargets) > 0 {
		if err := r.waitCond(func() bool {
			r.mu.Lock()
			defer r.mu.Unlock()
			for id := range gatedTargets {
				if !r.wedgedEntered[id] {
					return false
				}
			}
			return true
		}, "wedged agents entering apply"); err != nil {
			return err
		}
	}
	// Anything still pending targets a wedged agent: retransmit on the
	// virtual clock up to the cap, then abandon past AckTimeout.
	if r.ctl.PendingAcks() > 0 {
		for i := 0; i <= campaignMaxRetrans; i++ {
			r.vc.Advance(campaignRetransmit)
			r.ctl.SweepPending()
			//lint:tinyleo-ignore real-IO settling pause; logical outcomes are gated on waitCond, not on this sleep
			time.Sleep(2 * time.Millisecond) // let retransmission writes land
		}
		r.vc.Advance(campaignAckTimeout)
		r.ctl.SweepPending()
	}
	unreachable := r.ctl.TakeUnreachable()
	r.prevUnreachable = r.prevUnreachable[:0]
	for _, id := range unreachable {
		r.prevUnreachable = append(r.prevUnreachable, int(id))
		r.event("unreachable", "sat", fmt.Sprint(id))
	}
	r.mu.Lock()
	rr.CommandsAbandoned = r.abandonedRound
	released := make([]int, 0, len(r.gates))
	for id, gate := range r.gates {
		close(gate)
		released = append(released, id)
	}
	r.gates = map[int]chan struct{}{}
	r.wedgedEntered = map[int]bool{}
	r.mu.Unlock()
	sort.Ints(released)

	// Flush barrier: one inert probe per released agent. Its ack arriving
	// implies every buffered retransmission before it was processed (the
	// connection is FIFO and the controller serves it serially), so the
	// acked set is settled before we read it.
	for _, id := range released {
		probe := &southbound.Message{Type: southbound.MsgSetRing, SatID: uint32(id), Peer: uint32(id)}
		if err := r.ctl.Send(probe); err != nil {
			continue // agent died mid-round; nothing buffered to flush
		}
	}
	if err := r.waitCond(func() bool {
		return r.ctl.PendingAcks() == 0
	}, "flush barrier"); err != nil {
		return err
	}
	r.mu.Lock()
	for seq := range r.actions {
		if r.acked[seq] {
			rr.CommandsAcked++
		}
	}
	r.mu.Unlock()
	return nil
}

// commandTarget picks the agent a change to l is addressed to: the lower
// endpoint's live agent, else the other endpoint's. ok is false when
// neither endpoint is reachable (the change is unenforceable this round).
func (r *runner) commandTarget(l mpc.Link) (target, other int, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.agents[l[0]] != nil {
		return l[0], l[1], true
	}
	if r.agents[l[1]] != nil {
		return l[1], l[0], true
	}
	return 0, 0, false
}

// applyTopology applies the round's acknowledged slot-delta batches to the
// emulated network and rebuilds the gateway rings from the new snapshot.
func (r *runner) applyTopology(snap *mpc.Snapshot) {
	r.mu.Lock()
	seqs := make([]int, 0, len(r.actions))
	for seq := range r.actions {
		seqs = append(seqs, int(seq))
	}
	sort.Ints(seqs)
	acts := make([]islAction, 0, len(seqs))
	for _, seq := range seqs {
		if r.acked[uint32(seq)] {
			acts = append(acts, r.actions[uint32(seq)]...)
		}
	}
	r.mu.Unlock()
	for _, a := range acts {
		if a.up {
			if r.ensureSat(snap, a.link[0]) && r.ensureSat(snap, a.link[1]) {
				r.tb.Net.EnsureLink(a.link[0], a.link[1], mpc.LinkDelay(r.tb.Sats, a.link, snap.Time))
			}
		} else if nl := r.tb.Net.Link(a.link[0], a.link[1]); nl != nil && nl.IsUp() {
			nl.Down()
		}
	}
	mpc.InstallRings(r.tb.Net, snap)
}

// ensureSat makes sure a repair-introduced gateway satellite exists in the
// network, homed to its snapshot cell.
func (r *runner) ensureSat(snap *mpc.Snapshot, id int) bool {
	if r.tb.Net.Sats[id] != nil {
		return true
	}
	cells := make([]int, 0, len(snap.CellSats))
	for c := range snap.CellSats {
		cells = append(cells, c)
	}
	sort.Ints(cells)
	for _, c := range cells {
		for _, s := range snap.CellSats[c] {
			if s == id {
				r.tb.Net.AddSatellite(id, c)
				return true
			}
		}
	}
	return false
}

// finish aggregates counters and scores the campaign's SLOs.
func (r *runner) finish(wallStart time.Time) error {
	rep := r.report
	reg := r.ctl.Metrics()
	rep.Retransmits = reg.Counter(southbound.MetricRetransmits).Value()
	rep.AckTimeouts = reg.Counter(southbound.MetricAckTimeouts).Value()
	r.mu.Lock()
	rep.Reconnects = r.reconnects
	r.mu.Unlock()
	for _, l := range r.tb.Net.Links() {
		rep.LinkDrops += l.Drops
		rep.LostInFlight += l.LostInFlight
	}
	for _, im := range r.impair {
		rep.ImpairmentLosses += im.Losses
	}
	sent, acked := 0, 0
	for _, rr := range rep.Rounds {
		sent += rr.CommandsSent
		acked += rr.CommandsAcked
	}
	if sent > 0 {
		rep.EnforcementRatio = float64(acked) / float64(sent)
	} else {
		rep.EnforcementRatio = 1
	}
	rep.Fleet = r.fleetSummary()
	rep.aggregate()
	if err := rep.score(r.c.Scenario.SLO); err != nil {
		return err
	}
	//lint:tinyleo-ignore WallElapsedMs is wall telemetry excluded from the canonical (seed-keyed) report fields
	rep.WallElapsedMs = float64(time.Since(wallStart).Microseconds()) / 1000
	return nil
}

// fleetSummary reads the campaign's final constellation health view out
// of the aggregator. Everything here is derived from virtual-clock state
// settled by the last flushFleet, so the summary is deterministic and
// belongs in CanonicalJSON.
func (r *runner) fleetSummary() *FleetSummary {
	v := r.agg.View()
	fs := &FleetSummary{
		Agents:       len(v.Agents),
		States:       v.States,
		DecodeErrors: v.DecodeErrors,
		Totals:       v.Totals,
	}
	for _, ag := range v.Agents {
		fs.Reports += ag.Reports
		fs.Bytes += ag.Bytes
		fs.Gaps += ag.Gaps
		if ag.State == fleet.StateSilent {
			fs.Silent = append(fs.Silent, int(ag.ID))
		}
	}
	ids := make([]int, 0, len(r.fleetApplied))
	for id := range r.fleetApplied {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fs.AppliedTotal += r.fleetApplied[id].Value()
	}
	return fs
}

// waitCond polls cond (real time) until it holds or the settle timeout
// expires. Only logical state is read inside cond, so the poll cadence
// never leaks into the report.
func (r *runner) waitCond(cond func() bool, what string) error {
	//lint:tinyleo-ignore real-time settle poll over real sockets; cond reads logical state only, so cadence cannot leak into the report
	deadline := time.Now().Add(settleTimeout)
	//lint:tinyleo-ignore real-time settle poll over real sockets; cond reads logical state only, so cadence cannot leak into the report
	for time.Now().Before(deadline) {
		if cond() {
			return nil
		}
		//lint:tinyleo-ignore real-time settle poll over real sockets; cond reads logical state only, so cadence cannot leak into the report
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("chaos: timed out waiting for %s", what)
}

// shutdown releases any held gates (a wedged agent cannot close while its
// OnCommand is blocked) and tears the southbound plane down.
func (r *runner) shutdown() {
	r.mu.Lock()
	for _, gate := range r.gates {
		close(gate)
	}
	r.gates = map[int]chan struct{}{}
	ids := make([]int, 0, len(r.agents))
	for id := range r.agents {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	agents := make([]*southbound.Agent, 0, len(ids))
	for _, id := range ids {
		agents = append(agents, r.agents[id])
	}
	r.mu.Unlock()
	for _, a := range agents {
		a.Close()
	}
	if r.ctl != nil {
		r.ctl.Close()
	}
}
