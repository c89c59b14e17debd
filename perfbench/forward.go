package main

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/dataplane"
	"repro/internal/experiments"
	"repro/internal/mpc"
	"repro/internal/netem"
)

// drainHorizon is how far past its last injection a batch runs the
// simulator: far beyond any route's flight time, so every packet has
// been delivered, dropped or buffered when it returns.
const drainHorizon = 1.0

// forwardRun is the data-plane workload: one compiled snapshot of the
// chain scenario as an emulated network, flows between chain cells and
// batches of packets injected open loop in simulated time.
type forwardRun struct {
	in     *forwardInputs
	net    *dataplane.Network
	routes [][]int // per flow: cells from source to destination
	gws    []int   // per flow: injecting satellite
	inter  []*netem.Link
	links  []*netem.Link // every ISL, for conservation counts
	sats   []*dataplane.Satellite

	buildMs, routeMs float64
	payload          []byte
	heap             *heapProbe

	batchMs                    []float64
	injected, delivered, wrong int
	delaysMs                   []float64 // first pass over the batch pool only
	recordDelays               bool
	hops                       int
	allocs, allocBytes         uint64
	batches                    int
	conservation               int // batches whose packets did not add up
	unaccounted                int // packets by which those batches were off
}

func newForwardRun(seed int64, rec *recorder) (*forwardRun, error) {
	sc, err := newChainScenario()
	if err != nil {
		return nil, err
	}
	f := &forwardRun{in: genForward(seed), payload: make([]byte, bigPayload), heap: newHeapProbe()}
	snap := sc.ctl.Compile(0)
	t0 := time.Now()
	rec.begin("dataplane.build", rec.newTrace())
	f.net = experiments.NetworkFromSnapshot(snap, sc.sats)
	rec.end()
	f.buildMs = msSince(t0)
	t0 = time.Now()
	rec.begin("intent.route", rec.newTrace())
	for _, fl := range f.in.flows {
		r, err := sc.topo.ShortestPathRoute(sc.cells[fl.src], sc.cells[fl.dst])
		if err != nil {
			rec.end()
			return nil, fmt.Errorf("route %d→%d: %w", fl.src, fl.dst, err)
		}
		f.routes = append(f.routes, r.Cells)
	}
	rec.end()
	f.routeMs = msSince(t0)
	for i, route := range f.routes {
		gw, ok := f.injector(snap, route, f.in.flows[i].gwPick)
		if !ok {
			return nil, fmt.Errorf("flow %d: no gateway of cell %d toward %d", i, route[0], route[1])
		}
		f.gws = append(f.gws, gw)
	}
	for _, l := range snap.InterLinks {
		if nl := f.net.Link(l[0], l[1]); nl != nil {
			f.inter = append(f.inter, nl)
		}
	}
	if len(f.inter) == 0 {
		return nil, fmt.Errorf("snapshot has no inter-cell links in the network")
	}
	f.links = f.net.Links()
	for _, id := range sortedKeys(f.net.Sats) {
		f.sats = append(f.sats, f.net.Sats[id])
	}
	f.net.OnDeliver = f.onDeliver
	return f, nil
}

// injector picks the flow's injecting satellite among the source cell's
// gateways toward the route's next cell.
func (f *forwardRun) injector(snap *mpc.Snapshot, route []int, pick float64) (int, bool) {
	var cands []int
	if len(route) > 1 {
		for _, s := range snap.Gateways[[2]int{route[0], route[1]}] {
			if sat := f.net.Sats[s]; sat != nil && sat.Cell == route[0] {
				cands = append(cands, s)
			}
		}
	}
	if len(cands) == 0 {
		return 0, false
	}
	return cands[pickIndex(pick, len(cands))], true
}

// onDeliver checks a delivery against the route the packet was built
// from (its flow ID is the flow index).
func (f *forwardRun) onDeliver(sat *dataplane.Satellite, p *dataplane.Packet) {
	f.delivered++
	if route := f.routes[p.Base.FlowID]; sat.Cell != route[len(route)-1] {
		f.wrong++
	}
	f.hops += len(p.HopTrace) - 1
	if f.recordDelays {
		f.delaysMs = append(f.delaysMs, (f.net.Sim.Now()-p.SentAt)*1e3)
	}
}

// run injects batches until the budget is spent, at least minBatches.
func (f *forwardRun) run(budget time.Duration, minBatches int, rec *recorder) {
	f.heap.start()
	start := time.Now()
	for f.batches < minBatches || time.Since(start) < budget {
		f.recordDelays = f.batches < batchPool
		f.batch(&f.in.batches[f.batches%batchPool], rec)
		f.heap.observe()
		f.batches++
	}
}

func (f *forwardRun) batch(bs *batchSpec, rec *recorder) {
	sim := f.net.Sim
	base := sim.Now()
	var down []*netem.Link
	for _, p := range bs.failPicks {
		if l := f.inter[pickIndex(p, len(f.inter))]; !slices.Contains(down, l) {
			down = append(down, l)
		}
	}
	injected0, delivered0, drops0, lost0 := f.injected, f.delivered, f.drops(), f.lost()
	phase := 0
	advance := func(until float64) {
		rec.begin("netem.run", 0)
		sim.Run(until)
		rec.end()
	}
	failures := func(at float64) {
		if phase == 0 && at >= base+bs.downAt {
			advance(base + bs.downAt)
			for _, l := range down {
				l.Down()
			}
			phase = 1
		}
		if phase == 1 && at >= base+bs.upAt {
			advance(base + bs.upAt)
			for _, l := range down {
				l.Up()
			}
			f.net.FlushBuffers()
			phase = 2
		}
	}
	rec.begin("forward.batch", rec.newTrace())
	b0, o0 := f.heap.allocated()
	t0 := time.Now()
	for i := range bs.packets {
		ps := &bs.packets[i]
		at := base + ps.at
		failures(at)
		advance(at)
		route := f.routes[ps.flow]
		rec.begin("dataplane.encap", 0)
		p, err := dataplane.NewGeoPacket(uint32(f.gws[ps.flow]), route, uint32(ps.flow), uint32(f.injected), f.payload[:ps.size])
		rec.end()
		if err != nil {
			continue
		}
		f.injected++
		rec.begin("dataplane.inject", 0)
		f.net.Inject(f.gws[ps.flow], p)
		rec.end()
	}
	failures(base + batchWindow)
	advance(base + batchWindow + drainHorizon)
	wall := time.Since(t0)
	b1, o1 := f.heap.allocated()
	rec.end()
	f.batchMs = append(f.batchMs, ms(wall))
	f.allocBytes += b1 - b0
	f.allocs += o1 - o0
	// Conservation: every packet of the batch was delivered, dropped by a
	// forwarder, lost in flight on a failed link, or is still buffered.
	accounted := (f.delivered - delivered0) + (f.drops() - drops0) + (f.lost() - lost0) + f.buffered()
	if d := accounted - (f.injected - injected0); d != 0 {
		f.conservation++
		f.unaccounted += max(d, -d)
	}
}

func (f *forwardRun) drops() int {
	n := 0
	for _, s := range f.sats {
		n += int(s.Dropped)
	}
	return n
}

func (f *forwardRun) lost() int {
	n := 0
	for _, l := range f.links {
		n += int(l.LostInFlight)
	}
	return n
}

func (f *forwardRun) buffered() int {
	n := 0
	for _, s := range f.sats {
		n += len(s.Buffer)
	}
	return n
}

func sortedKeys(m map[int]*dataplane.Satellite) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func (f *forwardRun) check(rep *report) {
	if f.wrong > 0 {
		rep.problem("forward: %d packets delivered outside their destination cell", f.wrong)
	}
	if f.conservation > 0 {
		rep.problem("forward: %d batches do not add up (injected ≠ delivered + dropped + lost + buffered)", f.conservation)
	}
}

func (f *forwardRun) endToEnd(rep *report) {
	rep.opMs(f.batchMs)
	rep.ops(f.injected, f.wrong+f.unaccounted, f.delivered-f.wrong)
	f.heap.note(rep)
	wall := 0.0
	for _, b := range f.batchMs {
		wall += b
	}
	rep.note("batches %d, packets injected %d, delivered %d", f.batches, f.injected, f.delivered)
	rep.note("fwd_kpps %.4f kpkt/s, fwd_delay_p50_ms %.4f ms, fwd_delay_p99_ms %.4f ms (simulated)",
		ratio(float64(f.injected), wall), median(f.delaysMs), quantile(f.delaysMs, 0.99))
}

func (f *forwardRun) layers(rep *report, rec *recorder, traced *forwardRun) {
	wall := 0.0
	for _, b := range f.batchMs {
		wall += b
	}
	pk := float64(f.injected)
	rep.set("forward.kpps", ratio(pk, wall))
	rep.set("forward.batch_p99_ms", quantile(f.batchMs, 0.99))
	rep.set("forward.delay_p50_ms", median(f.delaysMs))
	rep.set("forward.delay_p99_ms", quantile(f.delaysMs, 0.99))
	rep.set("dataplane.encap_ns_per_pkt", rec.meanNs("dataplane.encap"))
	rep.set("dataplane.inject_ns_per_pkt", rec.meanNs("dataplane.inject"))
	rep.set("dataplane.hops_per_pkt", ratio(float64(f.hops), float64(f.delivered)))
	rep.set("dataplane.allocs_per_pkt", ratio(float64(f.allocs), pk))
	rep.set("dataplane.alloc_bytes_per_pkt", ratio(float64(f.allocBytes), pk))
	var fwd, failover, ring, buffered, dropped int64
	for _, s := range f.sats {
		fwd += s.Forwarded
		failover += s.Failovers
		ring += s.RingHops
		buffered += s.Buffered
		dropped += s.Dropped
	}
	rep.set("dataplane.failover_share", ratio(float64(failover), float64(fwd)))
	rep.set("dataplane.ring_hop_share", ratio(float64(ring), float64(fwd)))
	rep.set("dataplane.buffered_pkts", float64(buffered))
	rep.set("dataplane.dropped_pkts", float64(dropped))
	rep.set("dataplane.build_ms", traced.buildMs)
	rep.set("intent.route_ms", traced.routeMs)
	rep.set("netem.run_ns_per_pkt", ratio(float64(rec.agg("netem.run").total), float64(traced.injected)))
	var drops, lost int64
	for _, l := range f.links {
		drops += l.Drops
		lost += l.LostInFlight
	}
	rep.set("netem.queue_drops", float64(drops-lost))
	rep.set("netem.lost_in_flight", float64(lost))
}

// traceForward runs the forward stage of a traced run.
func traceForward(rep *report, seed int64, selected bool, half time.Duration, rec *recorder) error {
	var untraced *forwardRun
	if selected {
		u, err := newForwardRun(seed, nil)
		if err != nil {
			return err
		}
		u.run(half, 1, nil)
		untraced = u
	}
	tr, err := newForwardRun(seed, rec)
	if err != nil {
		return err
	}
	budget := time.Duration(0)
	if selected {
		budget = half
	}
	tr.run(budget, miniForwardBatches, rec)
	if untraced == nil {
		untraced = tr
	}
	untraced.layers(rep, rec, tr)
	if selected {
		overhead(rep, untraced.batchMs, tr.batchMs, rec, "forward.batch")
		untraced.heap.layers(rep)
	}
	rep.note("forward inputs digest %s", tr.in.digest)
	tr.check(rep)
	rep.ops(tr.injected, tr.wrong+tr.unaccounted, tr.delivered-tr.wrong)
	return nil
}

// miniForwardBatches is the traced forward pass run when another
// workload is selected.
const miniForwardBatches = batchPool
