package main

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mpc"
	"repro/internal/obs"
	"repro/internal/southbound"
)

// slotPeriod is the open-loop slot clock of the control workload: one
// slot is due every slotPeriod of wall time, each advancing the orbital
// clock by one lifetime step (30 s).
const slotPeriod = 20 * time.Millisecond

// ackDeadline bounds the wait for one operation's acks; past it the
// operation counts as failed.
const ackDeadline = 10 * time.Second

func slotsFor(budget time.Duration) int {
	n := int(budget / slotPeriod)
	if n < 1 {
		n = 1
	}
	return n
}

// controlLoop is the online loop: the MPC compiles each slot from the
// last enforced snapshot and the delta enforcer pushes the diff to the
// uplink over loopback TCP; ISL failures between slots are repaired and
// pushed the same way.
type controlLoop struct {
	in  *controlInputs
	sc  *chainScenario
	sb  *southbound.Controller
	enf *southbound.DeltaEnforcer
	up  *uplink

	acks      chan struct{} // signalled on every ack (capacity 1, coalescing)
	ackCount  atomic.Int64
	abandoned atomic.Int64
	ackMu     sync.Mutex
	//tinyleo:guardedby ackMu
	lastAck time.Time

	heap *heapProbe

	// enforced is the last snapshot the uplink acked: the bootstrap
	// snapshot after set-up, then each slot's or repair's.
	enforced *mpc.Snapshot
	// Controller counters at the end of set-up.
	retransmits0, deltaMsgs0, snapMsgs0 int64

	// Per-satellite scratch for turning a link diff into pushes.
	addBy, delBy [][]uint32
	desired      [][]uint32

	slotMs, repairMs, lagMs          []float64
	compileWarmMs, compileColdMs     []float64
	repairUs, allocKB, enforcement   []float64
	linksChanged                     int
	slots, slotsFailed               int
	repairs, repairsFailed           int
	slotsDiverged, repairsDiverged   int // only rebooted satellites diverge
	missed, divergentSatSlots        int
	unexplained                      int // divergent sat-slots no reboot explains
	cmds, bytes                      int64
	pushErrors                       int
	compiled                         map[int][]mpc.Link // check slots' compiled links
	retransmits, deltaMsgs, snapMsgs int64
}

func newControlLoop(seed int64, slots int, timed bool) (*controlLoop, error) {
	sc, err := newChainScenario()
	if err != nil {
		return nil, err
	}
	c := &controlLoop{
		in:       genControl(seed, slots, len(sc.sats)),
		sc:       sc,
		acks:     make(chan struct{}, 1),
		heap:     newHeapProbe(),
		addBy:    make([][]uint32, len(sc.sats)),
		delBy:    make([][]uint32, len(sc.sats)),
		desired:  make([][]uint32, len(sc.sats)),
		compiled: map[int][]mpc.Link{},
	}
	c.sb, err = southbound.ListenController("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c.sb.OnAck = func(*southbound.Message) {
		c.ackMu.Lock()
		c.lastAck = time.Now()
		c.ackMu.Unlock()
		c.ackCount.Add(1)
		select {
		case c.acks <- struct{}{}:
		default:
		}
	}
	c.sb.OnCommandFailed = func(*southbound.Message) { c.abandoned.Add(1) }
	c.enf = southbound.NewDeltaEnforcer(c.sb)
	// The controller writes the hello-ack before it runs OnRegister,
	// where the enforcer marks the satellite unsynced. The uplink waits
	// for the hook instead of the ack, so a push right after a
	// registration always sees the satellite unsynced.
	registered := make(chan uint32, len(sc.sats))
	enforcerHook := c.sb.OnRegister
	c.sb.OnRegister = func(sat uint32) {
		enforcerHook(sat)
		registered <- sat
	}
	c.up, err = dialUplink(c.sb.Addr(), runtime.NumCPU(), len(sc.sats), timed, registered)
	if err != nil {
		c.sb.Close()
		return nil, err
	}
	if err := c.bootstrap(); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// bootstrap compiles the topology at orbital time 0 and enforces it in
// full, so the timed loop starts from a synced constellation. A
// controller pays this once when it starts.
func (c *controlLoop) bootstrap() error {
	snap := c.sc.ctl.Compile(0)
	added, _ := mpc.DiffLinks(nil, snap)
	if _, ok := c.enforce(added, nil, nil); !ok {
		return errors.New("bootstrap enforcement failed")
	}
	if div, _ := c.divergence(snap); div > 0 {
		return fmt.Errorf("bootstrap left %d satellites diverged", div)
	}
	c.enforced = snap
	c.retransmits0 = c.counter(southbound.MetricRetransmits)
	c.deltaMsgs0 = c.counter(southbound.MetricDeltaMessages, "kind", "delta")
	c.snapMsgs0 = c.counter(southbound.MetricDeltaMessages, "kind", "snapshot")
	return nil
}

func (c *controlLoop) counter(name string, labels ...string) int64 {
	return c.sb.Metrics().Counter(name, labels...).Value()
}

func (c *controlLoop) close() {
	c.sb.Close()
	c.up.close()
}

// run drives every generated slot on the open-loop clock.
func (c *controlLoop) run(rec *recorder) error {
	checks := map[int]bool{}
	for _, s := range c.in.checkSlots {
		checks[s] = true
	}
	c.heap.start()
	start := time.Now()
	enforced := c.enforced
	t := 0.0
	for k, ev := range c.in.slots {
		due := start.Add(time.Duration(k) * slotPeriod)
		sleepUntil(due)
		c.lagMs = append(c.lagMs, msSince(due))
		t = slotTime(t, ev)
		enforced = c.slot(k, t, due, enforced, ev.catchUpSteps > 0, checks[k], rec)
		c.enforcement = append(c.enforcement, c.sc.ctl.EnforcementRatio(enforced))
		var err error
		enforced, err = c.gap(ev, due, enforced, rec)
		if err != nil {
			return err
		}
	}
	c.enforced = enforced
	c.retransmits = c.counter(southbound.MetricRetransmits) - c.retransmits0
	c.deltaMsgs = c.counter(southbound.MetricDeltaMessages, "kind", "delta") - c.deltaMsgs0
	c.snapMsgs = c.counter(southbound.MetricDeltaMessages, "kind", "snapshot") - c.snapMsgs0
	return nil
}

// slot compiles, diffs and enforces one slot and checks every
// satellite's installed state at its end.
func (c *controlLoop) slot(k int, t float64, due time.Time, enforced *mpc.Snapshot, cold, check bool, rec *recorder) *mpc.Snapshot {
	c.slots++
	rec.begin("control.slot", rec.newTrace())
	b0, _ := c.heap.allocated()
	t0 := time.Now()
	rec.begin("mpc.delta_compile", 0)
	snap := c.sc.ctl.DeltaCompile(enforced, t)
	rec.end()
	compileMs := msSince(t0)
	b1, _ := c.heap.allocated()
	c.allocKB = append(c.allocKB, float64(b1-b0)/1e3)
	if cold {
		c.compileColdMs = append(c.compileColdMs, compileMs)
	} else {
		c.compileWarmMs = append(c.compileWarmMs, compileMs)
	}
	if check {
		c.compiled[k] = snap.Links()
	}
	rec.begin("mpc.diff_links", 0)
	added, removed := mpc.DiffLinks(enforced, snap)
	rec.end()
	c.linksChanged += len(added) + len(removed)
	cmds0, bytes0 := c.up.cmds.Load(), c.up.bytes.Load()
	last, ok := c.enforce(added, removed, rec)
	rec.end()
	done := last
	if !ok {
		done = time.Now()
	}
	lat := ms(done.Sub(due))
	c.slotMs = append(c.slotMs, lat)
	if lat > ms(slotPeriod) {
		c.missed++
	}
	c.cmds += c.up.cmds.Load() - cmds0
	c.bytes += c.up.bytes.Load() - bytes0
	switch div, unexplained := c.divergence(snap); {
	case !ok || unexplained > 0:
		c.slotsFailed++
	case div > 0:
		c.slotsDiverged++
	}
	c.heap.observe()
	return snap
}

// gap handles the events generated between slot due and the next slot:
// ISL failures (repaired and pushed) and satellite re-registrations, each
// at its arrival time.
func (c *controlLoop) gap(ev slotEvents, due time.Time, enforced *mpc.Snapshot, rec *recorder) (*mpc.Snapshot, error) {
	fi, ri := 0, 0
	for fi < len(ev.failures) || ri < len(ev.reregs) {
		if ri == len(ev.reregs) || (fi < len(ev.failures) && ev.failures[fi].at <= ev.reregs[ri].at) {
			f := ev.failures[fi]
			fi++
			arrival := due.Add(time.Duration(f.at * float64(slotPeriod)))
			sleepUntil(arrival)
			if len(enforced.InterLinks) == 0 {
				continue
			}
			enforced = c.repair(enforced, enforced.InterLinks[pickIndex(f.pick, len(enforced.InterLinks))], arrival, rec)
			continue
		}
		r := ev.reregs[ri]
		ri++
		sleepUntil(due.Add(time.Duration(r.at * float64(slotPeriod))))
		if err := c.up.reregister(r.sat, r.reboot); err != nil {
			return nil, err
		}
	}
	return enforced, nil
}

func (c *controlLoop) repair(enforced *mpc.Snapshot, failed mpc.Link, arrival time.Time, rec *recorder) *mpc.Snapshot {
	c.repairs++
	rec.begin("control.repair", rec.newTrace())
	t0 := time.Now()
	rec.begin("mpc.repair", 0)
	repaired, _ := c.sc.ctl.Repair(enforced, []mpc.Link{failed}, nil, 0)
	rec.end()
	c.repairUs = append(c.repairUs, float64(time.Since(t0))/1e3)
	rec.begin("mpc.diff_links", 0)
	added, removed := mpc.DiffLinks(enforced, repaired)
	rec.end()
	cmds0, bytes0 := c.up.cmds.Load(), c.up.bytes.Load()
	last, ok := c.enforce(added, removed, rec)
	rec.end()
	if !ok {
		last = time.Now()
	}
	c.repairMs = append(c.repairMs, ms(last.Sub(arrival)))
	c.cmds += c.up.cmds.Load() - cmds0
	c.bytes += c.up.bytes.Load() - bytes0
	switch div, unexplained := c.divergence(repaired); {
	case !ok || unexplained > 0:
		c.repairsFailed++
	case div > 0:
		c.repairsDiverged++
	}
	c.heap.observe()
	return repaired
}

// enforce pushes one diff — one Push per changed satellite, ascending —
// and waits for every ack. It returns the time of the last ack (or of
// the last push when nothing was sent) and whether every command was
// delivered.
func (c *controlLoop) enforce(added, removed []mpc.Link, rec *recorder) (time.Time, bool) {
	var touched []int
	note := func(by [][]uint32, a, b int) {
		if len(c.addBy[a]) == 0 && len(c.delBy[a]) == 0 {
			touched = append(touched, a)
		}
		by[a] = append(by[a], uint32(b))
	}
	for _, l := range added {
		note(c.addBy, l[0], l[1])
		note(c.addBy, l[1], l[0])
	}
	for _, l := range removed {
		note(c.delBy, l[0], l[1])
		note(c.delBy, l[1], l[0])
	}
	sort.Ints(touched)
	acks0, abandoned0 := c.ackCount.Load(), c.abandoned.Load()
	ok := true
	rec.begin("southbound.push", 0)
	for _, sat := range touched {
		if err := c.enf.Push(uint32(sat), c.addBy[sat], c.delBy[sat], time.Time{}, obs.SpanContext{}); err != nil {
			c.pushErrors++
			ok = false
		}
		c.addBy[sat], c.delBy[sat] = c.addBy[sat][:0], c.delBy[sat][:0]
	}
	rec.end()
	pushed := time.Now()
	rec.begin("southbound.ack_wait", 0)
	delivered := c.awaitAcks()
	rec.end()
	last := pushed
	if c.ackCount.Load() != acks0 {
		c.ackMu.Lock()
		last = c.lastAck
		c.ackMu.Unlock()
	}
	if last.Before(pushed) {
		last = pushed
	}
	return last, ok && delivered && c.abandoned.Load() == abandoned0
}

// awaitAcks waits until the controller holds no unacknowledged command,
// driving its retransmit sweep while it waits.
func (c *controlLoop) awaitAcks() bool {
	deadline := time.Now().Add(ackDeadline)
	var tick *time.Timer
	for c.sb.PendingAcks() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		if tick == nil {
			tick = time.NewTimer(100 * time.Millisecond)
			defer tick.Stop()
		}
		select {
		case <-c.acks:
		case <-tick.C:
			c.sb.SweepPending()
			tick.Reset(100 * time.Millisecond)
		}
	}
	return true
}

// divergence counts satellites whose installed peer set differs from the
// snapshot's, and those of them no reboot explains.
func (c *controlLoop) divergence(snap *mpc.Snapshot) (n, unexplained int) {
	for i := range c.desired {
		c.desired[i] = c.desired[i][:0]
	}
	for _, l := range snap.Links() {
		c.desired[l[0]] = append(c.desired[l[0]], uint32(l[1]))
		c.desired[l[1]] = append(c.desired[l[1]], uint32(l[0]))
	}
	// A link may appear twice (once inter-cell, once in a ring); the
	// satellites hold peer sets.
	for i, d := range c.desired {
		slices.Sort(d)
		c.desired[i] = slices.Compact(d)
	}
	n, unexplained = c.up.divergent(c.desired)
	c.divergentSatSlots += n
	c.unexplained += unexplained
	return n, unexplained
}

// check recompiles the sampled slots on a fresh controller: DeltaCompile
// must be byte-identical to a full Compile of the same time.
func (c *controlLoop) check(rep *report) {
	if bad := c.up.bad.Load(); bad > 0 {
		rep.problem("control: %d southbound commands failed to decode", bad)
	}
	fresh, err := newChainScenario()
	if err != nil {
		rep.problem("control: fresh controller: %v", err)
		return
	}
	t := 0.0
	for k, ev := range c.in.slots {
		t = slotTime(t, ev)
		got, ok := c.compiled[k]
		if !ok {
			continue
		}
		if want := fresh.ctl.Compile(t).Links(); !slices.Equal(got, want) {
			rep.problem("control: slot %d DeltaCompile differs from a fresh Compile(%.0f)", k, t)
			c.slotsFailed++
		}
	}
	if c.unexplained > 0 {
		rep.problem("control: %d divergent sat-slots without a reboot to explain them", c.unexplained)
	}
	if c.pushErrors > 0 {
		rep.problem("control: %d pushes failed", c.pushErrors)
	}
	if n := c.abandoned.Load(); n > 0 {
		rep.problem("control: %d commands abandoned", n)
	}
}

// ops reports the slots and repairs: failed when an output check found a
// wrong result, ok when every command was acked and every satellite
// holds the enforced snapshot.
func (c *controlLoop) ops(rep *report) {
	n, failed := c.slots+c.repairs, c.slotsFailed+c.repairsFailed
	rep.ops(n, failed, n-failed-c.slotsDiverged-c.repairsDiverged)
}

func (c *controlLoop) endToEnd(rep *report) {
	rep.opMs(c.slotMs)
	c.ops(rep)
	c.heap.note(rep)
	rep.note("slots %d (failed %d, diverged %d, missed %d), repairs %d (failed %d, diverged %d), divergent sat-slots %d",
		c.slots, c.slotsFailed, c.slotsDiverged, c.missed, c.repairs, c.repairsFailed, c.repairsDiverged, c.divergentSatSlots)
	rep.note("slot_p50_ms %.4f ms, slot_p99_ms %.4f ms, slot_miss_ratio %.4f",
		median(c.slotMs), quantile(c.slotMs, 0.99), ratio(float64(c.missed), float64(c.slots)))
	rep.note("repair_p50_ms %.4f ms, repair_p99_ms %.4f ms",
		median(c.repairMs), quantile(c.repairMs, 0.99))
	rep.note("sb_msgs_per_slot %.4f count, sb_bytes_per_slot %.4f B",
		ratio(float64(c.cmds), float64(c.slots)), ratio(float64(c.bytes), float64(c.slots)))
}

// layers sets the per-layer metrics: counts from c (an untraced run, or
// the traced one when no untraced run was made), busy and wait times
// from rec.
func (c *controlLoop) layers(rep *report, rec *recorder, traced *controlLoop) {
	slots := float64(c.slots)
	rep.set("control.slot_p50_ms", median(c.slotMs))
	rep.set("control.slot_p99_ms", quantile(c.slotMs, 0.99))
	rep.set("control.slot_miss_ratio", ratio(float64(c.missed), slots))
	rep.set("control.repair_p50_ms", median(c.repairMs))
	rep.set("control.repair_p99_ms", quantile(c.repairMs, 0.99))
	rep.set("control.sb_msgs_per_slot", ratio(float64(c.cmds), slots))
	rep.set("control.sb_bytes_per_slot", ratio(float64(c.bytes), slots))
	st := c.sc.ctl.CacheStats()
	rep.set("orbit.cache_hit_ratio", st.HitRatio())
	rep.set("orbit.warm_hit_ratio", st.WarmHitRatio())
	rep.set("mpc.compile_warm_p50_ms", median(traced.compileWarmMs))
	rep.set("mpc.compile_cold_p50_ms", median(traced.compileColdMs))
	rep.set("mpc.repair_p50_us", quantile(traced.repairUs, 0.5))
	rep.set("mpc.repair_p99_us", quantile(traced.repairUs, 0.99))
	rep.set("mpc.links_changed_per_slot", ratio(float64(c.linksChanged), slots))
	rep.set("mpc.alloc_kb_per_slot", mean(c.allocKB))
	rep.set("mpc.enforcement_ratio", mean(c.enforcement))
	pushes := rec.agg("southbound.push")
	rep.set("southbound.push_us_per_slot", ratio(float64(pushes.total)/1e3, float64(traced.slots+traced.repairs)))
	rep.set("southbound.ack_wait_p50_ms", rec.quantileMs("southbound.ack_wait", 0.5))
	rep.set("southbound.ack_wait_p99_ms", rec.quantileMs("southbound.ack_wait", 0.99))
	rep.set("southbound.install_us_per_cmd", ratio(float64(traced.up.installNs.Load())/1e3, float64(traced.up.cmds.Load())))
	rep.set("southbound.delta_msgs", float64(c.deltaMsgs))
	rep.set("southbound.snapshot_msgs", float64(c.snapMsgs))
	rep.set("southbound.retransmits", float64(c.retransmits))
	rep.set("southbound.abandoned", float64(c.abandoned.Load()))
	rep.set("southbound.divergent_sat_slots", float64(c.divergentSatSlots))
	rep.set("harness.gen_lag_p99_ms", quantile(c.lagMs, 0.99))
}

// traceControl runs the control stage of a traced run.
func traceControl(rep *report, seed int64, selected bool, half time.Duration, rec *recorder) error {
	slots := miniControlSlots
	if selected {
		slots = slotsFor(half)
	}
	var untraced *controlLoop
	if selected {
		u, err := newControlLoop(seed, slots, false)
		if err != nil {
			return err
		}
		err = u.run(nil)
		u.close()
		if err != nil {
			return err
		}
		untraced = u
	}
	tr, err := newControlLoop(seed, slots, true)
	if err != nil {
		return err
	}
	defer tr.close()
	if err := tr.run(rec); err != nil {
		return err
	}
	if untraced == nil {
		untraced = tr
	}
	untraced.layers(rep, rec, tr)
	if selected {
		overhead(rep, untraced.slotMs, tr.slotMs, rec, "control.slot", "control.repair")
		untraced.heap.layers(rep)
	}
	rep.note("control inputs digest %s", tr.in.digest)
	tr.check(rep)
	tr.ops(rep)
	return nil
}

// miniControlSlots is the traced control pass run when another workload
// is selected.
const miniControlSlots = 100

// slotTime advances the orbital clock from the previous slot's time: one
// lifetime step, plus the jump of a catch-up slot.
func slotTime(prev float64, ev slotEvents) float64 {
	return prev + lifetimeStep*float64(1+ev.catchUpSteps)
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}
