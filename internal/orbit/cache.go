package orbit

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
)

// This file implements the propagation cache behind TinyLEO's per-slot
// compile (paper §4.2: the MPC "precomputes each satellite's serving
// cells" offline and only assembles topologies online). Orbit propagation
// and pairwise ISL-lifetime prediction dominate the compile cost; both
// are pure functions of (satellite, time), so a constellation-wide
// memo — shared by every control slot of a planning horizon and by
// incremental Repair — removes the redundant geometry work without
// changing a single output bit.

// cacheShards spreads the memo maps over independently locked shards so
// concurrent Compile and Repair calls do not serialize on one mutex.
const cacheShards = 64

// maxShardEntries bounds each shard; a shard that grows past the bound is
// reset wholesale (memoization is a pure cache, so dropping entries only
// costs recomputation).
const maxShardEntries = 1 << 14

// posKey identifies a memoized propagation: satellite index and the exact
// time quantized to its float64 bit pattern. Keying on the bit pattern
// makes cached positions bit-identical to direct propagation — equal
// times share an entry, near-equal times do not alias.
type posKey struct {
	sat   int32
	tbits uint64
}

// pairKey identifies a memoized ISL lifetime: a normalized satellite pair
// (a < b) and the establishment time's bit pattern.
type pairKey struct {
	a, b  int32
	tbits uint64
}

type posShard struct {
	mu sync.RWMutex
	//tinyleo:guardedby mu
	m map[posKey]geom.Vec3
}

type lifeShard struct {
	mu sync.RWMutex
	//tinyleo:guardedby mu
	m map[pairKey]float64
}

// visRun records the outcome of one lifetime evaluation for a satellite
// pair: which visibility samples the stepping loop observed and what they
// were. A later evaluation of the same pair at a nearby establishment
// time re-derives most of its samples from the record instead of calling
// Visible — soundly, because a sample is only reused when its absolute
// time is bit-identical to one the recorded run actually evaluated, and
// visibility is a pure function of (pair, time).
type visRun struct {
	base    float64 // establishment time of the recorded run
	lastVis float64 // latest sample time known visible (valid if visAny)
	end     float64 // first sample time known invisible (valid if !capped)
	visAny  bool    // at least one visible sample was observed
	capped  bool    // the run reached the horizon without going invisible
}

type runShard struct {
	mu sync.Mutex
	//tinyleo:guardedby mu
	m map[[2]int32]visRun
}

// PropCache memoizes orbit propagation for a fixed satellite set: ECI
// positions keyed by (satellite, quantized time), predicted ISL lifetimes
// keyed by (pair, quantized time), and per-slot geometry (sub-satellite
// points plus a spatial pruning grid) keyed by slot time.
//
// The ISL parameters and the lifetime prediction window (horizon, step)
// are fixed at construction, matching their lifecycle in mpc.Config; a
// controller that changes them needs a new cache.
//
// All methods are safe for concurrent use; cached values are
// bit-identical to calling the underlying Elements/ISLParams methods
// directly, so a cached compile path produces byte-identical topologies.
type PropCache struct {
	sats    []Elements
	isl     ISLParams
	horizon float64 // lifetime prediction horizon (s)
	step    float64 // lifetime prediction step (s)

	pos  [cacheShards]posShard
	life [cacheShards]lifeShard

	// warm gates the per-pair visibility-run reuse in computeLifetime;
	// offs precomputes the stepping loop's accumulated sample offsets so
	// a recorded sample's absolute time can be reproduced bit-exactly.
	warm atomic.Bool
	offs []float64
	runs [cacheShards]runShard

	slotMu sync.Mutex
	//tinyleo:guardedby slotMu
	slots map[uint64]*slotEntry

	posHits     atomic.Uint64
	posMisses   atomic.Uint64
	lifeHits    atomic.Uint64
	lifeMisses  atomic.Uint64
	pruned      atomic.Uint64
	warmSamples atomic.Uint64
	warmSkips   atomic.Uint64
}

type slotEntry struct {
	once sync.Once
	g    *SlotGeom
}

// NewPropCache creates a propagation cache over sats with the given ISL
// visibility constraints and lifetime prediction window (horizon and step
// in seconds, as in mpc.Config).
func NewPropCache(sats []Elements, isl ISLParams, lifetimeHorizon, lifetimeStep float64) *PropCache {
	pc := &PropCache{
		sats:    sats,
		isl:     isl,
		horizon: lifetimeHorizon,
		step:    lifetimeStep,
		slots:   map[uint64]*slotEntry{},
	}
	for i := range pc.pos {
		pc.pos[i].m = map[posKey]geom.Vec3{}
	}
	for i := range pc.life {
		pc.life[i].m = map[pairKey]float64{}
	}
	for i := range pc.runs {
		pc.runs[i].m = map[[2]int32]visRun{}
	}
	// Mirror computeLifetime's accumulation (t += step) exactly so
	// offs[m] reproduces the m-th sample offset bit for bit.
	pc.offs = append(pc.offs, 0)
	for t := pc.step; t <= pc.horizon; t += pc.step {
		pc.offs = append(pc.offs, t)
	}
	return pc
}

// EnableWarmLifetimes turns on per-pair visibility-run reuse: lifetime
// evaluations record which samples they observed, and later evaluations
// of the same pair skip samples whose absolute time is bit-identical to
// a recorded observation. Outputs stay bit-identical to the cold path —
// only redundant Visible calls are elided. Safe to call at any time;
// once on, it stays on for the cache's lifetime.
func (pc *PropCache) EnableWarmLifetimes() { pc.warm.Store(true) }

// NumSats returns the size of the cached satellite set.
func (pc *PropCache) NumSats() int { return len(pc.sats) }

// shardIndex mixes a key into a shard slot (Fibonacci hashing on the
// time bits, offset by the satellite index so same-time lookups of
// different satellites spread too).
func shardIndex(a, b int32, tbits uint64) int {
	h := tbits*0x9e3779b97f4a7c15 + uint64(a)*0x85ebca6b + uint64(b)*0xc2b2ae35
	return int((h >> 32) % cacheShards)
}

// PositionECI returns satellite i's ECI position at time t, memoized.
// The value is bit-identical to pc's Elements[i].PositionECI(t).
func (pc *PropCache) PositionECI(i int, t float64) geom.Vec3 {
	k := posKey{sat: int32(i), tbits: math.Float64bits(t)}
	sh := &pc.pos[shardIndex(k.sat, 0, k.tbits)]
	sh.mu.RLock()
	v, ok := sh.m[k]
	sh.mu.RUnlock()
	if ok {
		pc.posHits.Add(1)
		return v
	}
	pc.posMisses.Add(1)
	v = pc.sats[i].PositionECI(t)
	sh.mu.Lock()
	if len(sh.m) >= maxShardEntries {
		sh.m = make(map[posKey]geom.Vec3, maxShardEntries/4)
	}
	sh.m[k] = v
	sh.mu.Unlock()
	return v
}

// Lifetime returns the predicted ISL lifetime τ between satellites i and
// j established at time t0, memoized per (pair, time). It equals
// ISLLifetime(sats[i], sats[j], t0, horizon, step, isl) bit for bit: the
// stepping loop below mirrors ISLLifetime's accumulation exactly, only
// sourcing positions from the memo.
func (pc *PropCache) Lifetime(i, j int, t0 float64) float64 {
	if i > j {
		i, j = j, i
	}
	k := pairKey{a: int32(i), b: int32(j), tbits: math.Float64bits(t0)}
	sh := &pc.life[shardIndex(k.a, k.b, k.tbits)]
	sh.mu.RLock()
	v, ok := sh.m[k]
	sh.mu.RUnlock()
	if ok {
		pc.lifeHits.Add(1)
		return v
	}
	pc.lifeMisses.Add(1)
	v = pc.computeLifetime(i, j, t0)
	sh.mu.Lock()
	if len(sh.m) >= maxShardEntries {
		sh.m = make(map[pairKey]float64, maxShardEntries/4)
	}
	sh.m[k] = v
	sh.mu.Unlock()
	return v
}

// computeLifetime is ISLLifetime with memoized propagation. The loop
// structure (t += dt accumulation, <= horizon bound) must stay identical
// to ISLLifetime so both paths evaluate the same float64 times.
func (pc *PropCache) computeLifetime(i, j int, t0 float64) float64 {
	if pc.warm.Load() {
		return pc.warmLifetime(i, j, t0)
	}
	if !pc.isl.Visible(pc.PositionECI(i, t0), pc.PositionECI(j, t0)) {
		return 0
	}
	for t := pc.step; t <= pc.horizon; t += pc.step {
		if !pc.isl.Visible(pc.PositionECI(i, t0+t), pc.PositionECI(j, t0+t)) {
			return t
		}
	}
	return pc.horizon
}

// warmLifetime is computeLifetime with per-pair visibility-run reuse: it
// walks the identical sample sequence, but resolves any sample whose
// absolute time bit-matches one the pair's previous run observed from
// the record instead of calling Visible. Because visibility is a pure
// function of (pair, time) and reuse requires bitwise time identity, the
// returned τ is bit-identical to the cold path.
func (pc *PropCache) warmLifetime(i, j int, t0 float64) float64 {
	key := [2]int32{int32(i), int32(j)}
	sh := &pc.runs[shardIndex(key[0], key[1], 0)]
	sh.mu.Lock()
	r, hasRun := sh.m[key]
	sh.mu.Unlock()
	// The run's sample grid and ours share the step, so the candidate
	// record index of sample idx is idx plus a constant base shift —
	// computed once here instead of a Round+divide per sample. lookup's
	// bitwise time check still validates every candidate, so a wrong
	// guess degrades to a real Visible call, never a wrong answer.
	shift := 0
	if hasRun {
		shift = int(math.Round((t0 - r.base) / pc.step))
	}
	var samples, skips uint64
	offs := pc.offs
	// visible resolves one sample, preferring the recorded run. The fast
	// path is inlined (no lookup call) because a warm delta compile walks
	// it for nearly every sample of every pair evaluation.
	visible := func(idx int, s float64) bool {
		samples++
		if hasRun {
			if m := idx + shift; m >= 0 && m < len(offs) && r.base+offs[m] == s {
				if r.visAny && s <= r.lastVis {
					skips++
					return true
				}
				if !r.capped && s == r.end {
					skips++
					return false
				}
			}
		}
		return pc.isl.Visible(pc.PositionECI(i, s), pc.PositionECI(j, s))
	}
	nr := visRun{base: t0}
	tau := pc.horizon
	if !visible(0, t0) {
		tau = 0
		nr.end = t0
	} else {
		nr.visAny, nr.lastVis, nr.capped = true, t0, true
		idx := 1
		for t := pc.step; t <= pc.horizon; t += pc.step {
			s := t0 + t
			if !visible(idx, s) {
				tau = t
				nr.end, nr.capped = s, false
				break
			}
			nr.lastVis = s
			idx++
		}
	}
	sh.mu.Lock()
	if len(sh.m) >= maxShardEntries {
		sh.m = make(map[[2]int32]visRun, maxShardEntries/4)
	}
	sh.m[key] = nr
	sh.mu.Unlock()
	pc.warmSamples.Add(samples)
	pc.warmSkips.Add(skips)
	return tau
}

// Slot returns the memoized per-slot geometry at time t, building it on
// first use. Concurrent callers for the same t share one build.
func (pc *PropCache) Slot(t float64) *SlotGeom {
	key := math.Float64bits(t)
	pc.slotMu.Lock()
	e, ok := pc.slots[key]
	if !ok {
		e = &slotEntry{}
		pc.slots[key] = e
	}
	pc.slotMu.Unlock()
	e.once.Do(func() { e.g = pc.buildSlot(t) })
	return e.g
}

// DropSlotsBefore evicts slot geometries older than t (long-running
// controllers compile an unbounded slot sequence; position/lifetime memos
// are already bounded by per-shard resets).
func (pc *PropCache) DropSlotsBefore(t float64) {
	pc.slotMu.Lock()
	defer pc.slotMu.Unlock()
	for key, e := range pc.slots {
		if math.Float64frombits(key) < t && e.g != nil {
			delete(pc.slots, key)
		}
	}
}

func (pc *PropCache) buildSlot(t float64) *SlotGeom {
	g := &SlotGeom{
		cache:    pc,
		Time:     t,
		pos:      make([]geom.Vec3, len(pc.sats)),
		sub:      make([]geom.LatLon, len(pc.sats)),
		maxRange: pc.isl.MaxRange,
	}
	rot := -GMST(t)
	g.subU = make([]geom.Vec3, len(pc.sats))
	for i := range pc.sats {
		p := pc.PositionECI(i, t)
		g.pos[i] = p
		// Identical to Elements.SubSatellitePoint: ECEF = ECI·RotZ(−GMST).
		g.sub[i] = geom.FromUnit(p.RotZ(rot))
		// Memoize the sub-point's unit vector (ToUnit is pure, so this is
		// the exact vector CentralAngle would derive) for Coverage.
		g.subU[i] = g.sub[i].ToUnit()
	}
	if g.maxRange > 0 {
		g.bucket = make([][3]int32, len(pc.sats))
		inv := 1 / g.maxRange
		for i, p := range g.pos {
			g.bucket[i] = [3]int32{
				int32(math.Floor(p.X * inv)),
				int32(math.Floor(p.Y * inv)),
				int32(math.Floor(p.Z * inv)),
			}
		}
	}
	return g
}

// Stats returns cumulative cache counters (monotonic since construction).
func (pc *PropCache) Stats() CacheStats {
	return CacheStats{
		PosHits:     pc.posHits.Load(),
		PosMisses:   pc.posMisses.Load(),
		LifeHits:    pc.lifeHits.Load(),
		LifeMisses:  pc.lifeMisses.Load(),
		PrunedPairs: pc.pruned.Load(),
		WarmSamples: pc.warmSamples.Load(),
		WarmSkips:   pc.warmSkips.Load(),
	}
}

// CacheStats reports PropCache effectiveness: memo hits and misses for
// positions and pair lifetimes, candidate pairs the spatial grid pruned
// without any propagation, and — when warm lifetimes are enabled — how
// many visibility samples were evaluated and how many of those were
// resolved from a prior run's record without calling Visible.
type CacheStats struct {
	PosHits, PosMisses     uint64
	LifeHits, LifeMisses   uint64
	PrunedPairs            uint64
	WarmSamples, WarmSkips uint64
}

// WarmHitRatio returns the fraction of visibility samples resolved from
// recorded runs instead of fresh geometry, in [0, 1]; zero samples yield
// 0. This is the honest "warm hit" figure for delta compiles: it counts
// only work actually skipped.
func (s CacheStats) WarmHitRatio() float64 {
	if s.WarmSamples == 0 {
		return 0
	}
	return float64(s.WarmSkips) / float64(s.WarmSamples)
}

// HitRatio returns the fraction of all memo lookups served from cache,
// in [0, 1]; zero lookups yield 0.
func (s CacheStats) HitRatio() float64 {
	hits := s.PosHits + s.LifeHits
	total := hits + s.PosMisses + s.LifeMisses
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// SlotGeom is the geometry of one control slot: every satellite's ECI
// position and sub-satellite point at the slot time, plus a uniform
// spatial grid (cell edge = ISL max range) that prunes out-of-range ISL
// candidate pairs before any lifetime prediction runs. Instances are
// built by PropCache.Slot and are immutable afterwards, so they are safe
// to share across goroutines.
type SlotGeom struct {
	cache *PropCache
	// Time is the slot time (seconds since epoch) the geometry was
	// propagated at.
	Time     float64
	pos      []geom.Vec3
	sub      []geom.LatLon
	subU     []geom.Vec3 // sub[i].ToUnit(), memoized for Coverage
	bucket   [][3]int32
	maxRange float64
}

// Position returns satellite i's ECI position at the slot time.
func (g *SlotGeom) Position(i int) geom.Vec3 { return g.pos[i] }

// SubPoint returns satellite i's sub-satellite point at the slot time,
// bit-identical to Elements.SubSatellitePoint.
func (g *SlotGeom) SubPoint(i int) geom.LatLon { return g.sub[i] }

// Coverage computes the slot's satellite→cell coverage: cover[ci] lists,
// in ascending satellite order, every satellite whose footprint (angular
// radius radius[s]) covers centers[ci]. This is the MPC's stage-0 query;
// exposing it here lets the delta compiler diff consecutive slots'
// coverage (ChangedCells) without re-deriving sub-satellite points.
func (g *SlotGeom) Coverage(centers []geom.LatLon, radius []float64) [][]int {
	cover := make([][]int, len(centers))
	// CentralAngle(sub, c) is AngleTo over the two ToUnit vectors; both
	// conversions are pure, so hoisting them out of the pair loop keeps
	// every comparison bit-identical while doing the trig once per point
	// instead of once per (satellite, cell) pair.
	cu := make([]geom.Vec3, len(centers))
	for ci, c := range centers {
		cu[ci] = c.ToUnit()
	}
	for si := range g.sub {
		su := g.subU[si]
		lam := radius[si]
		for ci := range centers {
			if su.AngleTo(cu[ci]) <= lam {
				cover[ci] = append(cover[ci], si)
			}
		}
	}
	return cover
}

// ChangedCells returns the indices whose coverage list differs between
// two Coverage results (aligned by index). A nil prev marks every
// non-empty cur cell changed.
func ChangedCells(prev, cur [][]int) []int {
	n := len(cur)
	if len(prev) > n {
		n = len(prev)
	}
	var changed []int
	for ci := 0; ci < n; ci++ {
		var p, c []int
		if ci < len(prev) {
			p = prev[ci]
		}
		if ci < len(cur) {
			c = cur[ci]
		}
		if !intsEqual(p, c) {
			changed = append(changed, ci)
		}
	}
	return changed
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// InRange reports whether satellites i and j are within ISL range at the
// slot time. A false result is exact — the pair's distance exceeds
// MaxRange, so its ISL lifetime at this time is exactly 0 and the
// matching stage can skip it without changing any output. With an
// unlimited-range ISL configuration every pair is in range.
//
// The check is grid-first: any pair within MaxRange occupies the same or
// adjacent grid cells on every axis, so differing by two or more cells
// rejects without computing a distance.
func (g *SlotGeom) InRange(i, j int) bool {
	if g.maxRange <= 0 {
		return true
	}
	bi, bj := g.bucket[i], g.bucket[j]
	if bi[0]-bj[0] > 1 || bj[0]-bi[0] > 1 ||
		bi[1]-bj[1] > 1 || bj[1]-bi[1] > 1 ||
		bi[2]-bj[2] > 1 || bj[2]-bi[2] > 1 {
		g.cache.pruned.Add(1)
		return false
	}
	if g.pos[i].DistSq(g.pos[j]) > g.maxRange*g.maxRange {
		g.cache.pruned.Add(1)
		return false
	}
	return true
}
