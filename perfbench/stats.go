package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(i)
	return s[i] + frac*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// heapProbe reads the runtime's heap counters without stopping the world
// or forcing a collection.
type heapProbe struct {
	samples  []metrics.Sample
	cycles0  uint64 // GC cycles completed before the measured run began
	last     uint64 // GC cycles completed at the latest observation
	lastAt   time.Time
	observed int // cycles seen by an observation
	peak     uint64
	mbSec    float64 // live heap integrated over wall time
	sec      float64
}

const (
	liveHeap     = "/gc/heap/live:bytes"
	allocBytes   = "/gc/heap/allocs:bytes"
	allocObjects = "/gc/heap/allocs:objects"
	gcCycles     = "/gc/cycles/total:gc-cycles"
)

func newHeapProbe() *heapProbe {
	h := &heapProbe{samples: []metrics.Sample{{Name: liveHeap}, {Name: allocBytes}, {Name: allocObjects}, {Name: gcCycles}}}
	h.start()
	return h
}

// start forgets the collections so far: a cycle that ran during set-up
// may have marked a previous set-up's state as well.
func (h *heapProbe) start() {
	metrics.Read(h.samples)
	h.cycles0 = h.samples[3].Value.Uint64()
	h.last = h.cycles0
	h.lastAt = time.Now()
	h.observed, h.peak, h.mbSec, h.sec = 0, 0, 0, 0
}

// allocated returns cumulative allocated bytes and objects.
func (h *heapProbe) allocated() (bytes, objects uint64) {
	metrics.Read(h.samples)
	return h.samples[1].Value.Uint64(), h.samples[2].Value.Uint64()
}

// live returns the live heap the latest collection marked.
func (h *heapProbe) live() uint64 {
	metrics.Read(h.samples)
	return h.samples[0].Value.Uint64()
}

// observe reads the live heap that the latest natural collection
// marked, working memory of the call it interrupted included. Workloads
// call it after every operation. The reading counts toward the peak once
// per cycle, and toward the mean for the wall time since the previous
// observation; readings before the run's first cycle are set-up's.
func (h *heapProbe) observe() {
	live := h.live()
	now := time.Now()
	cycles := h.samples[3].Value.Uint64()
	if cycles > h.last {
		h.last = cycles
		h.observed++
		h.peak = max(h.peak, live)
	}
	if cycles > h.cycles0 {
		dt := now.Sub(h.lastAt).Seconds()
		h.mbSec += float64(live) / 1e6 * dt
		h.sec += dt
	}
	h.lastAt = now
}

// meanMB is the live heap averaged over the run's wall time in MB.
func (h *heapProbe) meanMB() float64 { return ratio(h.mbSec, h.sec) }

// peakMB is the highest observed live heap in MB.
func (h *heapProbe) peakMB() float64 { return float64(h.peak) / 1e6 }

// note reports the heap figures of an untraced run.
func (h *heapProbe) note(rep *report) {
	rep.note("live heap over %d observed GC cycles (of %d): mean over wall time %.3f MB, max %.3f MB",
		h.observed, h.last-h.cycles0, h.meanMB(), h.peakMB())
}

// layers sets the per-layer heap metrics of the selected workload.
func (h *heapProbe) layers(rep *report) {
	rep.set("runtime.live_heap_mb", h.meanMB())
	rep.set("runtime.peak_heap_mb", h.peakMB())
}

// retainedHeapMB forces a collection and returns the live heap in MB:
// what the caller's state still holds. A run calls it once, after its
// timed work, so the forced collection paces no timed call.
func retainedHeapMB() float64 {
	runtime.GC()
	return float64(newHeapProbe().live()) / 1e6
}

// gcStats is the collector's cumulative work.
type gcStats struct {
	cycles  uint32
	pauseNs uint64
}

func readGC() gcStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcStats{cycles: m.NumGC, pauseNs: m.PauseTotalNs}
}
