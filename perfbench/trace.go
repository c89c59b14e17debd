package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// maxStoredSpans bounds the spans kept for the trace dump; aggregates
// (count, total and self time, per-name durations) cover every span.
const maxStoredSpans = 1 << 18

// span is one recorded layer call. Times are nanoseconds since the
// recorder's epoch (monotonic clock).
type span struct {
	name       uint16 // index into recorder.names
	parent     int32  // stored index of the enclosing span, -1 for a root
	trace      uint32 // request: one plan scenario, slot, repair or batch
	start, end int64
}

// open is a span on the recorder's stack: spans nest strictly because
// each workload is driven by a single goroutine.
type open struct {
	name     uint16
	trace    uint32
	stored   int32
	start    int64
	children int64 // time covered by finished child spans
}

// layerAgg accumulates every span of one name.
type layerAgg struct {
	count     int
	total     int64
	self      int64
	durations []int64
}

// recorder is an in-memory span recorder written by the workload's
// driving goroutine only. Untraced runs pass a nil recorder, which
// records nothing, so they pay one branch per call site.
type recorder struct {
	epoch   time.Time
	names   []string
	byName  map[string]uint16
	aggs    []*layerAgg
	stack   []open
	spans   []span
	dropped int
	traceID uint32
}

func newRecorder() *recorder {
	return &recorder{
		epoch:  time.Now(),
		byName: map[string]uint16{},
		spans:  make([]span, 0, 1<<12),
	}
}

// newTrace returns a fresh request identifier.
func (r *recorder) newTrace() uint32 {
	if r == nil {
		return 0
	}
	r.traceID++
	return r.traceID
}

func (r *recorder) nameIndex(name string) uint16 {
	if i, ok := r.byName[name]; ok {
		return i
	}
	i := uint16(len(r.names))
	r.names = append(r.names, name)
	r.byName[name] = i
	r.aggs = append(r.aggs, &layerAgg{})
	return i
}

// begin opens a span under the innermost open span, sharing its request
// identifier unless trace is non-zero.
func (r *recorder) begin(name string, trace uint32) {
	if r == nil {
		return
	}
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1].stored
		if trace == 0 {
			trace = r.stack[n-1].trace
		}
	}
	o := open{name: r.nameIndex(name), trace: trace, stored: -1, start: int64(time.Since(r.epoch))}
	if len(r.spans) < maxStoredSpans {
		o.stored = int32(len(r.spans))
		r.spans = append(r.spans, span{name: o.name, parent: parent, trace: trace, start: o.start})
	} else {
		r.dropped++
	}
	r.stack = append(r.stack, o)
}

// end closes the innermost open span.
func (r *recorder) end() {
	if r == nil {
		return
	}
	now := int64(time.Since(r.epoch))
	n := len(r.stack) - 1
	o := r.stack[n]
	r.stack = r.stack[:n]
	d := now - o.start
	if o.stored >= 0 {
		r.spans[o.stored].end = now
	}
	if n > 0 {
		r.stack[n-1].children += d
	}
	a := r.aggs[o.name]
	a.count++
	a.total += d
	a.self += d - o.children
	a.durations = append(a.durations, d)
}

// agg returns the aggregate of one span name (empty when never recorded).
func (r *recorder) agg(name string) *layerAgg {
	if r != nil {
		if i, ok := r.byName[name]; ok {
			return r.aggs[i]
		}
	}
	return &layerAgg{}
}

// quantileMs returns the q-quantile of a span name's durations in ms.
func (r *recorder) quantileMs(name string, q float64) float64 {
	a := r.agg(name)
	return quantile(nsToMs(a.durations), q)
}

// meanNs returns a span name's mean duration in nanoseconds.
func (r *recorder) meanNs(name string) float64 {
	a := r.agg(name)
	if a.count == 0 {
		return 0
	}
	return float64(a.total) / float64(a.count)
}

// selfShare returns the share of the root spans' time not covered by any
// layer call: the harness's own work.
func (r *recorder) selfShare(roots ...string) float64 {
	var total, self int64
	for _, name := range roots {
		a := r.agg(name)
		total += a.total
		self += a.self
	}
	if total == 0 {
		return 0
	}
	return float64(self) / float64(total)
}

// dump writes the stored spans, one per line, followed by a per-name
// summary of total and self time.
func (r *recorder) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# span\ttrace\tparent\tname\tstart_ns\tend_ns\n")
	for i, s := range r.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", i, s.trace, s.parent, r.names[s.name], s.start, s.end)
	}
	names := append([]string(nil), r.names...)
	sort.Strings(names)
	fmt.Fprintf(w, "# name\tcount\ttotal_ns\tself_ns\n")
	for _, name := range names {
		a := r.agg(name)
		fmt.Fprintf(w, "# %s\t%d\t%d\t%d\n", name, a.count, a.total, a.self)
	}
	if r.dropped > 0 {
		fmt.Fprintf(w, "# dropped %d spans beyond the stored limit\n", r.dropped)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func nsToMs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}
