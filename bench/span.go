package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public functions, recorded from
// outside the layer. Start and End are seconds since the recorder was
// created; Parent is the id of the enclosing span (-1 for a root); spans
// of one prediction share Op. Mallocs and AllocBytes are runtime.MemStats
// deltas across the call (in-process spans only; concurrent goroutines'
// allocations land in whichever spans are open).
type span struct {
	ID         int     `json:"id"`
	Name       string  `json:"name"`
	Workload   string  `json:"workload"`
	Op         int     `json:"op"`
	Parent     int     `json:"parent"`
	Start      float64 `json:"start"`
	End        float64 `json:"end"`
	Mallocs    uint64  `json:"mallocs,omitempty"`
	AllocBytes uint64  `json:"alloc_bytes,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// recorder keeps spans in memory until write.
type recorder struct {
	workload string
	t0       time.Time
	mu       sync.Mutex
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now()}
}

// add records a span from two wall-clock instants.
func (r *recorder) add(name string, parent, op int, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{
		ID: id, Name: name, Workload: r.workload, Op: op, Parent: parent,
		Start: start.Sub(r.t0).Seconds(), End: end.Sub(r.t0).Seconds(),
	})
	return id
}

// call runs fn inside a span with allocation deltas. The span is open
// while fn runs, so fn may record children under the returned id.
func (r *recorder) call(name string, parent int, fn func(id int) error) error {
	id := r.add(name, parent, 0, time.Now(), time.Now())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := fn(id)
	end := time.Now()
	runtime.ReadMemStats(&after)
	r.mu.Lock()
	s := &r.spans[id]
	s.Start, s.End = start.Sub(r.t0).Seconds(), end.Sub(r.t0).Seconds()
	s.Mallocs = after.Mallocs - before.Mallocs
	s.AllocBytes = after.TotalAlloc - before.TotalAlloc
	r.mu.Unlock()
	return err
}

// filter returns the spans keep accepts, in recording order.
func (r *recorder) filter(keep func(span) bool) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}

// named returns the spans with the given name.
func (r *recorder) named(name string) []span {
	return r.filter(func(s span) bool { return s.Name == name })
}

// durations returns the durations of the spans with the given name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.named(name) {
		out = append(out, s.dur())
	}
	return out
}

func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{r.workload, r.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover. Children are clipped to the
// parent and overlapping children are counted once.
func selfTimes(spans []span) []float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]float64, len(spans))
	for i, p := range spans {
		kids := children[p.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := 0.0, p.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > p.End {
				hi = p.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = p.dur() - covered
	}
	return self
}
