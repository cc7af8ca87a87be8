// Package obs is the simulator's observability substrate: a metrics
// registry whose update path is allocation-free and shard-per-worker
// (the same single-writer discipline as the kernel's object pools), and
// a structured event tracer with pluggable sinks (Chrome trace_event
// JSON for Perfetto/chrome://tracing, and a compact JSONL stream).
//
// Two planes are observed through it:
//
//   - the *simulated* execution: per-rank activity spans, message edges
//     and collective phases, exported post-run from an mpi.Report by
//     internal/trace;
//   - the *simulator's own* execution: event-queue depth, pool hit/miss,
//     mailbox scan lengths, wake batching and wallclock-per-virtual-
//     second, emitted live by the sim kernel.
//
// The package depends only on the standard library and is imported by
// the kernel, so it must never import sim, mpi or trace.
//
// Cost discipline: every metric handle checks one atomic enabled flag
// and then performs one uncontended atomic add on a cache-line-padded
// per-worker shard. With the registry disabled (or absent) the
// instrumented hot paths reduce to a nil check; BenchmarkKernelObs*
// (internal/sim) holds this within noise of the uninstrumented kernel.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// shard is one cache-line-padded accumulator cell. 64-bit payload plus
// padding to 64 bytes so neighbouring workers never share a line.
type shard struct {
	v int64
	_ [56]byte
}

// Registry holds named metrics. Metric handles are created up front
// (Counter/Gauge/Histogram) and updated from hot paths; creation takes a
// lock, updates never do.
type Registry struct {
	enabled atomic.Bool
	shards  int
	mask    int

	mu     sync.Mutex
	order  []metric
	byName map[string]metric
}

// metric is the common interface of the three metric kinds.
type metric interface {
	name() string
	help() string
	snapshot() Snapshot
}

// NewRegistry returns a registry with at least the given number of
// update shards (rounded up to a power of two, minimum 1). Pass the
// number of host workers; shard indices larger than the shard count
// wrap, which is safe but contended.
func NewRegistry(shards int) *Registry {
	n := 1
	for n < shards {
		n <<= 1
	}
	return &Registry{
		shards: n,
		mask:   n - 1,
		byName: map[string]metric{},
	}
}

// SetEnabled switches metric collection on or off. The flag is atomic:
// updates racing with the switch are either counted or not, never torn.
func (r *Registry) SetEnabled(on bool) { r.enabled.Store(on) }

// Enabled reports whether updates are currently recorded.
func (r *Registry) Enabled() bool { return r.enabled.Load() }

// lookup returns the existing metric under name, after checking that a
// repeated registration asks for the same kind: handle creation is
// idempotent so repeated kernel runs can share one registry (experiment
// sweeps), but re-registering a name as a different kind is a bug.
func lookup[M metric](r *Registry, name string) (M, bool) {
	var zero M
	m, ok := r.byName[name]
	if !ok {
		return zero, false
	}
	typed, ok := m.(M)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q re-registered as a different kind", name))
	}
	return typed, true
}

// register adds m under its name. The caller holds r.mu and has checked
// for an existing registration with lookup.
func (r *Registry) register(m metric) {
	r.byName[m.name()] = m
	r.order = append(r.order, m)
}

// Counter is a monotonically increasing sharded counter.
type Counter struct {
	reg   *Registry
	nm    string
	hp    string
	cells []shard
}

// Counter creates the named counter, or returns the existing handle.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := lookup[*Counter](r, name); ok {
		return c
	}
	c := &Counter{reg: r, nm: name, hp: help, cells: make([]shard, r.shards)}
	r.register(c)
	return c
}

// Add increments the counter by n on the given shard (the caller's
// worker id). No-op while the registry is disabled.
func (c *Counter) Add(shard int, n int64) {
	if !c.reg.enabled.Load() {
		return
	}
	atomic.AddInt64(&c.cells[shard&c.reg.mask].v, n)
}

// Inc is Add(shard, 1).
func (c *Counter) Inc(shard int) { c.Add(shard, 1) }

// Value returns the merged total.
func (c *Counter) Value() int64 {
	var t int64
	for i := range c.cells {
		t += atomic.LoadInt64(&c.cells[i].v)
	}
	return t
}

func (c *Counter) name() string { return c.nm }
func (c *Counter) help() string { return c.hp }

func (c *Counter) snapshot() Snapshot {
	return Snapshot{Name: c.nm, Kind: "counter", Help: c.hp, Value: float64(c.Value())}
}

// Gauge is a sharded last-value metric: each shard holds its writer's
// most recent sample; reads merge as sum and max over shards.
type Gauge struct {
	reg   *Registry
	nm    string
	hp    string
	cells []shard
}

// Gauge creates the named gauge, or returns the existing handle.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := lookup[*Gauge](r, name); ok {
		return g
	}
	g := &Gauge{reg: r, nm: name, hp: help, cells: make([]shard, r.shards)}
	r.register(g)
	return g
}

// Set records v as the shard's current value. No-op while disabled.
func (g *Gauge) Set(shard int, v int64) {
	if !g.reg.enabled.Load() {
		return
	}
	atomic.StoreInt64(&g.cells[shard&g.reg.mask].v, v)
}

// Sum returns the sum of all shard values.
func (g *Gauge) Sum() int64 {
	var t int64
	for i := range g.cells {
		t += atomic.LoadInt64(&g.cells[i].v)
	}
	return t
}

// Max returns the maximum shard value.
func (g *Gauge) Max() int64 {
	var m int64 = math.MinInt64
	for i := range g.cells {
		if v := atomic.LoadInt64(&g.cells[i].v); v > m {
			m = v
		}
	}
	return m
}

func (g *Gauge) name() string { return g.nm }
func (g *Gauge) help() string { return g.hp }

func (g *Gauge) snapshot() Snapshot {
	return Snapshot{Name: g.nm, Kind: "gauge", Help: g.hp,
		Value: float64(g.Sum()), Max: float64(g.Max())}
}

// histShard is one shard of a histogram: per-bucket counts plus count
// and sum. Each shard has a single writer (the worker holding that
// shard index), so read-modify-write of the sum bits is safe; atomics
// keep concurrent snapshot reads race-free.
type histShard struct {
	counts  []int64
	n       int64
	sumBits uint64
}

// Histogram is a fixed-bucket sharded histogram. Bounds are inclusive
// upper edges; an implicit +Inf bucket catches the overflow.
type Histogram struct {
	reg    *Registry
	nm     string
	hp     string
	bounds []float64
	cells  []histShard
}

// Histogram creates a histogram with the given ascending upper bounds,
// or returns the existing handle under that name.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := lookup[*Histogram](r, name); ok {
		return h
	}
	h := &Histogram{reg: r, nm: name, hp: help,
		bounds: append([]float64(nil), bounds...),
		cells:  make([]histShard, r.shards)}
	for i := range h.cells {
		h.cells[i].counts = make([]int64, len(bounds)+1)
	}
	r.register(h)
	return h
}

// Observe records one sample on the given shard. The shard must have a
// single writer (the observability discipline of the kernel workers);
// concurrent Observe calls on *different* shards and concurrent
// snapshots are safe. No-op while disabled.
func (h *Histogram) Observe(shard int, v float64) {
	if !h.reg.enabled.Load() {
		return
	}
	s := &h.cells[shard&h.reg.mask]
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	atomic.AddInt64(&s.counts[i], 1)
	atomic.AddInt64(&s.n, 1)
	// Single writer per shard: load-add-store cannot lose updates.
	atomic.StoreUint64(&s.sumBits,
		math.Float64bits(math.Float64frombits(atomic.LoadUint64(&s.sumBits))+v))
}

// Count returns the merged sample count.
func (h *Histogram) Count() int64 {
	var t int64
	for i := range h.cells {
		t += atomic.LoadInt64(&h.cells[i].n)
	}
	return t
}

// Sum returns the merged sample sum.
func (h *Histogram) Sum() float64 {
	var t float64
	for i := range h.cells {
		t += math.Float64frombits(atomic.LoadUint64(&h.cells[i].sumBits))
	}
	return t
}

func (h *Histogram) name() string { return h.nm }
func (h *Histogram) help() string { return h.hp }

func (h *Histogram) snapshot() Snapshot {
	s := Snapshot{Name: h.nm, Kind: "histogram", Help: h.hp,
		Count: h.Count(), Sum: h.Sum()}
	s.Buckets = make([]Bucket, len(h.bounds)+1)
	for bi := range s.Buckets {
		upper := math.Inf(1)
		if bi < len(h.bounds) {
			upper = h.bounds[bi]
		}
		var n int64
		for ci := range h.cells {
			n += atomic.LoadInt64(&h.cells[ci].counts[bi])
		}
		s.Buckets[bi] = Bucket{Upper: upper, Count: n}
	}
	s.Value = float64(s.Count)
	return s
}

// Bucket is one histogram bucket in a snapshot. An infinite Upper is
// the overflow bucket (serialized as "+Inf").
type Bucket struct {
	Upper float64 `json:"-"`
	Count int64   `json:"count"`
}

// MarshalJSON renders the bucket with a JSON-safe upper bound.
func (b Bucket) MarshalJSON() ([]byte, error) {
	upper := "+Inf"
	if !math.IsInf(b.Upper, 1) {
		upper = fmt.Sprintf("%g", b.Upper)
	}
	return json.Marshal(struct {
		Upper string `json:"le"`
		Count int64  `json:"count"`
	}{upper, b.Count})
}

// Snapshot is the merged read-side view of one metric.
type Snapshot struct {
	Name    string   `json:"name"`
	Kind    string   `json:"kind"`
	Help    string   `json:"help,omitempty"`
	Value   float64  `json:"value"`
	Max     float64  `json:"max,omitempty"`
	Count   int64    `json:"samples,omitempty"`
	Sum     float64  `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot returns the merged state of every metric, sorted by name.
func (r *Registry) Snapshot() []Snapshot {
	r.mu.Lock()
	ms := append([]metric(nil), r.order...)
	r.mu.Unlock()
	out := make([]Snapshot, len(ms))
	for i, m := range ms {
		out[i] = m.snapshot()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteJSON writes the snapshot as a JSON object {"metrics": [...]}.
// Output is deterministic: metrics sort by name, structs marshal in
// field order.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Metrics []Snapshot `json:"metrics"`
	}{r.Snapshot()})
}

// WriteText writes a human-readable metric table.
func (r *Registry) WriteText(w io.Writer) error {
	for _, s := range r.Snapshot() {
		switch s.Kind {
		case "histogram":
			mean := 0.0
			if s.Count > 0 {
				mean = s.Sum / float64(s.Count)
			}
			if _, err := fmt.Fprintf(w, "%-36s samples=%d mean=%.4g", s.Name, s.Count, mean); err != nil {
				return err
			}
			for _, b := range s.Buckets {
				if b.Count == 0 {
					continue
				}
				le := "+Inf"
				if !math.IsInf(b.Upper, 1) {
					le = fmt.Sprintf("%g", b.Upper)
				}
				if _, err := fmt.Fprintf(w, " le%s=%d", le, b.Count); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		case "gauge":
			if _, err := fmt.Fprintf(w, "%-36s %g (max shard %g)\n", s.Name, s.Value, s.Max); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%-36s %g\n", s.Name, s.Value); err != nil {
				return err
			}
		}
	}
	return nil
}
