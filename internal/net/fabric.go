package net

import "sort"

// LinkStats accumulates one link's occupancy accounting over a run.
type LinkStats struct {
	// Msgs and Bytes count the messages and payload bytes serialized
	// through the link.
	Msgs  int64
	Bytes int64
	// Busy is the total virtual time the link spent serializing.
	Busy float64
	// Wait is the total virtual time messages queued for the link while
	// it was busy with earlier traffic — the link's contribution to
	// contention.
	Wait float64
}

// Fabric is the mutable occupancy state of a Network: one busy-until
// horizon per link. It must be owned by exactly one simulated process
// (the mpi layer's fabric proc), which claims routes in the kernel's
// deterministic delivery order; the busy-until updates then replay
// identically regardless of host worker count.
type Fabric struct {
	net       *Network
	busyUntil []float64
	stats     []LinkStats
	// Wait is the total contention wait accumulated over all claims.
	Wait float64
	// Msgs counts the claims routed.
	Msgs int64
	// Bytes counts the payload bytes routed.
	Bytes int64
}

// NewFabric returns an empty fabric over n.
func NewFabric(n *Network) *Fabric {
	return &Fabric{
		net:       n,
		busyUntil: make([]float64, len(n.Links)),
		stats:     make([]LinkStats, len(n.Links)),
	}
}

// Claim routes a size-byte message injected at time t from srcHost to
// dstHost, store-and-forward: on each hop the message waits for the
// link's busy-until horizon, serializes for size/bandwidth seconds
// (occupying the link), then traverses for the link latency. It returns
// the arrival time at dstHost and the total time spent waiting on busy
// links (the message's contention share).
func (f *Fabric) Claim(srcHost, dstHost int, size int64, t float64) (arrival, wait float64) {
	r := f.net.Route(srcHost, dstHost)
	for _, id := range r.Links {
		l := &f.net.Links[id]
		st := &f.stats[id]
		start := t
		if bu := f.busyUntil[id]; bu > start {
			start = bu
			w := start - t
			wait += w
			st.Wait += w
		}
		ser := float64(size) / l.Bandwidth
		f.busyUntil[id] = start + ser
		st.Busy += ser
		st.Msgs++
		st.Bytes += size
		t = start + ser + l.Latency
	}
	f.Wait += wait
	f.Msgs++
	f.Bytes += size
	return t, wait
}

// LinkReport is one link's contribution to the run's network Stats.
type LinkReport struct {
	Name  string
	Msgs  int64
	Bytes int64
	// Busy and Wait are the link's LinkStats totals in seconds.
	Busy float64
	Wait float64
	// Utilization is Busy over the run's predicted time (0 when the run
	// time is unknown or zero).
	Utilization float64
}

// Stats is the network summary a topology-mode run attaches to its
// report.
type Stats struct {
	// Topology and Placement echo the resolved configuration.
	Topology  string `json:"topology"`
	Placement string `json:"placement"`
	Hosts     int    `json:"hosts"`
	LinkCount int    `json:"link_count"`
	// IntraMsgs/IntraBytes count node-local transfers that bypassed the
	// fabric; InterMsgs/InterBytes the routed ones.
	IntraMsgs  int64 `json:"intra_msgs"`
	IntraBytes int64 `json:"intra_bytes"`
	InterMsgs  int64 `json:"inter_msgs"`
	InterBytes int64 `json:"inter_bytes"`
	// Wait is the total link-contention wait over all routed messages.
	Wait float64 `json:"wait"`
	// Links holds per-link occupancy for every link that carried
	// traffic, sorted by descending Wait then Busy (the congestion
	// hotspot order).
	Links []LinkReport `json:"links,omitempty"`
}

// Summary assembles the per-link hotspot list. runTime (the predicted
// execution time) scales Busy into Utilization; idle links are omitted.
func (f *Fabric) Summary(runTime float64) []LinkReport {
	var out []LinkReport
	for i, st := range f.stats {
		if st.Msgs == 0 {
			continue
		}
		lr := LinkReport{
			Name: f.net.Links[i].Name, Msgs: st.Msgs, Bytes: st.Bytes,
			Busy: st.Busy, Wait: st.Wait,
		}
		if runTime > 0 {
			lr.Utilization = st.Busy / runTime
		}
		out = append(out, lr)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Wait != out[j].Wait {
			return out[i].Wait > out[j].Wait
		}
		if out[i].Busy != out[j].Busy {
			return out[i].Busy > out[j].Busy
		}
		return out[i].Name < out[j].Name
	})
	return out
}
