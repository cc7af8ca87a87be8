package mpi

import (
	"fmt"

	"mpisim/internal/sim"
)

// Collective operations are built from point-to-point messages using
// binomial-tree algorithms, so the simulator models them in full detail
// (the paper retains and simulates all communication code precisely).
//
// Internal collective traffic uses tags below collTagBase so it can never
// match user receives, and each rank separates successive collectives by
// the MPI non-overtaking guarantee of the transport.
const collTagBase = -1000

// ReduceOp combines a contribution into an accumulator, elementwise.
// Accumulator and contribution have equal length.
type ReduceOp func(acc, in []float64)

// OpSum adds elementwise.
func OpSum(acc, in []float64) {
	for i := range acc {
		acc[i] += in[i]
	}
}

// OpMax takes the elementwise maximum.
func OpMax(acc, in []float64) {
	for i := range acc {
		if in[i] > acc[i] {
			acc[i] = in[i]
		}
	}
}

// OpMin takes the elementwise minimum.
func OpMin(acc, in []float64) {
	for i := range acc {
		if in[i] < acc[i] {
			acc[i] = in[i]
		}
	}
}

// openColl begins a primitive collective: it counts it, opens its trace
// interval — closed by closeColl when the collective completes; bytes is
// the rank's payload contribution, carried into the exported trace — and
// under the AbstractComm model charges its closed-form cost. steps is the
// number of sequential communication rounds the algorithm needs; each
// costs a send overhead plus an analytic transfer of roundBytes. Payload
// values are not transported under that model.
func (r *Rank) openColl(name string, bytes, roundBytes int64, steps float64) {
	r.collectives++
	r.op.phase, r.op.phaseStart, r.op.phaseBytes = name, r.Now(), bytes
	if !r.simulated() {
		n := &r.world.cfg.Machine.Net
		r.commCPU += sim.Time(steps * n.SendOverhead)
		r.proc.Advance(sim.Time(steps * (n.SendOverhead + n.AnalyticDelay(roundBytes))))
	}
}

// closeColl records the open collective interval when tracing is enabled.
// Zero-length intervals (e.g. single-rank worlds) are dropped. Besides
// completion it runs for a rank that ended inside a collective — crashed,
// or torn down blocked — when the report is assembled.
func (r *Rank) closeColl() {
	o := &r.op
	if end := r.Now(); o.phase != "" && r.world.cfg.CollectTrace && end > o.phaseStart {
		r.collPhases = append(r.collPhases, CollPhase{Name: o.phase, Start: o.phaseStart, End: end, Bytes: o.phaseBytes})
	}
	o.phase = ""
}

// chunkSizes extracts the per-destination byte counts of real chunks
// (the size-only shadow a variable-size collective records and replays).
func chunkSizes(chunks [][]float64) []int64 {
	sizes := make([]int64, len(chunks))
	for i, c := range chunks {
		sizes[i] = int64(len(c)) * 8
	}
	return sizes
}

// sumSizes totals a per-destination size vector (the payload a rank
// feeds into a variable-size collective).
func sumSizes(sizes []int64) int64 {
	var total int64
	for _, s := range sizes {
		total += s
	}
	return total
}

// ceilLog2 returns ceil(log2(p)) for p >= 1.
func ceilLog2(p int) float64 {
	steps := 0.0
	for n := 1; n < p; n <<= 1 {
		steps++
	}
	return steps
}

// collBytes resolves the simulated payload size: real data wins over the
// declared size so that simplified (AM) programs can pass nil data with an
// explicit byte count.
func collBytes(data []float64, size int64) int64 {
	if data != nil {
		return int64(len(data)) * 8
	}
	if size < 0 {
		return 0
	}
	return size
}

// vecPayload is v as a message payload: nil stays an untyped nil, which
// is what receivers test for.
func vecPayload(v []float64) interface{} {
	if v == nil {
		return nil
	}
	return v
}

// openTree opens a binomial-tree collective rooted at root over vec.
func (r *Rank) openTree(name string, root int, vec []float64, bytes int64) {
	p := r.Size()
	o := &r.op
	o.root, o.rel, o.mask, o.vec, o.bytes = root, (r.rank-root+p)%p, 1, vec, bytes
	r.openColl(name, bytes, bytes, ceilLog2(p))
}

// StartBcast starts a broadcast of data of the given size from root
// using a binomial tree. Vector returns the broadcast data on every rank
// (nil when the root passed nil, i.e. in simplified programs where only
// timing matters).
func (r *Rank) StartBcast(root int, data []float64, size int64) {
	if root < 0 || root >= r.Size() {
		panic(fmt.Sprintf("mpi: Bcast root %d out of range", root))
	}
	bytes := collBytes(data, size)
	r.log(Call{Op: "bcast", Root: root, Bytes: bytes})
	if r.detached() {
		return
	}
	r.op = opState{kind: opBcast}
	r.openTree("bcast", root, data, bytes)
	r.advance(false)
}

func (r *Rank) bcast(got bool) bool {
	o, p := &r.op, r.Size()
	if !r.simulated() {
		return true
	}
	if !got {
		// Receive phase: find the subtree parent.
		for o.mask < p && o.rel&o.mask == 0 {
			o.mask <<= 1
		}
		if o.mask < p {
			r.await((o.rel-o.mask+o.root)%p, collTagBase)
			return false
		}
	} else if o.payload != nil {
		// Clone so ranks never share mutable state through the simulated
		// network.
		o.vec = cloneVec(o.payload.([]float64))
	}
	// Send phase: forward to subtree children.
	for mask := o.mask >> 1; mask > 0; mask >>= 1 {
		if o.rel+mask < p {
			r.send((o.rel+mask+o.root)%p, collTagBase, o.bytes, vecPayload(o.vec))
		}
	}
	return true
}

// StartReduce starts the combination of data from all ranks at root with
// op over a binomial tree. Vector returns the combined vector at the
// root and nil elsewhere. data may be nil (with an explicit size) in
// simplified programs; the combination is then skipped but the
// communication is fully simulated.
func (r *Rank) StartReduce(root int, data []float64, size int64, op ReduceOp) {
	if root < 0 || root >= r.Size() {
		panic(fmt.Sprintf("mpi: Reduce root %d out of range", root))
	}
	bytes := collBytes(data, size)
	r.log(Call{Op: "reduce", Root: root, Bytes: bytes})
	r.op = opState{kind: opReduce, reduce: op}
	r.openTree("reduce", root, cloneVec(data), bytes)
	r.advance(false)
}

func (r *Rank) reduceTo(got bool) bool {
	o, p := &r.op, r.Size()
	for ; r.simulated() && o.mask < p; o.mask <<= 1 {
		if o.rel&o.mask != 0 {
			r.send((o.rel-o.mask+o.root)%p, collTagBase-1, o.bytes, vecPayload(o.vec))
			break
		}
		if child := o.rel + o.mask; child < p {
			if !got {
				r.await((child+o.root)%p, collTagBase-1)
				return false
			}
			got = false
			if o.payload != nil && o.vec != nil {
				o.reduce(o.vec, o.payload.([]float64))
			}
		}
	}
	if r.rank != o.root {
		o.vec = nil
	}
	return true
}

// StartAllreduce starts the combination of data across all ranks and the
// distribution of the result, implemented as Reduce to rank 0 followed
// by Bcast (both fully simulated). Vector returns the combined vector on
// every rank (nil payloads stay nil).
func (r *Rank) StartAllreduce(data []float64, size int64, op ReduceOp) {
	r.log(Call{Op: "allreduce", Bytes: collBytes(data, size)})
	r.allreduce(data, size, op)
}

func (r *Rank) allreduce(data []float64, size int64, op ReduceOp) {
	if r.detached() {
		return
	}
	r.op = opState{kind: opAllreduce, reduce: op}
	r.openTree("reduce", 0, cloneVec(data), collBytes(data, size))
	r.advance(false)
}

// StartBarrier starts a barrier — complete once all ranks have entered
// it — modeled as a zero-byte allreduce over the binomial trees.
func (r *Rank) StartBarrier() {
	r.log(Call{Op: "barrier"})
	r.allreduce(nil, 4, OpSum)
}

// StartGather starts the collection of size-byte contributions at root
// (linear algorithm). Vectors returns the contributions in rank order at
// the root and nil elsewhere.
func (r *Rank) StartGather(root int, data []float64, size int64) {
	bytes := collBytes(data, size)
	r.log(Call{Op: "gather", Root: root, Bytes: bytes})
	r.op = opState{kind: opGather, root: root, vec: data, bytes: bytes}
	r.openColl("gather", bytes, bytes, float64(r.Size()-1))
	if r.simulated() && r.rank == root {
		r.op.out = make([][]float64, r.Size())
		r.op.out[root] = cloneVec(data)
	}
	r.advance(false)
}

func (r *Rank) gather(got bool) bool {
	o := &r.op
	if o.out == nil { // not the root, or nothing is simulated
		if r.simulated() {
			r.send(o.root, collTagBase-2, o.bytes, vecPayload(o.vec))
		}
		return true
	}
	for ; o.step < r.Size(); o.step++ {
		if o.step == o.root {
			continue
		}
		if !got {
			r.await(o.step, collTagBase-2)
			return false
		}
		got = false
		if o.payload != nil {
			o.out[o.step] = o.payload.([]float64)
		}
	}
	return true
}

// StartScatter starts the distribution of per-rank chunks from root
// (linear algorithm). Vector returns chunks[i] on rank i; size is the
// per-chunk byte count used when chunks is nil.
func (r *Rank) StartScatter(root int, chunks [][]float64, size int64) {
	var sizes []int64
	if chunks != nil && r.rank == root {
		sizes = chunkSizes(chunks)
	}
	r.startScatter(root, chunks, sizes, size)
}

// StartScatterSizes is StartScatter at the root with explicit
// per-destination byte counts and no payload movement: destination d's
// chunk costs sizes[d] bytes (sizes must have one entry per rank). It is
// the replay-side form of a variable-size Scatter recorded from real
// chunks; non-root ranks ignore sizes.
func (r *Rank) StartScatterSizes(root int, sizes []int64, size int64) {
	if r.rank != root {
		sizes = nil
	}
	r.startScatter(root, nil, sizes, size)
}

func (r *Rank) startScatter(root int, chunks [][]float64, sizes []int64, size int64) {
	r.log(Call{Op: "scatter", Root: root, Bytes: size, Sizes: sizes})
	r.op = opState{kind: opScatter, root: root, chunks: chunks, sizes: sizes, bytes: size}
	phaseBytes := size
	if sizes != nil && r.rank == root {
		phaseBytes = sumSizes(sizes)
	}
	r.openColl("scatter", phaseBytes, size, float64(r.Size()-1))
	r.advance(false)
}

func (r *Rank) scatter(got bool) bool {
	o := &r.op
	switch {
	case got:
		o.vec, _ = o.payload.([]float64)
	case r.rank != o.root:
		if r.simulated() {
			r.await(o.root, collTagBase-3)
			return false
		}
	default:
		for dst := 0; r.simulated() && dst < r.Size(); dst++ {
			if dst == o.root {
				continue
			}
			var payload interface{}
			bytes := o.bytes
			if o.chunks != nil {
				payload = o.chunks[dst]
			}
			if o.sizes != nil {
				bytes = o.sizes[dst]
			}
			r.send(dst, collTagBase-3, bytes, payload)
		}
		if o.chunks != nil {
			o.vec = o.chunks[o.root]
		}
	}
	return true
}

// StartAllgather starts the gathering of equal-size contributions
// everywhere using a ring algorithm (P-1 steps of neighbour exchange).
// Vectors returns the contributions in rank order.
func (r *Rank) StartAllgather(data []float64, size int64) {
	p := r.Size()
	bytes := collBytes(data, size)
	r.log(Call{Op: "allgather", Bytes: bytes})
	r.op = opState{kind: opAllgather, bytes: bytes, out: make([][]float64, p)}
	r.op.out[r.rank] = cloneVec(data)
	r.openColl("allgather", bytes, bytes, float64(p-1))
	r.advance(false)
}

// allgather passes blocks around the ring: at step s a rank forwards the
// block that originated at rank (rank-s+p)%p.
func (r *Rank) allgather(got bool) bool {
	o, p := &r.op, r.Size()
	for ; r.simulated() && o.step < p-1; o.step++ {
		if !got {
			origin := (r.rank - o.step + p) % p
			r.send((r.rank+1)%p, collTagBase-4, o.bytes, vecPayload(o.out[origin]))
			r.await((r.rank-1+p)%p, collTagBase-4)
			return false
		}
		got = false
		if o.payload != nil {
			o.out[(r.rank-o.step-1+p)%p] = o.payload.([]float64)
		}
	}
	return true
}

// StartAlltoall starts the exchange of size bytes between every pair of
// ranks (pairwise exchange algorithm). Real payloads are taken from
// chunks (indexed by destination) when non-nil; Vectors returns the
// result, indexed by source.
func (r *Rank) StartAlltoall(chunks [][]float64, size int64) {
	var sizes []int64
	if chunks != nil {
		sizes = chunkSizes(chunks)
	}
	r.startAlltoall(chunks, sizes, size)
}

// StartAlltoallSizes is StartAlltoall with explicit per-destination byte
// counts and no payload movement: the message to rank d costs sizes[d]
// bytes (sizes must have one entry per rank). It is the replay-side form
// of a variable-size Alltoall recorded from real chunks.
func (r *Rank) StartAlltoallSizes(sizes []int64, size int64) {
	r.startAlltoall(nil, sizes, size)
}

func (r *Rank) startAlltoall(chunks [][]float64, sizes []int64, size int64) {
	p := r.Size()
	r.log(Call{Op: "alltoall", Bytes: size, Sizes: sizes})
	r.op = opState{kind: opAlltoall, step: 1, chunks: chunks, sizes: sizes, bytes: size, out: make([][]float64, p)}
	if chunks != nil {
		r.op.out[r.rank] = chunks[r.rank]
	}
	phaseBytes := size * int64(p)
	if sizes != nil {
		phaseBytes = sumSizes(sizes)
	}
	r.openColl("alltoall", phaseBytes, size, float64(p-1))
	r.advance(false)
}

func (r *Rank) alltoall(got bool) bool {
	o, p := &r.op, r.Size()
	for ; r.simulated() && o.step < p; o.step++ {
		dst, src := (r.rank+o.step)%p, (r.rank-o.step+p)%p
		if !got {
			var payload interface{}
			bytes := o.bytes
			if o.chunks != nil {
				payload = o.chunks[dst]
			}
			if o.sizes != nil {
				bytes = o.sizes[dst]
			}
			r.send(dst, collTagBase-5, bytes, payload)
			r.await(src, collTagBase-5)
			return false
		}
		got = false
		if o.payload != nil {
			o.out[src] = o.payload.([]float64)
		}
	}
	return true
}

func cloneVec(v []float64) []float64 {
	if v == nil {
		return nil
	}
	c := make([]float64, len(v))
	copy(c, v)
	return c
}
