package mpi

// The blocking forms of the operations that can wait, for bodies run by
// World.Run: each starts the operation and lets block satisfy what it
// waits for with blocking kernel receives. They hold no MPI logic of
// their own; tests and the interpreter's reference evaluator use them.

// block completes the operation in flight on the rank's own goroutine.
func (r *Rank) block() *Rank {
	for r.Waiting() {
		r.arrived(r.proc.RecvSrcTag(r.op.src, r.op.tag))
	}
	return r
}

// Recv is RecvSized with no declared size: under the AbstractComm model
// a zero-byte transfer is assumed.
func (r *Rank) Recv(src, tag int) (int64, interface{}) { return r.RecvSized(src, tag, 0) }

// RecvSized blocks until a message with the given source and tag arrives
// and returns its size and payload (StartRecv).
func (r *Rank) RecvSized(src, tag int, expect int64) (int64, interface{}) {
	r.StartRecv(src, tag, expect)
	return r.block().Received()
}

// Sendrecv sends, then blocks in the receive (StartSendrecv).
func (r *Rank) Sendrecv(dst, sendTag int, size int64, data interface{}, src, recvTag int) (int64, interface{}) {
	r.StartSendrecv(dst, sendTag, size, data, src, recvTag)
	return r.block().Received()
}

// Wait blocks until the request completes and returns the received size
// and payload (zero values for sends).
func (req *Request) Wait() (int64, interface{}) {
	req.StartWait()
	return req.rank.block().Received()
}

// Waitall completes all requests in order.
func (r *Rank) Waitall(reqs []*Request) {
	for _, q := range reqs {
		q.Wait()
	}
}

// Bcast returns the broadcast data on every rank (StartBcast).
func (r *Rank) Bcast(root int, data []float64, size int64) []float64 {
	r.StartBcast(root, data, size)
	return r.block().Vector()
}

// Reduce returns the combined vector at the root, nil elsewhere
// (StartReduce).
func (r *Rank) Reduce(root int, data []float64, size int64, op ReduceOp) []float64 {
	r.StartReduce(root, data, size, op)
	return r.block().Vector()
}

// Allreduce returns the combined vector on every rank (StartAllreduce).
func (r *Rank) Allreduce(data []float64, size int64, op ReduceOp) []float64 {
	r.StartAllreduce(data, size, op)
	return r.block().Vector()
}

// Barrier blocks until all ranks have entered it (StartBarrier).
func (r *Rank) Barrier() {
	r.StartBarrier()
	r.block()
}

// Gather returns the contributions in rank order at the root, nil
// elsewhere (StartGather).
func (r *Rank) Gather(root int, data []float64, size int64) [][]float64 {
	r.StartGather(root, data, size)
	return r.block().Vectors()
}

// Scatter returns this rank's chunk (StartScatter).
func (r *Rank) Scatter(root int, chunks [][]float64, size int64) []float64 {
	r.StartScatter(root, chunks, size)
	return r.block().Vector()
}

// ScatterSizes is Scatter by byte counts alone (StartScatterSizes).
func (r *Rank) ScatterSizes(root int, sizes []int64, size int64) []float64 {
	r.StartScatterSizes(root, sizes, size)
	return r.block().Vector()
}

// Allgather returns the contributions in rank order (StartAllgather).
func (r *Rank) Allgather(data []float64, size int64) [][]float64 {
	r.StartAllgather(data, size)
	return r.block().Vectors()
}

// Alltoall returns the received chunks, indexed by source
// (StartAlltoall).
func (r *Rank) Alltoall(chunks [][]float64, size int64) [][]float64 {
	r.StartAlltoall(chunks, size)
	return r.block().Vectors()
}

// AlltoallSizes is Alltoall by byte counts alone (StartAlltoallSizes).
func (r *Rank) AlltoallSizes(sizes []int64, size int64) [][]float64 {
	r.StartAlltoallSizes(sizes, size)
	return r.block().Vectors()
}
