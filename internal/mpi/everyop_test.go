package mpi

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mpisim/internal/fault"
	"mpisim/internal/machine"
	"mpisim/internal/sim"
)

// The every-op differential. A seeded generator writes an SPMD program
// over every operation the library has — the 13 recorded ops plus
// Isend/Irecv/Waitall — matched by construction and wildcard-free, with
// real payloads and size-only ones, variable per-destination sizes and
// roots other than 0. Each program runs twice, as a blocking body over
// the blocking methods and as a continuation Program over the Start
// methods, and the two runs must agree on everything a run produces:
// the report (segments, comm events, collective phases, call logs,
// matrices, fault and network statistics, the kernel's event counts) and
// every value every rank received. Both drivers share one machine per
// operation, so agreement alone cannot see a machine that is wrong the
// same way twice: healthy runs are also held to a model of what each
// operation returns, which result vectors must be private copies, and
// which collective phases a rank records.

// result is what one call hands back to the rank.
type result struct {
	Size int64
	Vec  []float64
	Vecs [][]float64
}

// call is one operation of a rank's program in both forms: block runs
// it to completion on a blocking body; start begins it on a continuation
// program and result collects what it produced once it is no longer
// waiting.
type call struct {
	block  func(r *Rank) result
	start  func(r *Rank)
	result func(r *Rank) result
}

func recvResult(size int64, payload interface{}) result {
	v, _ := payload.([]float64)
	return result{Size: size, Vec: v}
}

func none(*Rank) result { return result{} }

func received(r *Rank) result { return recvResult(r.Received()) }
func vector(r *Rank) result   { return result{Vec: r.Vector()} }
func vectors(r *Rank) result  { return result{Vecs: r.Vectors()} }

// local wraps an operation that never waits.
func local(f func(r *Rank)) call {
	return call{block: func(r *Rank) result { f(r); return result{} }, start: f, result: none}
}

// opStep is one SPMD step of a generated program: what the model needs
// to know about it beside the calls it turned into.
type opStep struct {
	op    string
	root  int
	shift int
	real  bool
	n     int     // elements per vector
	lens  [][]int // scatter, alltoall: lens[src][dst] elements
}

// program is a generated SPMD program at one world size.
type program struct {
	p     int
	seed  int64
	steps []opStep
}

var reduceOpsUnderTest = []ReduceOp{OpSum, OpMax, OpMin}

// genProgram draws a program of the given length.
func genProgram(seed int64, p, length int) *program {
	rng := rand.New(rand.NewSource(seed))
	ops := []string{"compute", "delay", "sendrecv-pair", "sendrecv", "nonblocking",
		"bcast", "reduce", "allreduce", "barrier", "gather", "scatter", "scattersizes",
		"allgather", "alltoall", "alltoallsizes"}
	pr := &program{p: p, seed: seed}
	for i := 0; i < length; i++ {
		st := opStep{
			op:    ops[rng.Intn(len(ops))],
			root:  rng.Intn(p),
			shift: rng.Intn(p),
			real:  rng.Intn(3) > 0,
			n:     1 + rng.Intn(6),
		}
		st.lens = make([][]int, p)
		for s := range st.lens {
			st.lens[s] = make([]int, p)
			for d := range st.lens[s] {
				st.lens[s][d] = rng.Intn(5) // zero-length chunks included
			}
		}
		pr.steps = append(pr.steps, st)
	}
	return pr
}

// data is the vector rank contributes to step i (slot distinguishes the
// chunks of one contribution): a pure function of its arguments, so the
// model can regenerate what any rank sent.
func (pr *program) data(i, rank, slot, n int) []float64 {
	v := make([]float64, n)
	for k := range v {
		v[k] = float64((pr.seed%97+1)*1000003+int64(i)*7919+int64(rank)*131+int64(slot)*17+int64(k)) / 8
	}
	return v
}

func (pr *program) chunks(i, rank int) [][]float64 {
	out := make([][]float64, pr.p)
	for d := range out {
		out[d] = pr.data(i, rank, d, pr.steps[i].lens[rank][d])
	}
	return out
}

func (pr *program) sizes(i, rank int) []int64 {
	out := make([]int64, pr.p)
	for d := range out {
		out[d] = int64(pr.steps[i].lens[rank][d]) * 8
	}
	return out
}

// calls builds rank's program. Every invocation returns fresh closures
// and fresh vectors, so two runs share nothing. inputs receives every
// vector the rank hands to the library, for the model's no-mutation
// check.
func (pr *program) calls(rank int, inputs *[][]float64) []call {
	p := pr.p
	keep := func(v []float64) []float64 {
		if v != nil {
			*inputs = append(*inputs, v)
		}
		return v
	}
	keepAll := func(vs [][]float64) [][]float64 {
		for _, v := range vs {
			keep(v)
		}
		return vs
	}
	var out []call
	for i, st := range pr.steps {
		i, st := i, st
		tag := i
		bytes := int64(st.n) * 8
		var vec []float64
		if st.real {
			vec = keep(pr.data(i, rank, 0, st.n))
		}
		var payload interface{}
		if vec != nil {
			payload = vec
		}
		dst, src := (rank+st.shift)%p, (rank-st.shift+p)%p
		switch st.op {
		case "compute":
			out = append(out, local(func(r *Rank) { r.Compute(1e-6 * float64(1+(rank+i)%4)) }))
		case "delay":
			out = append(out, local(func(r *Rank) { r.DelayTask(fmt.Sprintf("w_%d", i%3), 2e-6*float64(1+rank%3)) }))
		case "sendrecv-pair":
			out = append(out, local(func(r *Rank) { r.Send(dst, tag, bytes, payload) }), call{
				block:  func(r *Rank) result { return recvResult(r.RecvSized(src, tag, bytes)) },
				start:  func(r *Rank) { r.StartRecv(src, tag, bytes) },
				result: received,
			})
		case "sendrecv":
			out = append(out, call{
				block:  func(r *Rank) result { return recvResult(r.Sendrecv(dst, tag, bytes, payload, src, tag)) },
				start:  func(r *Rank) { r.StartSendrecv(dst, tag, bytes, payload, src, tag) },
				result: received,
			})
		case "nonblocking":
			var rq, sq *Request
			out = append(out, call{
				block: func(r *Rank) result {
					rq, sq = r.Irecv(src, tag), r.Isend(dst, tag, bytes, payload)
					r.Waitall([]*Request{sq, rq})
					return recvResult(rq.Wait())
				},
				start: func(r *Rank) {
					rq, sq = r.Irecv(src, tag), r.Isend(dst, tag, bytes, payload)
					sq.StartWait()
					rq.StartWait()
				},
				result: received,
			}, call{ // a second wait returns what the first did
				block:  func(r *Rank) result { return recvResult(rq.Wait()) },
				start:  func(r *Rank) { rq.StartWait() },
				result: received,
			})
		case "bcast":
			data := vec
			if rank != st.root {
				data = nil
			}
			out = append(out, call{
				block:  func(r *Rank) result { return result{Vec: r.Bcast(st.root, data, bytes)} },
				start:  func(r *Rank) { r.StartBcast(st.root, data, bytes) },
				result: vector,
			})
		case "reduce":
			op := reduceOpsUnderTest[i%3]
			out = append(out, call{
				block:  func(r *Rank) result { return result{Vec: r.Reduce(st.root, vec, bytes, op)} },
				start:  func(r *Rank) { r.StartReduce(st.root, vec, bytes, op) },
				result: vector,
			})
		case "allreduce":
			op := reduceOpsUnderTest[i%3]
			out = append(out, call{
				block:  func(r *Rank) result { return result{Vec: r.Allreduce(vec, bytes, op)} },
				start:  func(r *Rank) { r.StartAllreduce(vec, bytes, op) },
				result: vector,
			})
		case "barrier":
			out = append(out, call{
				block:  func(r *Rank) result { r.Barrier(); return result{} },
				start:  func(r *Rank) { r.StartBarrier() },
				result: none,
			})
		case "gather":
			out = append(out, call{
				block:  func(r *Rank) result { return result{Vecs: r.Gather(st.root, vec, bytes)} },
				start:  func(r *Rank) { r.StartGather(st.root, vec, bytes) },
				result: vectors,
			})
		case "scatter":
			var chunks [][]float64
			if st.real && rank == st.root {
				chunks = keepAll(pr.chunks(i, rank))
			}
			out = append(out, call{
				block:  func(r *Rank) result { return result{Vec: r.Scatter(st.root, chunks, bytes)} },
				start:  func(r *Rank) { r.StartScatter(st.root, chunks, bytes) },
				result: vector,
			})
		case "scattersizes":
			sizes := pr.sizes(i, st.root)
			out = append(out, call{
				block:  func(r *Rank) result { return result{Vec: r.ScatterSizes(st.root, sizes, bytes)} },
				start:  func(r *Rank) { r.StartScatterSizes(st.root, sizes, bytes) },
				result: vector,
			})
		case "allgather":
			out = append(out, call{
				block:  func(r *Rank) result { return result{Vecs: r.Allgather(vec, bytes)} },
				start:  func(r *Rank) { r.StartAllgather(vec, bytes) },
				result: vectors,
			})
		case "alltoall":
			var chunks [][]float64
			if st.real {
				chunks = keepAll(pr.chunks(i, rank))
			}
			out = append(out, call{
				block:  func(r *Rank) result { return result{Vecs: r.Alltoall(chunks, bytes)} },
				start:  func(r *Rank) { r.StartAlltoall(chunks, bytes) },
				result: vectors,
			})
		case "alltoallsizes":
			sizes := pr.sizes(i, rank)
			out = append(out, call{
				block:  func(r *Rank) result { return result{Vecs: r.AlltoallSizes(sizes, bytes)} },
				start:  func(r *Rank) { r.StartAlltoallSizes(sizes, bytes) },
				result: vectors,
			})
		}
	}
	return out
}

// callProgram runs a rank's calls as a continuation Program.
type callProgram struct {
	r       *Rank
	calls   []call
	pc      int
	started bool
	log     *[]result
}

func (cp *callProgram) Step() bool {
	for {
		if cp.started {
			*cp.log = append(*cp.log, cp.calls[cp.pc].result(cp.r))
			cp.started = false
			cp.pc++
		}
		if cp.pc == len(cp.calls) {
			return true
		}
		cp.calls[cp.pc].start(cp.r)
		cp.started = true
		if cp.r.Waiting() {
			return false
		}
	}
}

// outcome is everything one run of a program produced.
type outcome struct {
	Report  *Report
	Err     string
	States  []sim.ProcWaitState
	Results [][]result // by rank, one per completed call
	inputs  [][][]float64
}

func (pr *program) run(cfg Config, continuation bool) outcome {
	cfg.Ranks = pr.p
	cfg.CollectTrace, cfg.CollectMatrix, cfg.RecordCalls = true, true, true
	out := outcome{Results: make([][]result, pr.p), inputs: make([][][]float64, pr.p)}
	w, err := NewWorld(cfg)
	if err != nil {
		panic(err)
	}
	if continuation {
		out.Report, err = w.RunProgram(func(r *Rank) Program {
			return &callProgram{r: r, calls: pr.calls(r.Rank(), &out.inputs[r.Rank()]), log: &out.Results[r.Rank()]}
		})
	} else {
		out.Report, err = w.Run(func(r *Rank) {
			me := r.Rank()
			for _, c := range pr.calls(me, &out.inputs[me]) {
				out.Results[me] = append(out.Results[me], c.block(r))
			}
		})
	}
	if err != nil {
		out.Err = err.Error()
		if ae, ok := err.(*sim.AbortError); ok {
			out.States = ae.States
		}
	}
	return out
}

// armedFaults is a scenario exercising every fault path, with rank
// p/2 stopping at crashAt.
func armedFaults(seed uint64, p int, crashAt float64) *fault.Scenario {
	return &fault.Scenario{
		Seed:      seed,
		Retry:     &fault.RetryConfig{Timeout: 5e-5, Backoff: 2, MaxRetries: 16},
		Loss:      []fault.LossSpec{{Prob: 0.05, From: fault.AnyRank, To: fault.AnyRank}},
		Duplicate: []fault.DupSpec{{Prob: 0.05, From: fault.AnyRank, To: fault.AnyRank}},
		Delay:     []fault.DelaySpec{{Prob: 0.1, Extra: 1e-5, Jitter: 1e-5, From: fault.AnyRank, To: fault.AnyRank}},
		Crashes:   []fault.CrashSpec{{Rank: p / 2, Time: crashAt}},
	}
}

func TestEveryOpBlockingVsContinuation(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, p := range []int{1, 2, 3, 5, 8, 16} {
		for _, seed := range seeds {
			pr := genProgram(seed*100+int64(p), p, 40)
			for _, comm := range []CommModel{Analytic, Detailed, AbstractComm} {
				for _, topo := range []string{"", "torus:dims=2x2"} {
					m := machine.IBMSP()
					m.Topology = topo
					healthy := Config{Machine: m, Comm: comm}
					end := pr.run(healthy, true).Report.Time
					for _, faults := range []*fault.Scenario{nil, armedFaults(uint64(seed), p, end/2)} {
						for _, workers := range []int{1, 2} {
							cfg := healthy
							cfg.Faults = faults
							cfg.HostWorkers, cfg.RealParallel = workers, workers > 1
							name := fmt.Sprintf("p=%d seed=%d %v topo=%q faults=%v workers=%d", p, seed, comm, topo, faults != nil, workers)
							blocking, cont := pr.run(cfg, false), pr.run(cfg, true)
							if blocking.Report == nil || cont.Report == nil {
								t.Fatalf("%s: no report: %q / %q", name, blocking.Err, cont.Err)
							}
							if !reflect.DeepEqual(blocking, cont) {
								t.Fatalf("%s: the blocking body and the continuation program disagree:\n%s", name, firstDifference(blocking, cont))
							}
							if cont.Report.Kernel.Events == 0 {
								t.Fatalf("%s: no events", name)
							}
							if faults == nil && cont.Err != "" {
								t.Fatalf("%s: healthy run failed: %s", name, cont.Err)
							}
							if faults == nil && comm != AbstractComm {
								pr.checkModel(t, name, cont)
							}
						}
					}
				}
			}
		}
	}
}

// firstDifference names the first field two outcomes differ in.
func firstDifference(a, b outcome) string {
	if a.Err != b.Err {
		return fmt.Sprintf("error %q vs %q", a.Err, b.Err)
	}
	if !reflect.DeepEqual(a.States, b.States) {
		return fmt.Sprintf("wait states %+v vs %+v", a.States, b.States)
	}
	for r := range a.Results {
		if !reflect.DeepEqual(a.Results[r], b.Results[r]) {
			return fmt.Sprintf("rank %d received %+v vs %+v", r, a.Results[r], b.Results[r])
		}
	}
	ra, rb := reflect.ValueOf(*a.Report), reflect.ValueOf(*b.Report)
	for i := 0; i < ra.NumField(); i++ {
		if !reflect.DeepEqual(ra.Field(i).Interface(), rb.Field(i).Interface()) {
			return fmt.Sprintf("Report.%s:\n%+v\nvs\n%+v", ra.Type().Field(i).Name, ra.Field(i).Interface(), rb.Field(i).Interface())
		}
	}
	return "inputs"
}

// same reports whether two vectors share their first element's memory.
func same(a, b []float64) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// checkModel holds a healthy run under an event-driven model to what
// each operation is specified to return, to the privacy of the vectors
// the library copies, to the collective phases each rank records and to
// the one recorded call per operation.
func (pr *program) checkModel(t *testing.T, name string, out outcome) {
	t.Helper()
	p := pr.p
	for rank := 0; rank < p; rank++ {
		// The library never writes to a vector it was handed.
		var fresh [][]float64
		pr.calls(rank, &fresh)
		if !reflect.DeepEqual(out.inputs[rank], fresh) {
			t.Fatalf("%s: rank %d: a vector handed to the library was modified", name, rank)
		}
		var phases []string
		calls := 0
		at := 0 // index into the rank's results
		next := func() result { at++; return out.Results[rank][at-1] }
		for i, st := range pr.steps {
			bytes := int64(st.n) * 8
			contribution := func(rank int) []float64 {
				if !st.real {
					return nil
				}
				return pr.data(i, rank, 0, st.n)
			}
			reduced := func() []float64 {
				if !st.real {
					return nil
				}
				acc := contribution(0)
				for r := 1; r < p; r++ {
					reduceOpsUnderTest[i%3](acc, contribution(r))
				}
				return acc
			}
			everyones := func() [][]float64 {
				all := make([][]float64, p)
				for r := range all {
					all[r] = contribution(r)
				}
				return all
			}
			var want []result
			calls++
			switch st.op {
			case "compute", "delay":
				want = []result{{}}
			case "sendrecv-pair":
				calls++
				want = []result{{}, {Size: bytes, Vec: contribution((rank - st.shift + p) % p)}}
			case "sendrecv":
				want = []result{{Size: bytes, Vec: contribution((rank - st.shift + p) % p)}}
			case "nonblocking":
				calls++
				got := result{Size: bytes, Vec: contribution((rank - st.shift + p) % p)}
				want = []result{got, got}
			case "bcast":
				phases = append(phases, "bcast")
				want = []result{{Vec: contribution(st.root)}}
			case "reduce":
				phases = append(phases, "reduce")
				want = []result{{}}
				if rank == st.root {
					want[0].Vec = reduced()
				}
			case "allreduce":
				phases = append(phases, "reduce", "bcast")
				want = []result{{Vec: reduced()}}
			case "barrier":
				phases = append(phases, "reduce", "bcast")
				want = []result{{}}
			case "gather":
				phases = append(phases, "gather")
				want = []result{{}}
				if rank == st.root {
					want[0].Vecs = everyones()
				}
			case "scatter":
				phases = append(phases, "scatter")
				want = []result{{}}
				if st.real {
					want[0].Vec = pr.data(i, st.root, rank, st.lens[st.root][rank])
				}
			case "scattersizes":
				phases = append(phases, "scatter")
				want = []result{{}}
			case "allgather":
				phases = append(phases, "allgather")
				want = []result{{Vecs: everyones()}}
			case "alltoall":
				phases = append(phases, "alltoall")
				want = []result{{Vecs: make([][]float64, p)}}
				for src := 0; st.real && src < p; src++ {
					want[0].Vecs[src] = pr.data(i, src, rank, st.lens[src][rank])
				}
			case "alltoallsizes":
				phases = append(phases, "alltoall")
				want = []result{{Vecs: make([][]float64, p)}}
			}
			for _, w := range want {
				got := next()
				if !equalResult(got, w) {
					t.Fatalf("%s: rank %d step %d (%s, root %d, shift %d): got %+v, want %+v", name, rank, i, st.op, st.root, st.shift, got, w)
				}
				// What the library copies, it copies for this rank alone: a
				// broadcast or reduced vector is nobody else's, and a rank's
				// own contribution comes back as a copy.
				switch st.op {
				case "bcast", "allreduce":
					for other := 0; other < rank; other++ {
						if same(got.Vec, out.Results[other][at-1].Vec) {
							t.Fatalf("%s: step %d (%s): ranks %d and %d share one result vector", name, i, st.op, other, rank)
						}
					}
				case "reduce", "gather", "allgather":
					own := got.Vec
					if got.Vecs != nil {
						own = got.Vecs[rank]
					}
					for _, in := range out.inputs[rank] {
						if same(own, in) {
							t.Fatalf("%s: rank %d step %d (%s): the result aliases the rank's own input", name, rank, i, st.op)
						}
					}
				}
			}
		}
		if at != len(out.Results[rank]) {
			t.Fatalf("%s: rank %d completed %d calls, model has %d", name, rank, len(out.Results[rank]), at)
		}
		if got := len(out.Report.Calls[rank]); got != calls {
			t.Fatalf("%s: rank %d recorded %d calls for %d operations", name, rank, got, calls)
		}
		var got []string
		for _, ph := range out.Report.CollPhases[rank] {
			got = append(got, ph.Name)
		}
		if p == 1 {
			phases = nil // nothing takes time in a world of one
		}
		if !reflect.DeepEqual(got, phases) {
			t.Fatalf("%s: rank %d collective phases %v, want %v", name, rank, got, phases)
		}
	}
}

// equalResult compares values, taking nil and empty vectors as equal (an
// empty chunk travels as a zero-length message).
func equalResult(a, b result) bool {
	eq := func(x, y []float64) bool { return len(x) == len(y) && (len(x) == 0 || reflect.DeepEqual(x, y)) }
	if a.Size != b.Size || !eq(a.Vec, b.Vec) || len(a.Vecs) != len(b.Vecs) {
		return false
	}
	for i := range a.Vecs {
		if !eq(a.Vecs[i], b.Vecs[i]) {
			return false
		}
	}
	return true
}
