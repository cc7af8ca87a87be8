package mpi

import "fmt"

// Replay is the Program of a rank that re-issues calls some rank issued,
// with every point-to-point peer but the receive wildcard shifted by
// shift, the rank's distance from that one, and nil payloads. It logs
// nothing under RecordCalls: the calls are its log (Report.CallsFrom).
func Replay(r *Rank, calls []Call, shift int) Program {
	return &replayer{r: r, calls: calls, shift: shift}
}

type replayer struct {
	r     *Rank
	calls []Call
	shift int
	pc    int
}

// Step implements Program: re-issue calls until the list ends or one
// waits.
func (p *replayer) Step() bool {
	for p.pc < len(p.calls) {
		c := &p.calls[p.pc]
		p.pc++
		if replayCall(p.r, c, p.shift); p.r.Waiting() {
			return false
		}
	}
	return true
}

// replayCall re-issues one recorded operation, its peers shifted by d.
func replayCall(r *Rank, c *Call, d int) {
	switch c.Op {
	case "compute":
		r.Compute(c.Sec)
	case "delay":
		r.DelayTask(c.Task, c.Sec)
	case "send":
		r.Send(ShiftPeer(c.Peer, d), c.Tag, c.Bytes, nil)
	case "recv":
		r.StartRecv(ShiftPeer(c.Peer, d), c.Tag, c.Bytes)
	case "sendrecv":
		r.StartSendrecv(ShiftPeer(c.Peer, d), c.Tag, c.Bytes, nil, ShiftPeer(c.Peer2, d), c.Tag2)
	case "bcast":
		r.StartBcast(c.Root, nil, c.Bytes)
	case "reduce":
		r.StartReduce(c.Root, nil, c.Bytes, OpSum)
	case "allreduce":
		r.StartAllreduce(nil, c.Bytes, OpSum)
	case "barrier":
		r.StartBarrier()
	case "gather":
		r.StartGather(c.Root, nil, c.Bytes)
	case "scatter":
		if c.Sizes != nil {
			r.StartScatterSizes(c.Root, c.Sizes, c.Bytes)
		} else {
			r.StartScatter(c.Root, nil, c.Bytes)
		}
	case "allgather":
		r.StartAllgather(nil, c.Bytes)
	case "alltoall":
		if c.Sizes != nil {
			r.StartAlltoallSizes(c.Sizes, c.Bytes)
		} else {
			r.StartAlltoall(nil, c.Bytes)
		}
	default:
		panic(fmt.Sprintf("mpi: unknown op %q reached replay (the trace parser must reject it)", c.Op))
	}
}

// callLogs assembles Report.Calls and Report.CallsFrom: of the ranks
// that replayed one stream to its end the first has it as its log, the
// others name that one in from; a rank that stopped short (crashed,
// aborted) has what it issued. from is nil when no rank replayed.
func (w *World) callLogs() (logs [][]Call, from []int32) {
	logs = make([][]Call, len(w.ranks))
	first := map[*Call]int32{}
	for i, r := range w.ranks {
		p, ok := r.prog.(*replayer)
		if !ok {
			logs[i] = r.callLog()
			continue
		}
		if from == nil {
			from = make([]int32, len(w.ranks))
			for j := range from {
				from[j] = int32(j)
			}
		}
		if p.pc > 0 && p.pc == len(p.calls) {
			if s, seen := first[&p.calls[0]]; seen {
				from[i], logs[i] = s, nil
				continue
			}
			first[&p.calls[0]] = int32(i)
		}
		logs[i] = p.calls[:p.pc:p.pc]
		if p.shift != 0 {
			logs[i] = AppendShifted(make([]Call, 0, p.pc), logs[i], p.shift)
		}
	}
	return logs, from
}
