package tracein

import (
	"math"
	"math/bits"

	"mpisim/internal/mpi"
)

// fold is the one place rank classes are formed: New and Record,
// Parse of either version and Extrapolate all end here. rank r issues
// the sequence of rank rep[r] shifted by r − rep[r] (rep nil: its own),
// and next(b, buf) returns the sequence of a rank b with rep[b] == b.
// Those sequences that are equal under the shift merge — found through a
// shift-invariant hash, confirmed call by call (sameCalls). The result is
// canonical however rep split the ranks: a class is every rank with its
// sequence, its representative its lowest rank, classes numbered in
// representative order. next may append into buf; a sequence that founds
// a class is kept as returned, and the next call gets a fresh buffer.
func fold(hdr Header, rep []int32, next func(b int, buf []mpi.Call) []mpi.Call) *Trace {
	var (
		streams [][]mpi.Call
		bases   []int
		chain   []int32 // the previous class with the same hash, -1 at the end
		last    = make(map[uint64]int32)
		classOf = make([]int32, hdr.Ranks) // b → class of streams
		prev    = int32(-1)
		buf     []mpi.Call
	)
	for b := range classOf {
		if rep != nil && int(rep[b]) != b {
			continue
		}
		calls := next(b, buf[:0])
		// Neighbouring ranks mostly share a class: try the previous
		// one's before hashing.
		if k := prev; k >= 0 && sameCalls(streams[k], calls, b-bases[k]) {
			classOf[b], buf = k, calls
			continue
		}
		h := hashCalls(calls, b)
		head, ok := last[h]
		if !ok {
			head = -1
		}
		k := head
		for k >= 0 && !sameCalls(streams[k], calls, b-bases[k]) {
			k = chain[k]
		}
		if k < 0 {
			k = int32(len(streams))
			last[h], chain = k, append(chain, head)
			streams, bases = append(streams, calls), append(bases, b)
			calls = nil
		}
		classOf[b], buf, prev = k, calls, k
	}

	t := &Trace{Header: hdr, class: make([]int32, hdr.Ranks)}
	renum := make([]int32, len(streams))
	for k := range renum {
		renum[k] = -1
	}
	for r := range t.class {
		k := classOf[r]
		if rep != nil {
			k = classOf[rep[r]]
		}
		if renum[k] < 0 {
			renum[k] = int32(len(t.streams))
			s := streams[k]
			if d := r - bases[k]; d != 0 {
				s = appendShifted(make([]mpi.Call, 0, len(s)), s, d)
			}
			t.streams, t.reps = append(t.streams, s), append(t.reps, r)
		}
		t.class[r] = renum[k]
	}
	return t
}

// peerFields is the set of c's peers that move with the rank: those its
// ops entry declares (fPeer, fPeer2). It is decided by the op, never by
// a value: Peer is zero on ops that carry none and Peer2 on everything
// but sendrecv, and shifting those zeros would give every rank a class.
func peerFields(c *mpi.Call) fieldMask {
	if spec := opOf(c.Op); spec != nil {
		return spec.req & (fPeer | fPeer2)
	}
	return 0
}

// shift moves a peer by d unless it is the receive wildcard.
func shift(peer, d int) int {
	if peer == mpi.AnySource {
		return peer
	}
	return peer + d
}

// appendShifted appends src to dst with every moving peer shifted by d.
func appendShifted(dst, src []mpi.Call, d int) []mpi.Call {
	n := len(dst)
	dst = append(dst, src...)
	if d == 0 {
		return dst
	}
	for i := n; i < len(dst); i++ {
		c := &dst[i]
		m := peerFields(c)
		if m&fPeer != 0 {
			c.Peer = shift(c.Peer, d)
		}
		if m&fPeer2 != 0 {
			c.Peer2 = shift(c.Peer2, d)
		}
	}
	return dst
}

// hashCalls hashes a sequence with every moving peer read relative to
// base, so it hashes the same at every rank of its class. It only
// filters what sameCalls then decides, three multiplies a call: it may
// join what differs (0 and -0, task names alike in length and last
// byte), never part what is equal.
func hashCalls(calls []mpi.Call, base int) uint64 {
	h := uint64(len(calls))
	mix := func(v uint64) { h = bits.RotateLeft64((h^v)*0x9e3779b97f4a7c15, 29) }
	for i := range calls {
		c := &calls[i]
		peer, peer2 := c.Peer, c.Peer2
		m := peerFields(c)
		if m&fPeer != 0 {
			peer = shift(peer, -base)
		}
		if m&fPeer2 != 0 {
			peer2 = shift(peer2, -base)
		}
		op, task := uint64(len(c.Op)), uint64(len(c.Task))
		if op > 0 {
			op |= uint64(c.Op[0]) << 8
		}
		if task > 0 {
			task |= uint64(c.Task[task-1]) << 8
		}
		mix(math.Float64bits(c.Sec + 0))
		mix(op ^ task<<16 ^ uint64(c.Tag)<<32 ^ uint64(c.Tag2)<<48)
		mix(uint64(c.Bytes) ^ uint64(peer)<<20 ^ uint64(peer2)<<40 ^ uint64(c.Root)<<52 ^ uint64(len(c.Sizes))<<58)
		for _, v := range c.Sizes {
			mix(uint64(v))
		}
	}
	return h
}

// sameCalls reports whether b is a, issued d ranks further on: every
// field equal — Sec as bits, so 0 and -0 differ — except that each
// moving peer of b is a's plus d, a wildcard matching only a wildcard.
func sameCalls(a, b []mpi.Call, d int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.Op != y.Op || math.Float64bits(x.Sec) != math.Float64bits(y.Sec) || x.Task != y.Task ||
			x.Tag != y.Tag || x.Bytes != y.Bytes || x.Tag2 != y.Tag2 || x.Root != y.Root ||
			(x.Sizes == nil) != (y.Sizes == nil) || len(x.Sizes) != len(y.Sizes) {
			return false
		}
		m := peerFields(x)
		if !samePeer(x.Peer, y.Peer, d, m&fPeer != 0) || !samePeer(x.Peer2, y.Peer2, d, m&fPeer2 != 0) {
			return false
		}
		for j, v := range x.Sizes {
			if v != y.Sizes[j] {
				return false
			}
		}
	}
	return true
}

// samePeer reports whether q is peer p issued d ranks further on: p
// itself when it does not move or is the wildcard.
func samePeer(p, q, d int, moves bool) bool {
	if !moves || p == mpi.AnySource || q == mpi.AnySource {
		return p == q
	}
	return q == p+d
}
