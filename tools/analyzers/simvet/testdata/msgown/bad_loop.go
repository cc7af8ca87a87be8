package sim

// loopDoubleFree frees the same message on every iteration: the second
// pass consumes a pointer the pool already owns. This backward-jumping
// shape is exactly the flow-insensitivity gap the standalone msgown
// documented; the loop-aware engine closes it.
func loopDoubleFree(p *Proc, n int) {
	m := p.RecvSrcTag(0, 1)
	for i := 0; i < n; i++ {
		p.FreeMessage(m)
	}
}

// loopReadStale reads a message on iterations after the one that freed
// it.
func loopReadStale(p *Proc, n int) int64 {
	var total int64
	m := p.RecvSrcTag(0, 1)
	for i := 0; i < n; i++ {
		total += m.Size
		p.FreeMessage(m)
	}
	return total
}
