package sim

// consumeLast reads everything it needs before the transfer.
func consumeLast(p *Proc) (int64, interface{}) {
	m := p.RecvSrcTag(0, 1)
	size, data := m.Size, m.Payload
	p.FreeMessage(m)
	return size, data
}

// reassigned restores ownership before the next read.
func reassigned(p *Proc) int64 {
	m := p.RecvSrcTag(0, 1)
	p.FreeMessage(m)
	m = p.RecvSrcTag(0, 2)
	total := m.Size
	p.FreeMessage(m)
	return total
}

// loopFresh re-receives at the head of each iteration: the definition
// kills the previous iteration's consumption on the back-edge path.
func loopFresh(p *Proc, n int) int64 {
	var total int64
	for i := 0; i < n; i++ {
		m := p.RecvSrcTag(0, 1)
		total += m.Size
		p.FreeMessage(m)
	}
	return total
}

type note struct {
	n int
}

// otherTypes passes a non-message pointer: not ours to police.
func otherTypes(p *Proc, m *note) int {
	p.Send(1, m, 0)
	return m.n
}

// readBeforeForward reads, then forwards, never after.
func readBeforeForward(p *Proc) int64 {
	m := p.RecvSrcTag(0, 1)
	size := m.Size
	p.Forward(m, 1, 0)
	return size
}
