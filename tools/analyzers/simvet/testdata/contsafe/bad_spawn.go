package sim

// spawns starts a goroutine from a handler: worker-owned state is
// single-token and handlers must run to completion.
func spawns(p *Proc, m *Message) Cont {
	go func() {
		_ = p.rank
	}()
	p.WaitRecv(0, 0)
	return spawns
}
