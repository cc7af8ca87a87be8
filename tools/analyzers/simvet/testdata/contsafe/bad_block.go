package sim

// blockingSleep blocks the event loop for virtual time.
func blockingSleep(p *Proc, m *Message) Cont {
	p.Sleep(5)
	return nil
}

// blockingSrcTag parks the worker goroutine: handlers run inline on the
// event loop and must arm a wait instead.
func blockingSrcTag(p *Proc, m *Message) Cont {
	reply := p.RecvSrcTag(0, 1)
	p.FreeMessage(reply)
	p.WaitRecv(0, 0)
	return blockingSrcTag
}
