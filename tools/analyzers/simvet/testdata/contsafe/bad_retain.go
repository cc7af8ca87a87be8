package sim

type mailbox struct {
	last *Message
}

var (
	latest *Message
	box    mailbox
)

// retainClosure captures the message in the returned continuation; by
// the time it runs, the pool has recycled the message.
func retainClosure(p *Proc, m *Message) Cont {
	p.WaitRecv(0, 0)
	return func(p2 *Proc, m2 *Message) Cont {
		p2.SendTag(0, 0, m.Size)
		p2.FreeMessage(m2)
		p2.WaitRecv(0, 0)
		return retainGlobal
	}
}

// retainGlobal parks the message in a package-level variable.
func retainGlobal(p *Proc, m *Message) Cont {
	latest = m
	p.WaitRecv(0, 0)
	return retainGlobal
}

// retainField stores the message through a field of long-lived state.
func retainField(p *Proc, m *Message) Cont {
	box.last = m
	p.WaitRecv(0, 0)
	return retainField
}
