package sim

// noArm returns a continuation without arming any wait: the process
// would never be scheduled again.
func noArm(p *Proc, m *Message) Cont {
	p.FreeMessage(m)
	return noArm
}

// twoArms arms twice before returning; the kernel allows one pending
// wait per process.
func twoArms(p *Proc, m *Message) Cont {
	p.WaitRecv(0, 0)
	p.WaitSleep(10)
	return twoArms
}

// maybeArm arms on one branch only: the else path returns an armless
// continuation.
func maybeArm(p *Proc, m *Message) Cont {
	if m.Size > 0 {
		p.WaitRecv(0, 0)
	}
	return maybeArm
}

// armThenNil arms a wait and then terminates; the armed wait fires into
// a dead process.
func armThenNil(p *Proc, m *Message) Cont {
	p.WaitSleep(5)
	return nil
}

// armer arms on behalf of a handler.
type armer struct{ self Cont }

func (a *armer) arm(p *Proc) { p.WaitRecv(0, 0) }

// armThroughCallee leaves the arming to a helper: the handler itself
// shows no wait on its return path, and the next edit to the helper can
// drop or double the arm unseen. A handler arms where it returns.
func (a *armer) armThroughCallee(p *Proc, m *Message) Cont {
	if m == nil {
		return nil
	}
	a.arm(p)
	return a.self
}
