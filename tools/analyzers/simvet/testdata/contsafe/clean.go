package sim

// pingpong arms exactly one wait on each non-nil return path and frees
// the message before returning.
func pingpong(p *Proc, m *Message) Cont {
	if m == nil {
		return nil
	}
	size := m.Size
	from := m.From
	p.FreeMessage(m)
	if size > 0 {
		p.SendTag(from, 0, size)
		p.WaitRecv(0, 0)
		return pingpong
	}
	return nil
}

// dispatch arms in every switch arm, including the default.
func dispatch(p *Proc, m *Message) Cont {
	switch m.Tag {
	case 0:
		p.WaitRecv(0, 0)
	case 1:
		p.WaitRecv(m.From, 1)
	default:
		p.WaitSleep(1)
	}
	return dispatch
}

// makeHandler is not itself a handler (wrong arity), so its return is
// not judged; the closure it builds is, and is clean.
func makeHandler(tag int) Cont {
	return func(p *Proc, m *Message) Cont {
		p.FreeMessage(m)
		p.WaitRecv(0, tag)
		return dispatch
	}
}

// stopper terminates without arming: a plain nil return needs no wait.
func stopper(p *Proc, m *Message) Cont {
	p.FreeMessage(m)
	return nil
}

// rankDriver is the shape of the mpi layer's rank handler: one handler
// per process, allocated once, that resumes the operation a message was
// awaited for, runs the rank's program until it ends or an operation it
// started reports the (src, tag) it wants, and arms exactly that.
type rankDriver struct {
	self     Cont
	src, tag int
	waiting  bool
	step     func() (done bool)
	resume   func(m *Message)
}

func (d *rankDriver) handle(p *Proc, m *Message) (next Cont) {
	defer func() {
		if recover() != nil {
			next = nil
		}
	}()
	if m != nil {
		d.resume(m)
	}
	for !d.waiting {
		if d.step() {
			return nil
		}
	}
	p.WaitRecv(d.src, d.tag)
	return d.self
}
