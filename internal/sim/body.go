package sim

import "fmt"

// Blocking bodies, for tests and the benchmark harness: Spawn puts an
// arbitrary blocking function behind the one scheduler there is. The
// function runs on a goroutine of its own, and its process is a single
// handler that hands each wake to that goroutine and waits to hear what
// the body does next — block in a receive or a sleep (the handler arms
// the wait and returns itself), return, or panic. Exactly one of the two
// goroutines runs at a time, so the body sees what a handler chain making
// the same kernel calls would see, event for event (cont.go).

// bodyStep is what a body does next. The zero arm says it ended, having
// panicked with the given value if that is not nil.
type bodyStep struct {
	arm      armKind
	src, tag int
	until    Time
	panicked interface{}
}

type body struct {
	fn     func(*Proc)
	handle Cont          // the handler, cached so that returning it allocates nothing
	wake   chan *Message // handler to body: start and sleep wake (nil) or the matched message; closed to unwind
	step   chan bodyStep // body to handler, one for each wake
}

// Spawn registers a process that runs the given blocking body. Like
// SpawnCont it must precede Run; the process id equals the spawn order.
func (k *Kernel) Spawn(name string, fn func(*Proc)) *Proc {
	b := &body{fn: fn, wake: make(chan *Message), step: make(chan bodyStep)}
	b.handle = func(p *Proc, m *Message) Cont {
		// The body's code is not handler code: Wait* called from it must
		// still panic "outside a continuation handler".
		p.slot.inHandler = false
		b.wake <- m
		st := <-b.step
		p.slot.inHandler = true
		switch st.arm {
		case armRecv:
			p.WaitRecv(st.src, st.tag)
		case armSleep:
			p.WaitSleep(st.until)
		default:
			if st.panicked != nil {
				// Raised again here, where invokeCont records a failure and
				// lets errTeardown (CheckAbort) pass as torn down.
				panic(st.panicked)
			}
			return nil
		}
		return b.handle
	}
	p := k.SpawnCont(name, b.handle)
	p.body = b
	return p
}

// run is the body's goroutine, started by Kernel.Run. Its first wake is
// the start event; a run that ends before that closes the channel.
func (b *body) run(p *Proc) {
	defer func() { b.step <- bodyStep{panicked: recover()} }()
	if _, ok := <-b.wake; ok {
		b.fn(p)
	}
}

// unwind ends a body that the run has left blocked or never started, and
// returns when its deferred calls have run: one of them may block again,
// or fail.
func (b *body) unwind(p *Proc) {
	close(b.wake)
	st := <-b.step
	for ; st.arm != armNone; st = <-b.step {
	}
	if st.panicked != nil && st.panicked != errTeardown {
		p.worker.contPanic(p, st.panicked)
	}
}

// block tells the handler what the body waits for and parks the body's
// goroutine until the kernel has satisfied the wait.
func (p *Proc) block(what string, st bodyStep) *Message {
	if p.body == nil {
		panic(fmt.Sprintf("sim: %s inside a continuation handler on proc %d (arm WaitRecv/WaitSleep instead)", what, p.id))
	}
	p.body.step <- st
	m, ok := <-p.body.wake
	if !ok {
		panic(errTeardown) // unwind: the body is torn down, not failed
	}
	return m
}

// RecvSrcTag blocks the body until a message from src with the given tag
// (each an exact value or Any) has arrived and returns it, as WaitRecv
// hands it to a handler.
func (p *Proc) RecvSrcTag(src, tag int) *Message {
	return p.block("RecvSrcTag", bodyStep{arm: armRecv, src: src, tag: tag})
}

// Sleep suspends the body until the given absolute simulated time, as
// WaitSleep does a handler chain. Sleeping into the past is a no-op; a
// NaN time is refused.
func (p *Proc) Sleep(until Time) {
	if until != until {
		panic(fmt.Sprintf("sim: Sleep(NaN) on proc %d", p.id))
	}
	if until > p.slot.now {
		p.block("Sleep", bodyStep{arm: armSleep, until: until})
	}
}
