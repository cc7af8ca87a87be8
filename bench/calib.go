package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"time"
)

// The machine this benchmark runs on is a few virtual processors of a
// shared host, and its speed for the programs under test moves by tens of
// percent for minutes at a time (memory-bound Go code slows, arithmetic
// does not; see baseline/NOTE.md). So every timed piece of work is
// followed by a calibration — a fixed child process doing the kind of work
// the programs do — and its wall is divided by how much slower than
// nominal the calibrations around it ran. The end-to-end times are thus in
// seconds of this machine at its quiet speed; the raw seconds are printed
// beside them.

// calibNominal is the wall of one calibration on the reference machine
// (baseline/NOTE.md) in its quiet state. It only fixes the unit: with it
// a scaled time equals the raw one on a quiet machine.
const calibNominal = 0.25

type calibNode struct {
	next *calibNode
	v    [3]uint64
}

var calibSink uint64

// calibrateMain is the body of the calibration child (`bench -calibrate`):
// a heap of small linked objects built from nothing and a map over a
// quarter of them, then garbage for the collector — a fixed amount of the
// kind of work the programs under test do. (Random reads across the heap
// were tried as a third part and left out: they slow three times as much
// as the programs do when the machine slows.) Changing it changes every
// scaled time: re-measure calibNominal and the baseline.
func calibrateMain() {
	const nodes = 1 << 20 // 32 MB
	rng := rand.New(rand.NewSource(1))
	index := make(map[uint64]*calibNode)
	var head *calibNode
	for i := 0; i < nodes; i++ {
		head = &calibNode{next: head, v: [3]uint64{uint64(i)}}
		if i%4 == 0 {
			index[rng.Uint64()] = head
		}
	}
	s := uint64(len(index))
	for j := 0; j < 8; j++ {
		var garbage *calibNode
		for i := 0; i < nodes/4; i++ {
			garbage = &calibNode{next: garbage, v: [3]uint64{uint64(i)}}
		}
		s += garbage.v[0]
	}
	calibSink = s
}

// calibrate runs the calibration child and returns its wall, fork to exit,
// the way an op is timed.
func calibrate() (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "-calibrate")
	cmd.Env = childEnv()
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("calibration child: %w", err)
	}
	return time.Since(start).Seconds(), nil
}

// scaler scales walls to the machine's nominal speed by the calibrations
// before and after the work they timed.
type scaler struct {
	off    bool      // under -smoke nothing is scaled: every factor is 1
	last   float64   // the latest calibration's wall
	calibs []float64 // every calibration's wall
	err    error     // the first calibration failure; factors are 1 from there
}

func newScaler(e env) *scaler {
	s := &scaler{off: e.smoke}
	if !s.off {
		s.last, s.err = calibrate()
		s.calibs = append(s.calibs, s.last)
	}
	return s
}

// factor calibrates and returns what to multiply by a wall measured since
// the previous calibration: nominal over the mean of the two.
func (s *scaler) factor() float64 {
	if s.off || s.err != nil {
		return 1
	}
	before := s.last
	if s.last, s.err = calibrate(); s.err != nil {
		return 1
	}
	s.calibs = append(s.calibs, s.last)
	return calibNominal / ((before + s.last) / 2)
}
