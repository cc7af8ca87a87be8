package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"mpisim/internal/svc"
)

// The svc_mix what-if space: program x ranks x mode x topology x
// placement. Every seed submits the same 42 points in the same order, six
// per program: under its first topology x placement variant an AM point at
// every rank count and a DE point at the smallest, under its second an AM
// point at the two smaller rank counts (the points of a variant share one
// calibration). The seed picks the target machine of them all, as it does
// for the CLI workloads: the simulated times change, the host work does
// not. A pass of the mix is about three and a half processor-seconds,
// which lets a run hold several.
var (
	mixApps       = []string{"sweep3d", "tomcatv", "nassp", "sample"}
	mixRanks      = []int{16, 64, 256}
	mixTopologies = []string{"flat", "torus:dims=4x4", "fattree:k=4"}
	mixPlacements = []string{"block", "roundrobin"}
	// inlineInputs are the inputs of examples/programs/*.ir (each reads a
	// subset).
	inlineInputs = map[string]float64{"N": 512, "STEPS": 4}
)

const (
	// deMaxRanks keeps direct execution to the smallest rank count: a
	// 64-rank DE job costs as much as eight 16-rank AM jobs, and the mix is
	// meant to be many cheap points.
	deMaxRanks     = 16
	mixMaxRanks    = 65536
	inlineProgGlob = "examples/programs/*.ir"
)

// program is one simulated program of the mix: a registered app, or the
// text of an inline IR program.
type program struct {
	name string // app name or file base name
	text string // inline program text; "" for an app
}

// loadPrograms lists the mix's programs: the apps, then the inline
// example programs in file-name order.
func loadPrograms() ([]program, error) {
	var ps []program
	for _, a := range mixApps {
		ps = append(ps, program{name: a})
	}
	files, err := filepath.Glob(inlineProgGlob)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no inline programs match %s (run from the repository root)", inlineProgGlob)
	}
	sort.Strings(files)
	for _, f := range files {
		text, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		ps = append(ps, program{name: filepath.Base(f), text: string(text)})
	}
	return ps, nil
}

// point is one what-if configuration.
type point struct {
	prog             int // index into the program list
	ranks            int
	mode             string
	topology, placed string
}

// spec renders the point as the job spec a client posts.
func (p point) spec(progs []program, machine string) *svc.JobSpec {
	s := &svc.JobSpec{Mode: p.mode, Ranks: p.ranks, Machine: machine, Topology: p.topology, Placement: p.placed}
	if pr := progs[p.prog]; pr.text == "" {
		s.App = pr.name
	} else {
		s.Program = pr.text
		s.Inputs = inlineInputs
	}
	s.Normalize()
	return s
}

// submission is one POST /jobs of the mix.
type submission struct {
	point point
	body  []byte
	// index identifies the distinct spec; again marks the second time it
	// is submitted, which the daemon must answer from its artifact cache
	// with the first answer's bytes.
	index int
	again bool
}

// blockLen is the mix's unit of work: two new specs, then the first one
// again. The repeat's first answer was stored a whole job earlier (the
// daemon indexes an artifact just after it shows the job done), so
// exactly 1/3 of the submissions are artifact-cache hits.
const blockLen = 3

// mixOrderSeed fixes the order the points are submitted in.
const mixOrderSeed = 1

// genMix returns the submissions against a target machine as blocks.
// Under smoke only the first three blocks are kept.
func genMix(machine string, progs []program, smoke bool) ([][blockLen]submission, error) {
	var variants []point
	for _, t := range mixTopologies {
		for _, pl := range mixPlacements {
			variants = append(variants, point{topology: t, placed: pl})
		}
	}
	var points []point
	for pi := range progs {
		// Program pi takes variants pi and pi+3 (mod 6): between them the
		// programs cover every topology x placement.
		for k, vi := range []int{pi % len(variants), (pi + len(variants)/2) % len(variants)} {
			p := variants[vi]
			p.prog = pi
			for _, ranks := range mixRanks[:len(mixRanks)-k] {
				p.ranks, p.mode = ranks, "am"
				points = append(points, p)
				if k == 0 && ranks <= deMaxRanks {
					p.mode = "de"
					points = append(points, p)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(mixOrderSeed))
	rng.Shuffle(len(points), func(i, j int) { points[i], points[j] = points[j], points[i] })
	if len(points)%2 != 0 {
		return nil, fmt.Errorf("the mix has %d distinct specs; blocks need an even number", len(points))
	}

	var blocks [][blockLen]submission
	for i := 0; i < len(points); i += 2 {
		var b [blockLen]submission
		for k := 0; k < 2; k++ {
			spec := points[i+k].spec(progs, machine)
			if err := spec.Validate(mixMaxRanks); err != nil {
				return nil, fmt.Errorf("generated spec %+v: %w", points[i+k], err)
			}
			body, err := json.Marshal(spec)
			if err != nil {
				return nil, err
			}
			b[k] = submission{point: points[i+k], body: body, index: i + k}
		}
		b[2] = b[0]
		b[2].again = true
		blocks = append(blocks, b)
	}
	if smoke {
		blocks = blocks[:3]
	}
	return blocks, nil
}
