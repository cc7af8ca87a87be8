// Command stgdump inspects the compiler's view of a benchmark: the
// program listing, its static task graph, the condensed graph with
// symbolic scaling functions, the program slice, and the emitted
// simplified and timer-instrumented programs.
//
// Usage:
//
//	stgdump -app tomcatv -what condensed
//	stgdump -app sweep3d -what simplified
//	stgdump -app figure1 -what all
//
// The special app "figure1" is the paper's running example (Figure 1a).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mpisim/internal/apps"
	"mpisim/internal/check"
	"mpisim/internal/cliutil"
	"mpisim/internal/compiler"
	"mpisim/internal/ir"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "stgdump:", err)
		os.Exit(1)
	}
}

// figure1 reconstructs the paper's Figure 1(a) example program.
func figure1() *ir.Program {
	myid := ir.S(ir.BuiltinMyID)
	n := ir.S("N")
	b := ir.S("b")
	return &ir.Program{
		Name:   "figure1",
		Params: []string{"N"},
		Arrays: []*ir.ArrayDecl{
			{Name: "A", Dims: []ir.Expr{n, ir.Add(ir.N(1), ir.CeilDiv(n, ir.S(ir.BuiltinP)))}, Elem: 8},
			{Name: "D", Dims: []ir.Expr{n, ir.Add(ir.N(1), ir.CeilDiv(n, ir.S(ir.BuiltinP)))}, Elem: 8},
		},
		Body: ir.Block(
			&ir.ReadInput{Var: "N"},
			ir.SetS("b", ir.CeilDiv(n, ir.S(ir.BuiltinP))),
			&ir.If{Cond: ir.GT(myid, ir.N(0)), Then: ir.Block(
				&ir.Send{Dest: ir.Sub(myid, ir.N(1)), Tag: 1, Array: "D",
					Section: ir.Sec(ir.N(2), ir.Sub(n, ir.N(1)), ir.N(1), ir.N(1))})},
			&ir.If{Cond: ir.LT(myid, ir.Sub(ir.S(ir.BuiltinP), ir.N(1))), Then: ir.Block(
				&ir.Recv{Src: ir.Add(myid, ir.N(1)), Tag: 1, Array: "D",
					Section: ir.Sec(ir.N(2), ir.Sub(n, ir.N(1)), ir.Add(b, ir.N(1)), ir.Add(b, ir.N(1)))})},
			ir.Loop("compute", "j",
				ir.MaxE(ir.N(2), ir.Add(ir.Mul(myid, b), ir.N(1))),
				ir.MinE(n, ir.Add(ir.Mul(myid, b), b)),
				ir.Loop("", "i", ir.N(2), ir.Sub(n, ir.N(1)),
					ir.SetA("A", ir.IX(ir.S("i"), ir.Sub(ir.S("j"), ir.Mul(myid, b))),
						ir.Mul(ir.Add(
							ir.At("D", ir.S("i"), ir.Sub(ir.S("j"), ir.Mul(myid, b))),
							ir.At("D", ir.S("i"), ir.Add(ir.Sub(ir.S("j"), ir.Mul(myid, b)), ir.N(1)))),
							ir.N(0.5))))),
		),
	}
}

func run() error {
	names := append([]string{"figure1"}, apps.Names()...)
	var (
		appName = flag.String("app", "figure1", "program: "+strings.Join(names, ", "))
		file    = flag.String("file", "", "load a program from a pseudocode file instead of -app")
		what    = flag.String("what", "all",
			"what to print: program, stg, condensed, dot, slice, simplified, timer, summary, all")
		checkFlag = flag.Bool("check", false,
			"statically verify the program first; findings go to stderr, errors abort the dump")
		ranks     = flag.Int("ranks", 4, "process count for -check")
		inputsStr = flag.String("inputs", "", "program inputs for -check as key=value,...")
	)
	flag.Parse()

	var prog *ir.Program
	var defaults map[string]float64
	if *file != "" {
		src, err := os.ReadFile(*file)
		if err != nil {
			return err
		}
		prog, err = ir.Parse(string(src))
		if err != nil {
			return err
		}
	} else if *appName == "figure1" {
		prog = figure1()
	} else {
		spec, ok := apps.Registry()[*appName]
		if !ok {
			return fmt.Errorf("unknown app %q (have %s)", *appName, strings.Join(names, ", "))
		}
		if err := spec.CheckRanks(*ranks); err != nil {
			return err
		}
		prog = spec.Build()
		defaults = spec.Default(*ranks)
	}

	if *checkFlag {
		over, err := cliutil.ParseInputs(*inputsStr)
		if err != nil {
			return err
		}
		cres, err := check.Run(prog, check.Options{
			Ranks: *ranks, Inputs: cliutil.MergeInputs(defaults, over),
		})
		if err != nil {
			return err
		}
		fmt.Fprint(os.Stderr, cres.Text(check.Info))
		if cres.HasErrors() {
			return fmt.Errorf("static verification found %d error(s); dump aborted", cres.Errors())
		}
	}

	res, err := compiler.Compile(prog)
	if err != nil {
		return err
	}
	section := func(title, body string) {
		fmt.Printf("==== %s ====\n%s\n", title, body)
	}
	all := *what == "all"
	shown := false
	if all || *what == "program" {
		section("source program", prog.String())
		shown = true
	}
	if all || *what == "stg" {
		section("static task graph", res.FullGraph.String())
		shown = true
	}
	if all || *what == "condensed" {
		section("condensed task graph", res.Graph.String())
		shown = true
	}
	if *what == "dot" {
		fmt.Print(res.Graph.DOT())
		shown = true
	}
	if all || *what == "slice" {
		var sb strings.Builder
		fmt.Fprintf(&sb, "relevant variables: %s\n", strings.Join(res.Slice.RelevantSorted(), ", "))
		fmt.Fprintf(&sb, "eliminated arrays: %v\n", res.Slice.EliminatedArrays(prog))
		fmt.Fprintf(&sb, "retained statements: %d\n", len(res.Slice.Retained))
		section("program slice", sb.String())
		shown = true
	}
	if all || *what == "simplified" {
		section("simplified MPI program (MPI-SIM-AM input)", res.Simplified.String())
		shown = true
	}
	if all || *what == "timer" {
		section("timer-instrumented program (w_i calibration)", res.Timer.String())
		shown = true
	}
	if all || *what == "summary" {
		section("compilation summary", res.Summary())
		shown = true
	}
	if !shown {
		return fmt.Errorf("unknown -what %q", *what)
	}
	return nil
}
