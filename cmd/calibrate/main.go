// Command calibrate runs the timer-instrumented version of a benchmark on
// a reference configuration and writes the measured task-time parameters
// (the w_i of the paper) as a table consumable by `mpisim -tasktimes`.
//
// Usage:
//
//	calibrate -app tomcatv -ranks 16 -inputs N=2048,ITER=10 -o tomcatv.w
//	mpisim -app tomcatv -mode am -ranks 64 -tasktimes tomcatv.w -inputs N=2048,ITER=100
//
// This is the left half of the paper's Figure 2: "MPI code with timers ->
// parallel system -> measured task times".
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"mpisim/internal/apps"
	"mpisim/internal/cliutil"
	"mpisim/internal/core"
	"mpisim/internal/machine"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "calibrate:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		appName   = flag.String("app", "tomcatv", "application: "+strings.Join(apps.Names(), ", "))
		ranks     = flag.Int("ranks", 16, "reference configuration rank count")
		inputsStr = flag.String("inputs", "", "program inputs as key=value,...")
		machName  = flag.String("machine", "ibmsp", "target machine: ibmsp, origin2000")
		outFile   = flag.String("o", "", "output file (default stdout)")
		strict    = flag.Bool("strict", false, "exit nonzero when any coefficient is calibrated from fewer than 3 samples or a task is never reached")
	)
	flag.Parse()

	spec, ok := apps.Registry()[*appName]
	if !ok {
		return fmt.Errorf("unknown app %q (have %s)", *appName, strings.Join(apps.Names(), ", "))
	}
	m, err := machine.ByName(*machName)
	if err != nil {
		return err
	}
	if err := spec.CheckRanks(*ranks); err != nil {
		return err
	}
	inputs := spec.Default(*ranks)
	over, err := cliutil.ParseInputs(*inputsStr)
	if err != nil {
		return err
	}
	inputs = cliutil.MergeInputs(inputs, over)

	r, err := core.NewRunner(spec.Build(), m)
	if err != nil {
		return err
	}
	tt, err := r.Calibrate(*ranks, inputs)
	if err != nil {
		return err
	}

	out := os.Stdout
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	fmt.Fprintf(out, "# w_i for %s on %s, calibrated at %d ranks, inputs %v\n",
		*appName, m.Name, *ranks, inputs)
	if err := cliutil.WriteTaskTimes(out, tt); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "calibrated %d task-time parameters\n", len(tt))

	// Per-coefficient fit quality: the spread of the per-sample unit
	// costs each w_i was averaged from. A large relative stddev means the
	// task's cost is not the linear function of its scaling units the
	// model assumes; few samples mean the mean itself is untrustworthy.
	stats := r.LastCalibration.Stats()
	fmt.Fprintln(os.Stderr, "fit residuals (per-sample unit cost):")
	fmt.Fprintf(os.Stderr, "  %-8s %12s %8s %12s %8s\n",
		"task", "w", "samples", "stddev", "rel")
	low := 0
	for _, s := range stats {
		note := ""
		if s.Samples < 3 {
			note = "  <3 samples"
			low++
		}
		fmt.Fprintf(os.Stderr, "  %-8s %12.6g %8d %12.6g %7.2f%%%s\n",
			s.ID, s.W, s.Samples, s.Stddev, 100*s.RelStddev, note)
	}
	if low > 0 {
		fmt.Fprintf(os.Stderr, "warning: %d coefficient(s) calibrated from fewer than 3 samples; "+
			"increase the reference iteration count or problem size\n", low)
	}
	// Tasks without a w_i: a prediction that reaches them with this table is refused.
	unreached := slices.DeleteFunc(slices.Clone(r.Compiled.TaskVars), func(t string) bool { _, ok := tt[t]; return ok })
	if len(unreached) > 0 {
		fmt.Fprintf(os.Stderr, "warning: task(s) %s never reached at this configuration\n", strings.Join(unreached, ", "))
	}
	if *strict && low+len(unreached) > 0 {
		return fmt.Errorf("%d under-sampled coefficient(s) and %d unreached task(s) with -strict", low, len(unreached))
	}
	return nil
}
