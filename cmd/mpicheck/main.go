// Command mpicheck statically verifies a benchmark or pseudocode program
// before it is ever simulated: it matches sends to receives across the
// resolved process sets, searches the communication traces for deadlock,
// verifies collective consistency across ranks, proves section and
// buffer bounds, and audits the compiler's program slice.
//
// Usage:
//
//	mpicheck -app tomcatv -ranks 16
//	mpicheck -file prog.ir -ranks 8 -inputs N=1024
//	mpicheck -all -json
//	mpicheck -list
//	mpicheck -app sweep3d -ranks 16 -topology fattree:k=4 -placement block
//	mpicheck -app sweep3d -ranks 16 -netjson examples/networks/dumbbell.json
//
// Exit status: 0 when every checked program is free of error-severity
// findings (warnings allowed), 1 when errors were found, 2 on usage or
// input problems.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mpisim/internal/apps"
	"mpisim/internal/check"
	"mpisim/internal/cliutil"
	"mpisim/internal/ir"
	"mpisim/internal/machine"
)

func main() {
	os.Exit(run())
}

// target is one program to verify with its input bindings.
type target struct {
	prog   *ir.Program
	inputs map[string]float64
}

func run() int {
	var (
		appName   = flag.String("app", "", "application to check: "+strings.Join(apps.Names(), ", "))
		file      = flag.String("file", "", "check a program from a pseudocode file instead of -app")
		all       = flag.Bool("all", false, "check every registered application")
		ranks     = flag.Int("ranks", 4, "process count to resolve the symbolic structure at")
		inputsStr = flag.String("inputs", "", "program inputs as key=value,... (defaults per app)")
		passesStr = flag.String("passes", "", "comma-separated pass subset (default: all)")
		jsonOut   = flag.Bool("json", false, "emit machine-readable JSON")
		minStr    = flag.String("min", "info", "lowest severity to print: info, warning, error")
		maxOps    = flag.Int("max-ops", 0, "per-rank abstract-execution budget (0 = default)")
		list      = flag.Bool("list", false, "list the registered passes and exit")
		machName  = flag.String("machine", "", "machine model for the netconfig pass: "+strings.Join(machine.Names(), ", ")+" (empty = skip)")
		topology  = flag.String("topology", "", "interconnect topology to validate (implies -machine ibmsp if unset)")
		placement = flag.String("placement", "", "rank placement to validate: block, roundrobin, random:SEED")
		netJSON   = flag.String("netjson", "", "arbitrary-graph topology config file (shorthand for -topology graph:PATH)")
	)
	flag.Parse()

	if *list {
		for _, p := range check.Passes() {
			fmt.Printf("%-10s %s\n", p.Name, p.Desc)
		}
		return 0
	}
	var min check.Severity
	switch *minStr {
	case "info":
		min = check.Info
	case "warning":
		min = check.Warning
	case "error":
		min = check.Error
	default:
		return usage("unknown -min %q (want info, warning, error)", *minStr)
	}
	// check.Run rejects unknown pass names.
	var passes []string
	if *passesStr != "" {
		for _, name := range strings.Split(*passesStr, ",") {
			passes = append(passes, strings.TrimSpace(name))
		}
	}
	over, err := cliutil.ParseInputs(*inputsStr)
	if err != nil {
		return usage("%v", err)
	}
	if *netJSON != "" {
		if *topology != "" {
			return usage("-netjson and -topology are mutually exclusive")
		}
		*topology = "graph:" + *netJSON
	}
	if *machName == "" && (*topology != "" || *placement != "") {
		*machName = "ibmsp"
	}
	var mach *machine.Model
	if *machName != "" {
		mach, err = machine.ByName(*machName)
		if err != nil {
			return usage("%v", err)
		}
		if *topology != "" {
			mach.Topology = *topology
		}
		if *placement != "" {
			mach.Placement = *placement
		}
	}

	targets, rc := collectTargets(*appName, *file, *all, *ranks, over)
	if rc != 0 {
		return rc
	}

	exit := 0
	for _, tg := range targets {
		res, err := check.Run(tg.prog, check.Options{
			Ranks: *ranks, Inputs: tg.inputs, Passes: passes, MaxOps: *maxOps,
			Machine: mach,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "mpicheck:", err)
			return 2
		}
		if *jsonOut {
			raw, err := res.JSON()
			if err != nil {
				fmt.Fprintln(os.Stderr, "mpicheck:", err)
				return 2
			}
			fmt.Println(string(raw))
		} else {
			fmt.Print(res.Text(min))
			fmt.Printf("%s: %d error(s), %d warning(s) at %d ranks in %d classes\n",
				res.Program, res.Errors(), res.Warnings(), res.Ranks, res.Classes)
		}
		if res.HasErrors() {
			exit = 1
		}
	}
	return exit
}

// collectTargets resolves the -app/-file/-all selection into programs
// with bound inputs, reporting usage errors itself.
func collectTargets(appName, file string, all bool, ranks int, over map[string]float64) ([]target, int) {
	switch {
	case all:
		if appName != "" || file != "" {
			return nil, usage("-all excludes -app and -file")
		}
		var out []target
		for _, name := range apps.Names() {
			spec := apps.Registry()[name]
			if err := spec.CheckRanks(ranks); err != nil {
				fmt.Fprintf(os.Stderr, "mpicheck: skipping %s: %v\n", name, err)
				continue
			}
			out = append(out, target{spec.Build(), cliutil.MergeInputs(spec.Default(ranks), over)})
		}
		return out, 0
	case file != "":
		if appName != "" {
			return nil, usage("-file excludes -app")
		}
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, usage("%v", err)
		}
		prog, err := ir.Parse(string(src))
		if err != nil {
			return nil, usage("%v", err)
		}
		return []target{{prog, over}}, 0
	case appName != "":
		spec, ok := apps.Registry()[appName]
		if !ok {
			return nil, usage("unknown app %q (have %s)", appName, strings.Join(apps.Names(), ", "))
		}
		if err := spec.CheckRanks(ranks); err != nil {
			// An input problem, not a misuse of the flags: no flag help.
			fmt.Fprintf(os.Stderr, "mpicheck: %s: %v\n", appName, err)
			return nil, 2
		}
		return []target{{spec.Build(), cliutil.MergeInputs(spec.Default(ranks), over)}}, 0
	}
	return nil, usage("one of -app, -file, -all is required")
}

// usage prints a message plus flag help and returns exit code 2.
func usage(format string, args ...interface{}) int {
	fmt.Fprintf(os.Stderr, "mpicheck: "+format+"\n", args...)
	fmt.Fprintln(os.Stderr, "usage of mpicheck:")
	flag.PrintDefaults()
	return 2
}
