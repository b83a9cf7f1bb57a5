// Command seemore-vet is the repository's invariant multichecker: it
// runs the custom static-analysis passes from internal/analysis
// (clockcheck, simdet, errsticky) over the tree and fails on any
// finding. The stock correctness analyzers (copylocks, unusedresult,
// lostcancel, ...) ride alongside in `make lint` via `go vet`;
// seemore-vet carries the checks no stock tool knows about — the
// clock-injection, sim-determinism and sticky-error contracts earlier
// PRs established.
//
// Usage:
//
//	seemore-vet [-list] [-analyzers clockcheck,simdet] [packages]
//
// Packages default to ./... relative to the current directory.
// Deliberate exceptions are annotated at the offending line:
//
//	//lint:allow <analyzer> <reason>
//
// or for whole files whose job is exempt (benchmark harnesses, the
// real-time network emulator):
//
//	//lint:file-allow <analyzer> <reason>
//
// The reason is mandatory; an allow without one suppresses nothing. An
// allow naming an analyzer that is not in the suite is a finding.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	names := flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := analysis.All()
	if *names != "" {
		var err error
		analyzers, err = analysis.ByName(strings.Split(*names, ","))
		if err != nil {
			fmt.Fprintln(os.Stderr, "seemore-vet:", err)
			os.Exit(2)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "seemore-vet:", err)
		os.Exit(2)
	}
	pkgs, err := analysis.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "seemore-vet:", err)
		os.Exit(2)
	}

	bad := false
	for _, pkg := range pkgs {
		diags, err := analysis.Run(pkg, analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "seemore-vet:", err)
			os.Exit(2)
		}
		for _, d := range diags {
			bad = true
			fmt.Println(d)
		}
	}
	if bad {
		os.Exit(1)
	}
}
