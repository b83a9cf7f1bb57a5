package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// spec is the part of BENCHMARK.json the comparison needs.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles checks report b against report a: for every untraced
// run in both, each end-to-end metric may be worse in b by at most its
// bound in BENCHMARK.json (read from the working directory), and no run
// may have failed operations. It returns the process exit code.
func compareFiles(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -compare takes two report files")
		return 2
	}
	var (
		sp   spec
		a, b report
	)
	for path, v := range map[string]any{"BENCHMARK.json": &sp, args[0]: &a, args[1]: &b} {
		if err := readJSON(path, v); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	names := make([]string, 0, len(a.Runs))
	for name := range a.Runs {
		if _, both := b.Runs[name]; both {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	code := 0
	for _, name := range names {
		ra, rb := a.Runs[name], b.Runs[name]
		if rb.Failed > 0 || !rb.Correct {
			fmt.Printf("%-14s FAILED   %d of %d operations failed\n", name, rb.Failed, rb.Attempted)
			code = 1
		}
		for _, m := range sp.EndToEnd {
			va, ok := ra.Metrics[m.Name]
			if !ok {
				continue // a traced run: layer metrics carry no bound
			}
			vb := rb.Metrics[m.Name]
			worse := per(vb.Value-va.Value, va.Value)
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict = "REGRESSED"
				code = 1
			}
			fmt.Printf("%-14s %-15s %12.4f -> %12.4f %s  %+6.1f%% worse (bound %.0f%%)  %s\n",
				name, m.Name, va.Value, vb.Value, va.Unit, 100*worse, 100*m.Bound, verdict)
		}
	}
	return code
}
