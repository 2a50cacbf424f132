package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// steady is the steadiness self-check: it runs the benchmark o.steady
// times on one seed, untraced and traced, each in a fresh process, and
// prints every metric's median, quartiles and spread. It fails when an
// emulated metric, or on storm and drive an exact count, differs between
// runs, or when any run fails.
func steady(o options) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	values := map[string][]float64{}
	var env map[string]any
	failed := false
	for i := 0; i < o.steady; i++ {
		for _, trace := range []int{0, 1} {
			path := filepath.Join(filepath.Dir(o.artifact),
				fmt.Sprintf("%s-seed%d-steady%d-trace%d.json", o.workload, o.seed, i, trace))
			cmd := exec.Command(self, "--workload", o.workload, "--seed", strconv.FormatInt(o.seed, 10),
				"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace),
				"--artifact", path)
			cmd.Stderr = os.Stderr
			if out, err := cmd.Output(); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: run %d trace %d: %v\n%s", i, trace, err, out)
				failed = true
				continue
			}
			r, err := readArtifact(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				failed = true
				continue
			}
			env = r.Env
			defs := endToEnd
			if trace == 1 {
				defs = perLayer
			}
			for _, d := range defs {
				values[d.name] = append(values[d.name], r.Metrics[d.name])
			}
		}
	}
	exact := map[string]bool{}
	for _, d := range perLayer {
		if strings.HasPrefix(d.name, "emu_") {
			exact[d.name] = true
		}
	}
	if o.workload == "storm" || o.workload == "drive" {
		for _, n := range exactCounts {
			exact[n] = true
		}
	}
	fmt.Printf("steadiness workload=%s seed=%d runs=%d seconds=%g env=%v\n", o.workload, o.seed, o.steady, o.seconds, env)
	fmt.Printf("  %-30s %14s %14s %14s %8s\n", "metric", "q1", "median", "q3", "spread")
	var unsteady []string
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			v := values[d.name]
			q1, q2, q3 := quartiles(v)
			mark := ""
			if exact[d.name] && slicesDiffer(v) {
				mark = "  NOT EXACT"
				unsteady = append(unsteady, d.name)
			}
			fmt.Printf("  %-30s %14.6g %14.6g %14.6g %8.4f %s%s\n", d.name, q1, q2, q3, spread(v), d.unit, mark)
		}
	}
	if len(unsteady) > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: values that must repeat exactly differ between runs:", strings.Join(unsteady, ", "))
		failed = true
	}
	if failed {
		return 1
	}
	return 0
}

func slicesDiffer(v []float64) bool {
	for _, x := range v {
		if x != v[0] {
			return true
		}
	}
	return false
}

func readArtifact(path string) (*result, error) {
	b, err := os.ReadFile(filepath.Clean(path))
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("artifact %s: %w", path, err)
	}
	return &r, nil
}
