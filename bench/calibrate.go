package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the calibration reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

// readBenchmarkFile loads BENCHMARK.json from dir or one of its parents.
func readBenchmarkFile(dir string) (*benchmarkFile, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var bf benchmarkFile
			if err := json.Unmarshal(data, &bf); err != nil {
				return nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return &bf, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

// runOnce executes this binary on one workload in a fresh process — the way
// the driver does — and parses the result line.
func runOnce(workload string, seed int64, seconds float64) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) != "" {
			last = sc.Text()
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	return &res, nil
}

// worse reports by what share of a the median b is worse than a, given the
// metric's direction (negative = better).
func worse(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// calibrate runs every workload `repeat` times per set, each run with its
// own seed, and prints per end-to-end metric the set medians, the single-run
// spread (IQR / median) of each set and a verdict against the bound in
// BENCHMARK.json: the spread of every metric but setup_s must stay within
// its bound, and no later set's median may be worse than the first's by
// more than the bound. It returns the process exit code.
func calibrate(repeat, sets int, seed int64, seconds float64) int {
	bf, err := readBenchmarkFile(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	exit := 0
	for _, w := range workloadOrder {
		// values[set][metric] = one value per run
		values := make([]map[string][]float64, sets)
		for s := range values {
			values[s] = map[string][]float64{}
			for i := 0; i < repeat; i++ {
				res, err := runOnce(w, seed+int64(s*repeat+i), seconds)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				if !res.Correct {
					fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed\n", w, res.Failed, res.Attempted)
					exit = 1
				}
				for name, m := range res.Metrics {
					values[s][name] = append(values[s][name], m.Value)
				}
			}
		}
		fmt.Printf("%s (%d sets x %d runs, %g s)\n", w, sets, repeat, seconds)
		fmt.Printf("  %-12s %-5s %s %10s  %s  %6s  %s\n", "metric", "unit", setHeader("median", 12, sets), "drift", setHeader("iqr", 7, sets), "bound", "verdict")
		for _, d := range bf.EndToEnd {
			var meds, spreads []string
			verdict := "pass"
			drift := 0.0
			for s := range values {
				xs := values[s][d.Name]
				meds = append(meds, fmt.Sprintf("%12.5g", median(xs)))
				spreads = append(spreads, fmt.Sprintf("%6.2f%%", 100*spread(xs)))
				if d.Name != "setup_s" && spread(xs) > d.Bound {
					verdict = "FAIL spread"
				}
				if wd := worse(median(values[0][d.Name]), median(xs), d.Better); wd > drift {
					drift = wd
				}
			}
			if drift > d.Bound {
				verdict = "FAIL drift"
			}
			if verdict != "pass" {
				exit = 1
			}
			fmt.Printf("  %-12s %-5s %s %9.2f%%  %s  %5.0f%%  %s\n", d.Name, d.Unit,
				strings.Join(meds, " "), 100*drift, strings.Join(spreads, " "), 100*d.Bound, verdict)
		}
	}
	return exit
}

// setHeader renders one right-aligned column title per set.
func setHeader(label string, width, sets int) string {
	hs := make([]string, sets)
	for s := range hs {
		hs[s] = fmt.Sprintf("%*s", width, fmt.Sprintf("%s %d", label, s+1))
	}
	return strings.Join(hs, " ")
}
