package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// contract is the part of BENCHMARK.json the suite modes read.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadContract finds BENCHMARK.json in the working directory or its
// parent (the benchmark runs from either) and returns it with the
// repository root.
func loadContract() (contract, string, error) {
	var c contract
	for _, root := range []string{".", ".."} {
		body, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
		if err != nil {
			continue
		}
		if err := json.Unmarshal(body, &c); err != nil {
			return c, root, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return c, root, nil
	}
	return c, "", fmt.Errorf("BENCHMARK.json not found in . or ..")
}

// runChild runs one workload in a fresh process of this binary, so no
// heap, cache or goroutine of an earlier workload reaches the next, and
// parses the result line.
func runChild(o options, workload string, seed int64, seconds int) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0", "-out", o.out)
	if o.quick {
		cmd.Args = append(cmd.Args, "-quick")
	}
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%s seed %d: incorrect outputs (%d of %d failed)", workload, seed, res.Failed, res.Attempted)
	}
	return &res, nil
}

// runSuite runs every workload once, in the listed order on even passes
// and reversed on odd ones, and returns workload → metric → value.
func runSuite(o options, c contract, pass int, seed int64) (map[string]map[string]float64, error) {
	out := map[string]map[string]float64{}
	for i := range c.Workloads {
		w := c.Workloads[i].Name
		if pass%2 == 1 {
			w = c.Workloads[len(c.Workloads)-1-i].Name
		}
		fmt.Fprintf(os.Stderr, "pass %d: %s seed %d\n", pass+1, w, seed)
		res, err := runChild(o, w, seed, c.RunSeconds)
		if err != nil {
			return nil, err
		}
		out[w] = map[string]float64{}
		for name, m := range res.Metrics {
			out[w][name] = m.Value
		}
	}
	return out, nil
}

// selfcheckRuns is how many runs of each workload stand behind each of
// the two medians -selfcheck compares.
const selfcheckRuns = 3

// runSelfcheck runs the suite twice on the same binary and seed — two
// sets of selfcheckRuns passes, interleaved so that both sets see the
// same spells of the machine, the workload order alternating — and
// fails when any (metric, workload) pair of medians differs by more than
// the metric's bound.
func runSelfcheck(o options) error {
	c, _, err := loadContract()
	if err != nil {
		return err
	}
	sets := [2]map[string]map[string][]float64{{}, {}}
	for p := 0; p < 2*selfcheckRuns; p++ {
		suite, err := runSuite(o, c, p, o.seed)
		if err != nil {
			return err
		}
		collect(sets[p%2], suite)
	}
	bad := 0
	for _, w := range c.Workloads {
		for _, m := range c.EndToEnd {
			a, b := medianFloat(sets[0][w.Name][m.Name]), medianFloat(sets[1][w.Name][m.Name])
			diff := math.Abs(a-b) / math.Min(a, b)
			verdict := "ok"
			if diff > m.Bound || math.IsNaN(diff) {
				verdict = "DIFFERS"
				bad++
			}
			fmt.Printf("%-20s %-22s %14.4f %14.4f  %6.2f%% (bound %4.1f%%) %s\n", w.Name, m.Name, a, b, 100*diff, 100*m.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d of %d (metric, workload) pairs differ by more than their bound", bad, len(c.Workloads)*len(c.EndToEnd))
	}
	fmt.Println("selfcheck: every (metric, workload) pair agrees within its bound")
	return nil
}

// collect appends one suite pass to workload → metric → values.
func collect(values map[string]map[string][]float64, suite map[string]map[string]float64) {
	for w, ms := range suite {
		if values[w] == nil {
			values[w] = map[string][]float64{}
		}
		for name, v := range ms {
			values[w][name] = append(values[w][name], v)
		}
	}
}

// calibrationRow is one (workload, metric) pair of calibration.json.
type calibrationRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	// IQRShare is the distance between the first and third quartile
	// (Python statistics.quantiles, n=4) as a share of the median —
	// the spread the driver holds against the bound. RangeShare is
	// (max−min)/median.
	IQRShare   float64 `json:"iqr_share"`
	RangeShare float64 `json:"range_share"`
	Bound      float64 `json:"bound"`
	// Steady says IQRShare is below a third of the bound.
	Steady bool `json:"steady"`
}

// runCalibration runs the suite n times, each with another seed, and
// writes the table that justifies the bounds to calibration.json.
func runCalibration(o options, n int) error {
	c, root, err := loadContract()
	if err != nil {
		return err
	}
	values := map[string]map[string][]float64{}
	for p := 0; p < n; p++ {
		suite, err := runSuite(o, c, p, o.seed+int64(p))
		if err != nil {
			return err
		}
		collect(values, suite)
	}
	doc := struct {
		Host       hostFacts        `json:"host"`
		RunSeconds int              `json:"run_seconds"`
		Runs       int              `json:"runs_per_workload"`
		FirstSeed  int64            `json:"first_seed"`
		Rows       []calibrationRow `json:"rows"`
	}{Host: thisHost(), RunSeconds: c.RunSeconds, Runs: n, FirstSeed: o.seed}
	unsteady := 0
	for _, w := range c.Workloads {
		for _, m := range c.EndToEnd {
			v := values[w.Name][m.Name]
			s := append([]float64(nil), v...)
			sort.Float64s(s)
			med := medianFloat(s)
			q1, q3 := quartiles(s)
			row := calibrationRow{Workload: w.Name, Metric: m.Name, Values: v, Median: med,
				IQRShare: (q3 - q1) / med, RangeShare: (s[len(s)-1] - s[0]) / med, Bound: m.Bound}
			row.Steady = row.IQRShare < m.Bound/3
			if !row.Steady {
				unsteady++
			}
			fmt.Printf("%-20s %-22s median %12.4f  iqr %5.2f%%  range %5.2f%%  bound %4.1f%%  steady=%v\n",
				w.Name, m.Name, med, 100*row.IQRShare, 100*row.RangeShare, 100*m.Bound, row.Steady)
			doc.Rows = append(doc.Rows, row)
		}
	}
	body, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(root, "benchmark", "calibration.json")
	if err := os.WriteFile(path, append(body, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s; %d pairs have a spread of a third of their bound or more\n", path, unsteady)
	return nil
}

// quartiles returns the first and third quartile of an ascending sample
// the way Python's statistics.quantiles(values, n=4) does (exclusive
// method), which is what the driver computes.
func quartiles(s []float64) (q1, q3 float64) {
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
