package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// The A/A self-check: the same code, run repeatedly, must agree with
// itself within the bounds the benchmark sets for other people's
// changes. Each run is a fresh process with the next seed, which is how
// the driver samples the benchmark too.

// quartiles returns Q1, the median and Q3 the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), so the spread
// printed here is the one the driver computes.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func cv(v []float64) float64 {
	var mean, ss float64
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	for _, x := range v {
		ss += (x - mean) * (x - mean)
	}
	if mean == 0 || len(v) < 2 {
		return 0
	}
	return math.Sqrt(ss/float64(len(v)-1)) / mean
}

// rawHost finds the raw host seconds per pass in a run's report, printed
// beside host_ref_s so that the reference correction can be audited.
var rawHost = regexp.MustCompile(`host_ref_s\s+\S+\s+s\s+\(raw (\S+) s per pass\)`)

// runAA runs the workload n times and prints, per end-to-end metric, the
// median, the quartiles, the coefficient of variation, the quartile
// spread as a share of the median and how far the medians of the odd and
// the even runs lie apart, each against the metric's bound (the driver
// holds the spread of every metric but setup_s, and the drift of every
// metric, to the bound). The last row is host time without the reference
// correction, for comparison.
func runAA(w workload, seed int64, seconds float64, n int) int {
	if n < 4 {
		fmt.Fprintln(os.Stderr, "benchmarks: -aa needs at least 4 runs")
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		return 1
	}
	samples := map[string][]float64{}
	failed := 0
	for i := 0; i < n; i++ {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(seed+int64(i)), "-seconds", fmt.Sprint(seconds), "-trace", "0")
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmarks: run %d: %v: %s\n", i+1, err, strings.TrimSpace(stderr.String()))
			return 1
		}
		var res result
		if err := json.Unmarshal(lastLine(stdout.Bytes()), &res); err != nil {
			fmt.Fprintf(os.Stderr, "benchmarks: run %d printed no result: %v\n", i+1, err)
			return 1
		}
		failed += res.Failed
		for name, v := range res.Metrics {
			samples[name] = append(samples[name], v.Value)
		}
		if m := rawHost.FindSubmatch(stdout.Bytes()); m != nil {
			if raw, err := strconv.ParseFloat(string(m[1]), 64); err == nil {
				samples["host_s_raw"] = append(samples["host_s_raw"], raw)
			}
		}
		fmt.Fprintf(os.Stderr, "aa %s run %d/%d seed %d: host_ref_s %.4f setup_s %.4f\n", w.name, i+1, n, seed+int64(i),
			res.Metrics["host_ref_s"].Value, res.Metrics["setup_s"].Value)
	}

	fmt.Printf("### %s — %d runs, seeds %d..%d, -seconds %g, %d failed units\n\n", w.name, n, seed, seed+int64(n)-1, seconds, failed)
	fmt.Println("| metric | median | Q1 | Q3 | cv % | IQR/median % | odd vs even medians % | bound % | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	// stats returns what one row shows: quartiles, the quartile spread and
	// the distance between the medians of the odd and the even runs, the
	// last two in percent of the median.
	stats := func(v []float64) (q1, q2, q3, spread, drift float64) {
		q1, q2, q3 = quartiles(v)
		var odd, even []float64
		for i, x := range v {
			if i%2 == 0 {
				odd = append(odd, x)
			} else {
				even = append(even, x)
			}
		}
		return q1, q2, q3, 100 * (q3 - q1) / q2, 100 * math.Abs(median(odd)-median(even)) / q2
	}
	code := 0
	for _, d := range endToEnd {
		v := samples[d.name]
		q1, q2, q3, spread, drift := stats(v)
		verdict := "ok"
		switch {
		case drift > 100*d.bound || (d.name != "setup_s" && spread > 100*d.bound):
			verdict, code = "OVER BOUND", 1
		case d.name != "setup_s" && spread > 100*d.bound/3:
			verdict = "over a third"
		}
		fmt.Printf("| `%s` | %.4f | %.4f | %.4f | %.2f | %.2f | %.2f | %.0f | %s |\n",
			d.name, q2, q1, q3, 100*cv(v), spread, drift, 100*d.bound, verdict)
	}
	if v := samples["host_s_raw"]; len(v) == n {
		q1, q2, q3, spread, drift := stats(v)
		fmt.Printf("| `host_s_raw` (no correction) | %.4f | %.4f | %.4f | %.2f | %.2f | %.2f | — | — |\n", q2, q1, q3, 100*cv(v), spread, drift)
	}
	fmt.Println()
	if failed != 0 {
		code = 1
	}
	return code
}
