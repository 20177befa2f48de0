// Command perfbench is the benchmark of the DQMC stack. It runs one named
// workload for a fixed time, checks the program's outputs against method
// properties and closed-form values, and prints one JSON line with every
// metric by name and unit:
//
//	perfbench --workload sweep-12x12 --seed 1 --seconds 25 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same workload
// with spans recorded around the benchmark's calls into the program and
// prints the per-layer metrics. --repeat N runs the workload N times with
// seeds seed..seed+N-1, each in its own process, and prints every metric's
// median, quartiles and spread. See README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// result is the benchmark's last output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// options are the command-line settings a workload runs with.
type options struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	workDir string // scratch space inside the checkout
}

// run is the common outcome of a workload: end-to-end metrics (untraced
// rounds), per-layer metrics (traced run only), and operation counts.
type run struct {
	e2e, layers       metrics
	attempted, failed int
	problems          []string // failed output checks
}

func newRun() *run { return &run{e2e: metrics{}, layers: metrics{}} }

// fail records a failed output check.
func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	r.problems = append(r.problems, msg)
}

var workloads = map[string]func(options) (*run, error){
	"sweep-12x12": func(o options) (*run, error) { return runChain(sweep12, o) },
	"beta32-8x8":  func(o options) (*run, error) { return runChain(beta32, o) },
	"dqmcd-mix":   runMix,
}

func main() {
	workload := flag.String("workload", "", "workload name: sweep-12x12, beta32-8x8 or dqmcd-mix")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 25, "measured time per run")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	repeat := flag.Int("repeat", 0, "run the workload this many times (seeds seed, seed+1, ...) and summarise")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *repeat > 0 {
		if err := repeatRuns(*workload, *seed, *seconds, *trace, *repeat); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	dir, err := os.MkdirTemp(".", ".perfbench-run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: work dir:", err)
		os.Exit(1)
	}
	o := options{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, workDir: dir}
	r, err := fn(o)
	if rmErr := os.RemoveAll(dir); rmErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: remove work dir:", rmErr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out := result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.e2e}
	if o.trace {
		out.Metrics = r.layers
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// peakRSSMB is the peak resident set of this process in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// repeatRuns runs the workload n times, each in a child process of this
// binary with its own seed, and prints each metric's median, quartiles and
// spread (quartile distance over median) plus the failed share.
func repeatRuns(workload string, seed uint64, seconds float64, trace, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var shares []string
	for i := 0; i < n; i++ {
		s := seed + uint64(i)
		cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatUint(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", s, err)
		}
		var last []byte
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			if len(bytes.TrimSpace(sc.Bytes())) > 0 {
				last = append(last[:0], sc.Bytes()...)
			}
		}
		var r result
		if err := json.Unmarshal(last, &r); err != nil {
			return fmt.Errorf("run with seed %d: decode result: %w", s, err)
		}
		fmt.Printf("seed %d: correct=%v attempted=%d failed=%d\n", s, r.Correct, r.Attempted, r.Failed)
		shares = append(shares, fmt.Sprintf("%d/%d", r.Failed, r.Attempted))
		for name, m := range r.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-34s %-8s %14s %14s %14s %8s\n", "metric", "unit", "median", "q1", "q3", "spread")
	for _, name := range names {
		v := values[name]
		med := median(v)
		q1, q3 := quartiles(v)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Printf("%-34s %-8s %14.6g %14.6g %14.6g %7.2f%%\n", name, units[name], med, q1, q3, 100*spread)
	}
	fmt.Println("failed/attempted per run:", shares)
	return nil
}
