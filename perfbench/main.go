// Command perfbench measures the MLLess simulator end to end and per
// layer on four named workloads.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload pmf-wide-bsp --seed 1 --seconds 30 --trace 0
//
// Each repetition runs in a fresh child process: it generates the
// workload's datasets and stages one case, a shuffle derived from the
// seed (setup), then makes the measured call (core.Run or tenant.Run)
// once. Repetitions cycle through the cases until the time budget is
// spent, and every metric is reported as the median over them. With
// --trace 0 the end-to-end metrics are printed; with --trace 1 each
// repetition instead makes an untimed warm-up call, then a plain one,
// one with timing decorators and a CPU profile, and one with
// core.Job.Trace, and the per-layer metrics are printed. The last line
// of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. Any failed output check
// makes the command exit non-zero.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: pmf-wide-bsp | lr-isp-tuned | pmf-async-narrow | fleet-zoo")
		seed    = flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Float64("seconds", 30, "time budget for the repetitions")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
		tiny    = flag.Bool("tiny", false, "shrink the workload to a few steps or jobs (smoke tests; figures not comparable)")
		child   = flag.Bool("child", false, "run one repetition and print its raw result (internal)")
		caseN   = flag.Int("case", 0, "the case a --child repetition measures (internal)")
	)
	flag.Parse()
	if _, err := newWorkload(*name, *tiny); err != nil {
		fatal(err)
	}
	if *traced != 0 && *traced != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", *traced))
	}
	if *child {
		if err := runChild(*name, *seed, *caseN, *tiny, *traced == 1); err != nil {
			fatal(err)
		}
		return
	}
	ok, err := orchestrate(os.Stdout, *name, *seed, *seconds, *tiny, *traced == 1)
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// repResult is what a child prints: one repetition's metrics, its output
// digest and any failed output checks.
type repResult struct {
	Digest  string             `json:"digest"`
	Checks  []string           `json:"checks,omitempty"`
	Metrics map[string]float64 `json:"metrics"`
}

// runChild executes one repetition, of case c, in this process.
func runChild(name string, seed uint64, c int, tiny, traced bool) error {
	w, err := newWorkload(name, tiny)
	if err != nil {
		return err
	}
	if c < 0 || c >= w.cases() {
		return fmt.Errorf("%s has no case %d", name, c)
	}
	// Some workloads set up in tens of milliseconds, where one timing is
	// mostly noise, so set-up is repeated while it stays short and the
	// median reported. Each set-up replaces the previous one.
	var setups []time.Duration
	var gen, stage, spent time.Duration
	for len(setups) < setupReps && (len(setups) == 0 || spent < setupBudget) {
		t0 := time.Now()
		if gen, stage, err = w.setup(seed, c); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0))
		spent += setups[len(setups)-1]
	}
	setup := medianDuration(setups)
	first, err := w.run(runOpts{})
	if err != nil {
		return err
	}
	res := repResult{Digest: first.digest, Checks: first.checks}
	if !traced {
		res.Metrics = endToEndValues(setup, first)
		return json.NewEncoder(os.Stdout).Encode(res)
	}

	// The first call of a fresh process also pays for growing the heap
	// and faulting its pages in. It was the warm-up, so the calls whose
	// walls are compared all run on a warm process.
	plain, err := w.run(runOpts{})
	if err != nil {
		return err
	}
	p := &probes{}
	probed, err := w.run(runOpts{probes: p})
	if err != nil {
		return err
	}
	runs := []*outcome{plain, probed}
	var jobTraced *outcome
	if _, isFleet := w.(*fleet); !isFleet {
		if jobTraced, err = w.run(runOpts{jobTrace: true}); err != nil {
			return err
		}
		runs = append(runs, jobTraced)
	}
	// Instrumentation must not change what the program computes.
	for _, o := range runs {
		res.Checks = append(res.Checks, o.checks...)
		if o.digest != first.digest {
			res.Checks = append(res.Checks, "a later call's output differs from the first call's")
		}
	}
	if res.Metrics, err = layerValues(gen, stage, plain, probed, jobTraced, p); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

const (
	setupReps   = 5
	setupBudget = 300 * time.Millisecond
)

func medianDuration(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// rep is one finished child.
type rep struct {
	c      int // case
	res    repResult
	rssMB  float64
	err    error
	length time.Duration
}

// runRep starts a child for one repetition of case c and waits for it.
func runRep(ctx context.Context, name string, seed uint64, c int, tiny, traced bool) rep {
	t0 := time.Now()
	cmd := exec.CommandContext(ctx, os.Args[0], "--child", "--workload", name,
		"--seed", strconv.FormatUint(seed, 10), "--case", strconv.Itoa(c),
		"--tiny="+strconv.FormatBool(tiny), "--trace", strconv.Itoa(boolInt(traced)))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	r := rep{c: c, length: time.Since(t0)}
	if err != nil {
		r.err = fmt.Errorf("repetition: %w", err)
		return r
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if err := json.Unmarshal(lastLine(stdout.Bytes()), &r.res); err != nil {
		r.err = fmt.Errorf("repetition output: %w", err)
	}
	return r
}

func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}

// minReps is the fewest repetitions a run makes, whatever its budget.
const minReps = 3

// orchestrate runs repetitions until the budget is spent, checks their
// outputs and prints the report. It returns false if any check failed.
func orchestrate(w io.Writer, name string, seed uint64, seconds float64, tiny, traced bool) (bool, error) {
	wl, err := newWorkload(name, tiny)
	if err != nil {
		return false, err
	}
	cases := wl.cases()
	host := hostInfo()
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d trace=%v cases=%d %s\n", name, seed, traced, cases, host)

	// A hung child must not outlive the run's 180-second limit.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	var reps []rep
	// Repetitions cycle through the cases, and a cycle starts only if it
	// is expected to end within the budget, so every case is measured
	// equally often.
	for ctx.Err() == nil {
		n := len(reps)
		if n%cases == 0 && n >= minReps {
			var sum time.Duration
			for _, r := range reps {
				sum += r.length
			}
			if time.Since(start)+sum/time.Duration(n)*time.Duration(cases) > budget {
				break
			}
		}
		reps = append(reps, runRep(ctx, name, seed, n%cases, tiny, traced))
	}

	failed := 0
	digests := make([]string, cases)
	values := map[string][]float64{}
	for i, r := range reps {
		bad := r.err != nil || len(r.res.Checks) > 0
		if r.err == nil {
			if digests[r.c] == "" {
				digests[r.c] = r.res.Digest
			} else if r.res.Digest != digests[r.c] {
				r.res.Checks = append(r.res.Checks, "output digest differs from the first repetition's of the same case")
				bad = true
			}
		}
		if r.err != nil {
			fmt.Fprintf(w, "# repetition %d failed: %v\n", i+1, r.err)
		}
		for _, c := range r.res.Checks {
			fmt.Fprintf(w, "# repetition %d check failed: %s\n", i+1, c)
		}
		if bad {
			failed++
			continue
		}
		for k, v := range r.res.Metrics {
			values[k] = append(values[k], v)
		}
		values["peak_rss_mb"] = append(values["peak_rss_mb"], r.rssMB)
	}

	list := endToEnd
	if traced {
		list = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, m := range list {
		v := median(values[m.name])
		out[m.name] = value{v, m.unit}
		fmt.Fprintf(w, "%-28s %14.6g %-9s (median of %d repetitions)\n", m.name, v, m.unit, len(values[m.name]))
	}
	if !traced {
		for _, m := range fleetOnly {
			if vs := values[m.name]; len(vs) > 0 {
				fmt.Fprintf(w, "%-28s %14.6g %-9s (median of %d repetitions)\n", m.name, median(vs), m.unit, len(vs))
			}
		}
	}
	fmt.Fprintf(w, "%-28s %14.6g %-9s (%d of %d repetitions)\n", "fail_ratio", float64(failed)/float64(len(reps)), "fraction", failed, len(reps))
	for c, d := range digests {
		fmt.Fprintf(w, "# case %d output digest %s\n", c, d)
	}

	doc := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0, len(reps), failed, out}
	buf, err := json.Marshal(doc)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(w, string(buf))
	return failed == 0, nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// hostInfo stamps results with where they were measured.
func hostInfo() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gitCommit())
}
