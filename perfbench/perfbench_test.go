package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain lets the smoke test run this test binary as the benchmark
// command: the orchestrator re-executes os.Args[0] for its repetitions,
// and the environment variable is inherited by them.
func TestMain(m *testing.M) {
	if os.Getenv("PERFBENCH_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestDecoratorsAreTransparent pins that measuring from outside does not
// change the program: runs with the timing decorators produce the same
// loss history, bill and step count (the fleet: the same event log) as
// undecorated runs, and the decorators do see the calls.
func TestDecoratorsAreTransparent(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, false)
			if err != nil {
				t.Fatal(err)
			}
			// Full-size training runs exercise evictions and the async
			// path; the fleet is cut to a short trace.
			switch w := w.(type) {
			case *training:
				if w.spec.Workers > 16 {
					w.spec.MaxSteps = 4
				}
			case *fleet:
				w.jobs = 60
			}
			if _, _, err := w.setup(3, 0); err != nil {
				t.Fatal(err)
			}
			plain, err := w.run(runOpts{})
			if err != nil {
				t.Fatal(err)
			}
			p := &probes{}
			probed, err := w.run(runOpts{probes: p})
			if err != nil {
				t.Fatal(err)
			}
			if plain.digest != probed.digest {
				t.Errorf("decorated run digest %s, undecorated %s", probed.digest, plain.digest)
			}
			if len(plain.checks)+len(probed.checks) > 0 {
				t.Errorf("output checks failed: %v %v", plain.checks, probed.checks)
			}
			if p.gradCalls.Load() == 0 || p.lossCalls.Load() == 0 || p.stepCalls.Load() == 0 {
				t.Errorf("decorators saw %d gradient, %d loss, %d optimizer calls",
					p.gradCalls.Load(), p.lossCalls.Load(), p.stepCalls.Load())
			}
			if _, err := parseCPUProfile(probed.call.profile); err != nil {
				t.Error(err)
			}
		})
	}
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readDeclared(t *testing.T) (workloads, endToEndMetrics, perLayerMetrics []declared) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []declared `json:"workloads"`
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	return doc.Workloads, doc.EndToEnd, doc.PerLayer
}

// TestDeclaredMetricsMatchCode keeps BENCHMARK.json and the metric lists
// the command prints in step.
func TestDeclaredMetricsMatchCode(t *testing.T) {
	wls, e2e, layer := readDeclared(t)
	same := func(what string, got []declared, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the command prints %d", what, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, command %s %s", what, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	same("end_to_end", e2e, endToEnd)
	same("per_layer", layer, perLayer)
	if len(wls) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the command has %d", len(wls), len(workloadNames))
	}
	for i, w := range wls {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, workloadNames[i])
		}
	}
}

// TestSmokeEveryMetricPrinted runs the command on tiny inputs, untraced
// and traced, and checks every declared metric is printed by name with
// its unit, both in the report lines and in the final JSON line.
func TestSmokeEveryMetricPrinted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the command")
	}
	_, e2e, layer := readDeclared(t)
	for _, name := range workloadNames {
		for trace, want := range [][]declared{e2e, layer} {
			cmd := exec.Command(os.Args[0], "--workload", name, "--seed", "5", "--seconds", "0",
				"--tiny", "--trace", []string{"0", "1"}[trace])
			cmd.Env = append(os.Environ(), "PERFBENCH_AS_MAIN=1")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s trace %d: %v\n%s%s", name, trace, err, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var doc struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &doc); err != nil {
				t.Fatalf("%s trace %d: last line: %v", name, trace, err)
			}
			if !doc.Correct || doc.Attempted < minReps || doc.Failed != 0 {
				t.Errorf("%s trace %d: correct %v, attempted %d, failed %d", name, trace, doc.Correct, doc.Attempted, doc.Failed)
			}
			if len(doc.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics in the JSON line, %d declared", name, trace, len(doc.Metrics), len(want))
			}
			printed := func(m declared) bool {
				for _, l := range lines {
					f := strings.Fields(l)
					if len(f) >= 3 && f[0] == m.Name && f[2] == m.Unit {
						return true
					}
				}
				return false
			}
			for _, m := range want {
				if got, ok := doc.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %d: JSON line has %s as %+v, want unit %s", name, trace, m.Name, got, m.Unit)
				}
				if !printed(m) {
					t.Errorf("%s trace %d: no report line for %s [%s]", name, trace, m.Name, m.Unit)
				}
			}
			if name == "fleet-zoo" && trace == 0 {
				for _, m := range fleetOnly {
					if !printed(declared{m.name, m.unit}) {
						t.Errorf("fleet-zoo: no report line for %s [%s]", m.name, m.unit)
					}
				}
			}
		}
	}
}

func spin(d time.Duration) int {
	n := 0
	for t0 := time.Now(); time.Since(t0) < d; n++ {
	}
	return n
}

// TestProfileDecoder checks the pprof decoder against a profile of a
// known busy function.
func TestProfileDecoder(t *testing.T) {
	call, err := measureCall(true, func() error {
		spin(300 * time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := parseCPUProfile(call.profile)
	if err != nil {
		t.Fatal(err)
	}
	if p.total == 0 {
		t.Fatal("profile has no samples")
	}
	if share := p.cumShare(func(fn string) bool { return strings.HasSuffix(fn, ".spin") }); share < 0.5 {
		t.Errorf("spin holds %.2f of the samples, want most", share)
	}
	if pkgOf("mlless/internal/sparse.(*Vector).Dot") != "sparse" || pkgOf("runtime.mallocgc") != "" {
		t.Error("pkgOf misattributes symbols")
	}
}
