package tenant

import (
	"bytes"
	"reflect"
	"sort"
	"testing"
	"time"

	"mlless/internal/cost"
	"mlless/internal/trace"
)

// fleetArtifacts captures everything a fleet run leaves behind that the
// outcome memo promises to keep byte- and bit-identical: the
// control-plane log, the job records (IDs, milestones, losses, bills),
// the report, the platform's billed function meter, the warm pool and
// the service counters. executions counts the admissions that ran the
// engine rather than replaying a memoized outcome.
type fleetArtifacts struct {
	log        string
	jobs       []JobRecord
	tenants    []TenantReport
	makespan   time.Duration
	jain       float64
	funcTime   time.Duration
	funcUSD    float64
	billed     time.Duration
	warm       int
	counters   []trace.Metric
	orphans    int
	executions int
}

// runFleetArtifacts runs the fleet mk builds on a fresh cluster,
// optionally with its template keys stripped (the no-memo baseline).
func runFleetArtifacts(t *testing.T, mk func(*testing.T) (Config, []Arrival), stripTemplates bool) fleetArtifacts {
	t.Helper()
	cfg, arrivals := mk(t)
	if stripTemplates {
		for i := range arrivals {
			arrivals[i].TemplateKey = ""
		}
	}
	cfg.Arrivals = arrivals
	f, err := newFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.run()
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	if err := rep.WriteEvents(&log); err != nil {
		t.Fatal(err)
	}
	var orphans cost.Meter
	cfg.Cluster.Platform.BillTo(&orphans)
	snap := cfg.Cluster.Metrics.Snapshot()
	sort.Slice(snap, func(i, j int) bool { return snap[i].Name < snap[j].Name })
	executions := len(rep.Jobs)
	if f.memo != nil {
		// Every memoable admission either filled a memo slot or hit one.
		executions = len(f.memo)
		for _, a := range arrivals {
			if a.TemplateKey == "" || a.Job.Spec.AutoTune || a.Job.Spec.MaxWallClock != 0 {
				executions++
			}
		}
	}
	return fleetArtifacts{
		log:        log.String(),
		jobs:       rep.Jobs,
		tenants:    rep.Tenants,
		makespan:   rep.Makespan,
		jain:       rep.Jain,
		funcTime:   rep.FunctionTime,
		funcUSD:    rep.FunctionDollars,
		billed:     cfg.Cluster.Platform.BilledFunctionSeconds(),
		warm:       cfg.Cluster.Platform.WarmPool(),
		counters:   snap,
		orphans:    len(orphans.Report().Components),
		executions: executions,
	}
}

func diffArtifacts(t *testing.T, label string, want, got fleetArtifacts) {
	t.Helper()
	if want.log != got.log {
		t.Fatalf("%s: event logs differ:\n--- baseline ---\n%s--- %s ---\n%s", label, want.log, label, got.log)
	}
	if !reflect.DeepEqual(want.jobs, got.jobs) {
		t.Fatalf("%s: job records differ:\nbaseline: %+v\ngot:      %+v", label, want.jobs, got.jobs)
	}
	if !reflect.DeepEqual(want.tenants, got.tenants) {
		t.Fatalf("%s: per-tenant bills differ:\nbaseline: %+v\ngot:      %+v", label, want.tenants, got.tenants)
	}
	if want.makespan != got.makespan || want.jain != got.jain ||
		want.funcTime != got.funcTime || want.funcUSD != got.funcUSD {
		t.Fatalf("%s: headline metrics differ: baseline {%v %v %v %v} got {%v %v %v %v}",
			label, want.makespan, want.jain, want.funcTime, want.funcUSD,
			got.makespan, got.jain, got.funcTime, got.funcUSD)
	}
	if want.billed != got.billed {
		t.Fatalf("%s: platform billed %v, baseline %v", label, got.billed, want.billed)
	}
	if want.warm != got.warm {
		t.Fatalf("%s: warm pool %d, baseline %d", label, got.warm, want.warm)
	}
	if !reflect.DeepEqual(want.counters, got.counters) {
		t.Fatalf("%s: service counters differ:\nbaseline: %+v\ngot:      %+v", label, want.counters, got.counters)
	}
	if got.orphans != 0 {
		t.Fatalf("%s: %d function runs never claimed by a job meter", label, got.orphans)
	}
}

func TestFleetMemoMatchesNoMemo(t *testing.T) {
	// The memo's determinism contract: replaying translated outcomes
	// must reproduce executing every admission bit-for-bit — event log,
	// job records, per-tenant bills, platform meter, warm pool and every
	// service counter. The baseline is the same fleet with TemplateKey
	// stripped, which executes every job.
	cases := []struct {
		name   string
		fleet  func(t *testing.T) (Config, []Arrival)
		memoOn bool
	}{
		{"uncontended", func(t *testing.T) (Config, []Arrival) { return testFleet(t, 42, 8, 9) }, true},
		{"contended", func(t *testing.T) (Config, []Arrival) { return testFleet(t, 11, 4, 8) }, true},
		{"autotune between templates", func(t *testing.T) (Config, []Arrival) {
			// The auto-tuner's epoch gate compares absolute virtual
			// times, so this arrival must execute even though it keeps
			// its template key. A 1 s epoch lets the tuner decide inside
			// the run, and without scale-in requests its evictions are
			// the only ones, so a replayed sibling's outcome would show.
			cfg, arrivals := testFleet(t, 42, 8, 9)
			cfg.NoScaleIn = true
			arrivals[4].Job.Spec.AutoTune = true
			arrivals[4].Job.Spec.Sched.Epoch = time.Second
			return cfg, arrivals
		}, true},
		{"sharded kv", func(t *testing.T) (Config, []Arrival) { return testShardedFleet(t, 42, 8, 9, 2) }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runFleetArtifacts(t, tc.fleet, true)
			got := runFleetArtifacts(t, tc.fleet, false)
			diffArtifacts(t, "memo", baseline, got)
			if baseline.executions != len(baseline.jobs) {
				t.Fatalf("baseline executed %d of %d admissions", baseline.executions, len(baseline.jobs))
			}
			if engaged := got.executions < len(got.jobs); engaged != tc.memoOn {
				t.Fatalf("memo engaged=%v (%d executions for %d admissions), want %v",
					engaged, got.executions, len(got.jobs), tc.memoOn)
			}
		})
	}
}

func TestReleaseOrderIsStateNotInsertion(t *testing.T) {
	// Releases due at one instant must commit in (tenant, job, seq)
	// order however they were inserted — the documented total order that
	// keeps same-instant free/re-acquire resolution a pure function of
	// fleet state.
	at := 3 * time.Second
	rs := []release{
		{at: at, tenant: "t2", job: "t2/job5", n: 1, seq: 9},
		{at: at, tenant: "t1", job: "t1/job7", n: 2, seq: 8},
		{at: at, tenant: "t1", job: "t1/job2", n: 1, seq: 7},
		{at: at - time.Second, tenant: "t9", job: "t9/job9", n: 1, seq: 6},
		{at: at, tenant: "t1", job: "t1/job2", n: 3, seq: 5},
	}
	sort.SliceStable(rs, releaseLess(rs))
	want := []struct {
		job string
		seq int
	}{
		{"t9/job9", 6}, {"t1/job2", 5}, {"t1/job2", 7}, {"t1/job7", 8}, {"t2/job5", 9},
	}
	for i, w := range want {
		if rs[i].job != w.job || rs[i].seq != w.seq {
			t.Fatalf("release %d is %s/seq=%d, want %s/seq=%d", i, rs[i].job, rs[i].seq, w.job, w.seq)
		}
	}
}

func TestFleetEmpty(t *testing.T) {
	// Zero arrivals run the loop trivially.
	cfg, _ := testFleet(t, 5, 8, 2)
	cfg.Arrivals = nil
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Jobs) != 0 || len(rep.Events) != 0 {
		t.Fatalf("empty fleet produced %d jobs, %d events", len(rep.Jobs), len(rep.Events))
	}
}
