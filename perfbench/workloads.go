package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"mlless/internal/consistency"
	"mlless/internal/core"
	"mlless/internal/cost"
	"mlless/internal/dataset"
	"mlless/internal/faas"
	"mlless/internal/model"
	"mlless/internal/optimizer"
	"mlless/internal/sched"
	"mlless/internal/tenant"
	"mlless/internal/trace"
	"mlless/internal/vclock"
)

// workload is one named benchmark input. Its datasets are generated from
// fixed generator seeds, standing in for the fixed datasets of the paper,
// and the run's seed drives the shuffle that stages them into
// mini-batches. A workload may have several cases, each staged with its
// own shuffle derived from the seed; repetitions cycle through them, so
// that a run's figures average over inputs rather than hang on one.
// setup generates the datasets and stages case c; run executes the
// measured call once, on the cluster setup staged the first time and on
// a freshly staged one afterwards.
type workload interface {
	cases() int
	setup(seed uint64, c int) (gen, stage time.Duration, err error)
	run(o runOpts) (*outcome, error)
}

// caseSeed derives the seed of case c from the run's seed.
func caseSeed(seed uint64, c int) uint64 { return seed<<8 | uint64(c) }

// runOpts selects the instrumentation of one measured call.
type runOpts struct {
	// probes, when non-nil, wraps models and optimizers in timing
	// decorators and profiles the call.
	probes *probes
	// jobTrace sets core.Job.Trace so Result.StepPhases is filled.
	jobTrace bool
}

// outcome is what one measured call produced.
type outcome struct {
	call callStats

	digest   string
	checks   []string // failed output checks
	jobs     int
	steps    int     // simulated training steps, summed over jobs
	samples  float64 // simulated training samples, summed over jobs
	simTime  time.Duration
	simCost  float64
	latency  []time.Duration // completion latency of each unit of work
	counters map[string]int64

	updateBytes int64
	removals    int
	phases      []core.StepPhase

	// fleet only
	waits      []time.Duration
	scaleIns   int
	admissions int
	jain       float64
}

var workloadNames = []string{"pmf-wide-bsp", "lr-isp-tuned", "pmf-async-narrow", "fleet-zoo"}

// newWorkload builds a named workload. tiny shrinks it to a few steps or
// jobs, for smoke tests whose figures mean nothing.
func newWorkload(name string, tiny bool) (workload, error) {
	var w workload
	switch name {
	case "pmf-wide-bsp":
		w = &training{
			name: name, batch: 625, generate: movieLens1M, model: pmfModel, opt: pmfOptimizer(625),
			spec: core.Spec{Workers: 48, Sync: consistency.BSP, MaxSteps: 16}, nCases: 1,
		}
	case "lr-isp-tuned":
		w = &training{
			name: name, batch: 125, generate: criteoQuick, model: lrModel, opt: lrOptimizer,
			spec: core.Spec{
				Workers: 12, Sync: consistency.ISP, Significance: 0.7,
				AutoTune: true, Sched: sched.Config{Epoch: 2 * time.Second},
				TargetLoss: 0.58, MaxSteps: 3000,
			},
			mustConverge: true, nCases: 4,
		}
	case "pmf-async-narrow":
		w = &training{
			name: name, batch: 625, generate: movieLens1M, model: pmfModel, opt: pmfOptimizer(625),
			spec: core.Spec{Workers: 16, Sync: consistency.Async, Staleness: 3, MaxSteps: 60}, nCases: 1,
		}
	case "fleet-zoo":
		w = &fleet{jobs: 2000, nCases: 4}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	if tiny {
		switch w := w.(type) {
		case *training:
			w.spec.MaxSteps, w.mustConverge, w.nCases = 4, false, 1
		case *fleet:
			w.jobs, w.nCases = 40, 1
		}
	}
	return w, nil
}

// Dataset shapes, with the generator seeds of the repository's own
// workloads. A different generator seed draws a different ground truth,
// and with it moves the steps LR needs to reach its target by up to 30%:
// more than any change worth measuring, so the generators stay fixed.

func movieLens1M() *dataset.Dataset {
	return dataset.GenerateMovieLens(dataset.MovieLensConfig{
		Users: 1_200, Items: 2_400, Ratings: 120_000,
		Rank: 20, NoiseStd: 0.70, SignalStd: 0.80, Seed: 5,
	})
}

// movieLens1MQuick is the quarter-size ML-1M shape of the fleet zoo.
func movieLens1MQuick() *dataset.Dataset {
	return dataset.GenerateMovieLens(dataset.MovieLensConfig{
		Users: 300, Items: 600, Ratings: 30_000,
		Rank: 20, NoiseStd: 0.70, SignalStd: 0.80, Seed: 5,
	})
}

const (
	criteoHashDim = 20_000
	criteoNumeric = 13
)

func criteoQuick() *dataset.Dataset {
	cfg := dataset.DefaultCriteoConfig()
	cfg.Samples = 12_000
	cfg.HashDim = criteoHashDim
	ds := dataset.GenerateCriteo(cfg)
	dataset.NormalizeInPlace(ds, criteoNumeric)
	return ds
}

func pmfModel(ds *dataset.Dataset) model.Model {
	return model.NewPMF(ds.NumUsers, ds.NumItems, 20, ds.RatingMean, 0.02, 131)
}

// pmfOptimizer keeps the per-sample step size of the repository's PMF
// workloads: η = 20 at B = 625, scaled with B.
func pmfOptimizer(batch int) func() optimizer.Optimizer {
	lr := 20.0 * float64(batch) / 625.0
	return func() optimizer.Optimizer { return optimizer.NewNesterov(optimizer.Constant(lr), 0.9) }
}

func lrModel(ds *dataset.Dataset) model.Model {
	return model.NewLogReg(ds.FeatureDim, 1e-4)
}

func lrOptimizer() optimizer.Optimizer {
	return optimizer.NewAdamDefaults(optimizer.Constant(0.002))
}

func svmModel(ds *dataset.Dataset) model.Model {
	return model.NewSVM(ds.FeatureDim, 1e-4)
}

func svmOptimizer() optimizer.Optimizer {
	return optimizer.NewNesterov(optimizer.Constant(0.3), 0.9)
}

// training is a core.Run job; its cases are shuffles of one dataset.
type training struct {
	name         string
	batch        int
	generate     func() *dataset.Dataset
	model        func(*dataset.Dataset) model.Model
	opt          func() optimizer.Optimizer
	spec         core.Spec
	mustConverge bool
	nCases       int

	seed       uint64
	c          int
	ds         *dataset.Dataset
	staged     *core.Cluster
	numBatches int
}

func (w *training) cases() int { return w.nCases }

func (w *training) setup(seed uint64, c int) (gen, stage time.Duration, err error) {
	w.seed, w.c = seed, c
	t0 := time.Now()
	w.ds = w.generate()
	gen = time.Since(t0)
	t0 = time.Now()
	w.staged = w.stage()
	stage = time.Since(t0)
	if w.numBatches == 0 {
		return gen, stage, fmt.Errorf("%s: no batches staged", w.name)
	}
	return gen, stage, nil
}

func (w *training) stage() *core.Cluster {
	cl := core.NewCluster()
	var clk vclock.Clock
	w.numBatches = dataset.Stage(w.ds, cl.COS, &clk, w.name, w.batch, caseSeed(w.seed, w.c))
	return cl
}

func (w *training) run(o runOpts) (*outcome, error) {
	cl := w.staged
	w.staged = nil
	if cl == nil {
		cl = w.stage()
	}
	job := core.Job{
		Spec:       w.spec,
		Model:      o.probes.wrapModel(w.model(w.ds)),
		Optimizer:  o.probes.wrapOptimizer(w.opt()),
		Bucket:     w.name,
		NumBatches: w.numBatches,
		BatchSize:  w.batch,
	}
	if o.jobTrace {
		job.Trace = trace.New()
	}
	var res *core.Result
	call, err := measureCall(o.probes != nil, func() (err error) {
		res, err = core.Run(cl, job)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}

	out := &outcome{
		call:        call,
		digest:      resultDigest(res),
		jobs:        1,
		steps:       res.Steps,
		simTime:     res.ExecTime,
		simCost:     res.Cost.Total,
		counters:    snapshot(cl.Metrics),
		updateBytes: res.TotalUpdateBytes,
		removals:    len(res.Removals),
		phases:      res.StepPhases,
	}
	for _, h := range res.History {
		out.samples += float64(h.Workers * w.batch)
		out.latency = append(out.latency, h.Duration)
	}
	if w.mustConverge && !res.Converged {
		out.checks = append(out.checks, fmt.Sprintf("did not reach target loss %g (final %g after %d steps)",
			w.spec.TargetLoss, res.FinalLoss, res.Steps))
	}
	if n := cl.Redis.Len(); n != 0 {
		out.checks = append(out.checks, fmt.Sprintf("%d keys left in the KV store after the run", n))
	}
	if res.Steps == 0 || res.Diverged {
		out.checks = append(out.checks, fmt.Sprintf("no usable training (steps %d, diverged %v)", res.Steps, res.Diverged))
	}
	return out, nil
}

// resultDigest hashes the loss history, the bill, the evictions and the
// step count: everything a behaviour-preserving change must reproduce.
func resultDigest(res *core.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "steps=%d converged=%v diverged=%v exec=%d\n", res.Steps, res.Converged, res.Diverged, res.ExecTime)
	for _, p := range res.History {
		fmt.Fprintf(h, "h %d %d %x %x %d %d %d\n", p.Step, p.Time, math.Float64bits(p.Loss),
			math.Float64bits(p.RawLoss), p.Workers, p.UpdateBytes, p.Duration)
	}
	for _, r := range res.Removals {
		fmt.Fprintf(h, "r %d %d %d %d\n", r.Step, r.Time, r.Worker, r.WorkersLeft)
	}
	for _, c := range res.Cost.Components {
		fmt.Fprintf(h, "c %s %s %d %x\n", c.Name, c.Kind, c.Duration, math.Float64bits(c.Dollars))
	}
	fmt.Fprintf(h, "total %x\n", math.Float64bits(res.Cost.Total))
	return hex.EncodeToString(h.Sum(nil))
}

func snapshot(reg *trace.Registry) map[string]int64 {
	m := map[string]int64{}
	for _, c := range reg.Snapshot() {
		m[c.Name] = c.Value
	}
	return m
}

// fleet is tenant.Run replaying a fixed arrival trace over the LR/SVM/PMF
// zoo: four tenants with quotas on a platform capped at 14 activations.
// Its cases are shuffles of the zoo's datasets, which move the fleet's
// host cost by about 10%. The trace itself is fixed, because the host
// cost of tenant.Run moves by about 20% from one trace to another, more
// than any change worth measuring. Jobs run a fixed number of steps
// rather than to a target loss, and arrive one per 3 s on average: with
// targets, or at a 1.5-2 s gap, about one shuffle in three tips a
// template's convergence or knee and moves the fleet's p99 latency by
// 20-30%.
type fleet struct {
	jobs   int
	nCases int

	seed          uint64
	c             int
	criteo, pmf   *dataset.Dataset
	staged        *core.Cluster
	arrivals      []tenant.Arrival
	nCriteo, nPMF int
}

func (w *fleet) cases() int { return w.nCases }

const (
	fleetCap      = 14
	fleetMaxSteps = 80
	fleetMeanGap  = 3 * time.Second
	// fleetTraceSeed generates the replayed arrival trace.
	fleetTraceSeed = 2026
	zooLRBatch     = 125
	zooPMFBatch    = 156
)

var fleetTenants = []tenant.Tenant{
	{Name: "t1", Quota: 10},
	{Name: "t2", Quota: 10},
	{Name: "t3", Quota: 7},
	{Name: "t4", Quota: 7},
}

func (w *fleet) setup(seed uint64, c int) (gen, stage time.Duration, err error) {
	w.seed, w.c = seed, c
	t0 := time.Now()
	w.criteo = criteoQuick()
	w.pmf = movieLens1MQuick()
	gen = time.Since(t0)
	t0 = time.Now()
	w.staged = w.stage()
	stage = time.Since(t0)
	w.arrivals, err = w.arrive(nil)
	return gen, stage, err
}

// stage puts the zoo's datasets on a fresh cluster capped at fleetCap
// concurrent activations; LR and SVM share the Criteo-shaped batches.
func (w *fleet) stage() *core.Cluster {
	cl := core.NewCluster()
	pcfg := cl.Platform.Config()
	pcfg.MaxConcurrent = fleetCap
	cl.Platform = faas.NewPlatformWithRegistry(pcfg, cl.Metrics)
	var clk vclock.Clock
	w.nCriteo = dataset.Stage(w.criteo, cl.COS, &clk, "criteo", zooLRBatch, caseSeed(w.seed, w.c))
	w.nPMF = dataset.Stage(w.pmf, cl.COS, &clk, "ml1m", zooPMFBatch, caseSeed(w.seed, w.c))
	return cl
}

// arrive builds the zoo templates (2, 3 and 4 workers, so demands
// differ) and the arrival trace over them.
func (w *fleet) arrive(p *probes) ([]tenant.Arrival, error) {
	tpl := func(name string, workers int, bucket string, n, batch int,
		m func() model.Model, o func() optimizer.Optimizer) tenant.Template {
		return tenant.Template{Name: name, Weight: 1, New: func() core.Job {
			return core.Job{
				Spec:      core.Spec{Workers: workers, MaxSteps: fleetMaxSteps},
				Model:     p.wrapModel(m()),
				Optimizer: p.wrapOptimizer(o()),
				Bucket:    bucket, NumBatches: n, BatchSize: batch,
			}
		}}
	}
	pmfOpt := pmfOptimizer(zooPMFBatch)
	mix := []tenant.Template{
		tpl("lr-criteo", 2, "criteo", w.nCriteo, zooLRBatch,
			func() model.Model { return lrModel(w.criteo) }, lrOptimizer),
		tpl("svm-criteo", 3, "criteo", w.nCriteo, zooLRBatch,
			func() model.Model { return svmModel(w.criteo) }, svmOptimizer),
		tpl("pmf-ml1m", 4, "ml1m", w.nPMF, zooPMFBatch,
			func() model.Model { return pmfModel(w.pmf) }, pmfOpt),
	}
	names := make([]string, len(fleetTenants))
	for i, t := range fleetTenants {
		names[i] = t.Name
	}
	return tenant.GenerateArrivals(fleetTraceSeed, names, mix, w.jobs, fleetMeanGap)
}

func (w *fleet) run(o runOpts) (*outcome, error) {
	cl := w.staged
	w.staged = nil
	if cl == nil {
		cl = w.stage()
	}
	arrivals := w.arrivals
	w.arrivals = nil
	if arrivals == nil || o.probes != nil {
		var err error
		if arrivals, err = w.arrive(o.probes); err != nil {
			return nil, err
		}
	}
	var rep *tenant.Report
	call, err := measureCall(o.probes != nil, func() (err error) {
		rep, err = tenant.Run(tenant.Config{Cluster: cl, Tenants: fleetTenants, Arrivals: arrivals})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("fleet-zoo: %w", err)
	}

	var log strings.Builder
	if err := rep.WriteEvents(&log); err != nil {
		return nil, err
	}
	sum := sha256.Sum256([]byte(log.String()))
	out := &outcome{
		call:     call,
		digest:   hex.EncodeToString(sum[:]),
		jobs:     len(rep.Jobs),
		simTime:  rep.Makespan,
		simCost:  rep.FunctionDollars,
		counters: snapshot(cl.Metrics),
		scaleIns: rep.ScaleIns,
		jain:     rep.Jain,
	}
	batch := map[string]int{"lr-criteo": zooLRBatch, "svm-criteo": zooLRBatch, "pmf-ml1m": zooPMFBatch}
	for _, j := range rep.Jobs {
		out.steps += j.Steps
		// Workers at admission: scale-ins later in the job are not
		// subtracted, so this counts the work the jobs asked for.
		out.samples += float64(j.Steps * j.Workers * batch[j.Workload])
		out.latency = append(out.latency, j.Wait+j.Exec)
		out.waits = append(out.waits, j.Wait)
	}
	for _, ev := range rep.Events {
		if ev.Kind == "admit" {
			out.admissions++
		}
	}

	// Conservation checks: every arrival completes, and the tenants'
	// bills add up to the platform's.
	if out.jobs != len(arrivals) || out.admissions != len(arrivals) {
		out.checks = append(out.checks, fmt.Sprintf("%d arrivals, %d admitted, %d completed", len(arrivals), out.admissions, out.jobs))
	}
	// The report's per-tenant bills must match the platform's own
	// billing record, each invocation attributed to the tenant that
	// roots its name. Function time is an integer meter and must split
	// exactly. Dollars are float sums over the same charges in different
	// orders, which moves the last digits, so they are held to 1e-12
	// relative; the tenants' dollars against the report's total too.
	billedTime := map[string]time.Duration{}
	billedUSD := map[string]float64{}
	for _, run := range cl.Platform.BilledRuns() {
		t := faas.NamespaceOf(run.Name)
		billedTime[t] += run.Duration
		billedUSD[t] += cost.FunctionCost(run.Duration, run.MemGiB)
	}
	var secs time.Duration
	var usd float64
	for _, t := range rep.Tenants {
		secs += t.FunctionTime
		usd += t.FunctionDollars
		if t.FunctionTime != billedTime[t.Name] || !closeTo(t.FunctionDollars, billedUSD[t.Name]) {
			out.checks = append(out.checks, fmt.Sprintf("tenant %s billed %v for $%v, the platform billed it %v for $%v",
				t.Name, t.FunctionTime, t.FunctionDollars, billedTime[t.Name], billedUSD[t.Name]))
		}
		delete(billedTime, t.Name)
	}
	for t, d := range billedTime {
		out.checks = append(out.checks, fmt.Sprintf("the platform billed %v to %q, which is no tenant", d, t))
	}
	if !closeTo(usd, rep.FunctionDollars) {
		out.checks = append(out.checks, fmt.Sprintf("tenant dollars sum to %v, report says %v", usd, rep.FunctionDollars))
	}
	if metered := cl.Platform.BilledFunctionSeconds(); secs != rep.FunctionTime || secs != metered {
		out.checks = append(out.checks, fmt.Sprintf("tenant function time sums to %v, report %v, platform metered %v", secs, rep.FunctionTime, metered))
	}
	if n := cl.Redis.Len(); n != 0 {
		out.checks = append(out.checks, fmt.Sprintf("%d keys left in the KV store after the fleet", n))
	}
	return out, nil
}

func closeTo(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Abs(b) }

// percentile is the nearest-rank p-th percentile of ds.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	r := int(math.Ceil(p*float64(len(s)))) - 1
	if r < 0 {
		r = 0
	}
	return s[r]
}
