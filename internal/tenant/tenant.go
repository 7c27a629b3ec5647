// Package tenant is the multi-tenant control plane over the simulated
// MLLess substrate: it admits many training jobs from many tenants onto
// one shared core.Cluster, enforcing per-tenant FaaS concurrency quotas
// inside the platform-wide cap, splitting the bill per tenant, and
// asking admitted jobs to scale in when others are waiting.
//
// The fleet is a discrete-event simulation in the same virtual time the
// engine runs in. Jobs arrive on a seeded schedule, queue until their
// activation demand (workers + supervisor) fits under both caps, and
// then execute with Spec.StartAt set to the admission instant —
// barriers are absolute virtual times, so each job's trace is exactly
// the trace it would produce alone, shifted. While a job occupies its
// virtual window [admit, complete), its demand is held as a faas
// reservation, which the platform counts against both caps for every
// later admission decision; scale-in evictions release slots early, at
// the eviction's virtual time. Everything is a pure function of the
// configuration, so fleets are byte-reproducible.
//
// Arrivals stamped from one workload template (Arrival.TemplateKey)
// share executions: the first admission with a given shrink request and
// warm-pool view runs in place, and later ones replay its captured
// outcome, translated to their start time and namespace, so the report,
// event log and bills are byte-identical to executing every job (see
// memo.go).
package tenant

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"mlless/internal/consistency"
	"mlless/internal/core"
)

// Fleet-validation errors.
var (
	// ErrNoCluster means Config.Cluster was nil.
	ErrNoCluster = errors.New("tenant: nil cluster")
	// ErrNoTenant means an arrival names a tenant not in Config.Tenants.
	ErrNoTenant = errors.New("tenant: arrival for unknown tenant")
	// ErrBadQuota means a tenant quota is negative or exceeds the
	// platform-wide MaxConcurrent (such a tenant could never use its
	// allocation, so the configuration is almost certainly a typo).
	ErrBadQuota = errors.New("tenant: quota exceeds platform MaxConcurrent")
	// ErrNeverFits means a job's activation demand exceeds its tenant's
	// quota or the platform cap: it would wait forever.
	ErrNeverFits = errors.New("tenant: job demand can never be admitted")
	// ErrDupTenant means two Config.Tenants entries share a name.
	ErrDupTenant = errors.New("tenant: duplicate tenant name")
)

// Tenant is one paying customer of the shared platform.
type Tenant struct {
	// Name is the tenant's activation namespace; it may not contain '/'
	// (core.ErrBadTenant) and may not be empty.
	Name string
	// Quota caps the tenant's concurrently-running activations,
	// reservations included. 0 means no per-tenant cap (the platform
	// cap still applies).
	Quota int
}

// Arrival is one job submission: a tenant asks for a training job at a
// virtual instant. The Spec fields Tenant, StartAt and Shrink belong to
// the control plane and must be zero; the fleet fills them in.
type Arrival struct {
	// At is the submission's virtual time.
	At time.Duration
	// Tenant names the submitting tenant.
	Tenant string
	// Workload labels the job for reports ("lr-criteo", "pmf-1m", ...).
	Workload string
	// Job is the training job to run. Model and Optimizer are prototypes
	// (the engine clones them per worker), so the Job itself is never
	// mutated and one arrival can be executed more than once.
	Job core.Job
	// TemplateKey, when non-empty, asserts that this arrival's Job is a
	// fresh stamp of a shared workload template: any two arrivals with
	// the same key train identical models on identical data with an
	// identical spec. The fleet relies on this to memoize executions —
	// one simulated run per (template, shrink, warm-pool) combination,
	// translated to each admission's start time and namespace (memo.go).
	// Leave it empty for hand-built arrivals; the fleet then executes
	// each one. GenerateArrivals stamps it with the template's Name.
	TemplateKey string
}

// Config describes a fleet run.
type Config struct {
	// Cluster is the shared substrate every job runs on. Datasets must
	// already be staged into its object store.
	Cluster *core.Cluster
	// Tenants are the platform's customers; quotas are installed on the
	// cluster's FaaS platform before the first admission.
	Tenants []Tenant
	// Arrivals is the submission schedule. It need not be sorted; the
	// fleet orders it by (At, index).
	Arrivals []Arrival
	// NoScaleIn disables contention-triggered shrink requests: jobs
	// keep their full width even while others wait.
	NoScaleIn bool
}

// Event is one line of the fleet's control-plane log. The log is the
// determinism artifact: two same-seed fleet runs must produce
// byte-identical logs.
type Event struct {
	// At is the event's virtual time.
	At time.Duration
	// Kind is "arrive", "admit", "shrink-request", "scale-in" or
	// "complete".
	Kind string
	// Tenant is the owning tenant.
	Tenant string
	// Job is the job's namespace ID once admitted ("t1/job3"), or the
	// workload label before admission.
	Job string
	// Detail is the kind-specific remainder of the line.
	Detail string

	seq int // creation order, tie-break for equal At
}

// String renders the event as one log line.
func (ev Event) String() string {
	s := fmt.Sprintf("t=%.3fs %-14s tenant=%s job=%s", ev.At.Seconds(), ev.Kind, ev.Tenant, ev.Job)
	if ev.Detail != "" {
		s += " " + ev.Detail
	}
	return s
}

// waiting is a submitted, not-yet-admitted job.
type waiting struct {
	arr    Arrival
	seq    int // arrival order, FIFO tie-break
	demand int // workers + supervisor
}

// release frees n reserved slots of a tenant at a virtual instant —
// either a scale-in eviction (n=1) or a job completion. job is the
// releasing job's namespace ID: releases due at the same instant are
// applied in (tenant, job, seq) order, a total order over fleet state
// rather than insertion history, so a slot freed and re-acquired at one
// instant resolves identically however the schedule was produced.
type release struct {
	at     time.Duration
	tenant string
	job    string
	n      int
	seq    int
}

// Run executes the fleet to completion and returns its report. The
// error path is configuration trouble or an engine failure; jobs that
// merely exhaust MaxSteps without converging are reported, not errors.
func Run(cfg Config) (*Report, error) {
	f, err := newFleet(cfg)
	if err != nil {
		return nil, err
	}
	return f.run()
}

type fleet struct {
	cfg      Config
	cl       *core.Cluster
	quota    map[string]int
	served   map[string]time.Duration // per-tenant billed function time
	waitq    []*waiting
	releases []release
	events   []Event
	jobs     []JobRecord
	now      time.Duration
	seq      int
	memo     map[memoKey]*outcome // nil when the fleet cannot memoize
}

func newFleet(cfg Config) (*fleet, error) {
	if cfg.Cluster == nil {
		return nil, ErrNoCluster
	}
	platCap := cfg.Cluster.Platform.Config().MaxConcurrent
	quota := make(map[string]int, len(cfg.Tenants))
	for _, t := range cfg.Tenants {
		if t.Name == "" || strings.ContainsRune(t.Name, '/') {
			return nil, fmt.Errorf("tenant: bad tenant name %q: %w", t.Name, core.ErrBadTenant)
		}
		if _, dup := quota[t.Name]; dup {
			return nil, fmt.Errorf("%w: %q", ErrDupTenant, t.Name)
		}
		if t.Quota < 0 || (platCap > 0 && t.Quota > platCap) {
			return nil, fmt.Errorf("%w: tenant %q quota %d, platform cap %d",
				ErrBadQuota, t.Name, t.Quota, platCap)
		}
		quota[t.Name] = t.Quota
	}
	for _, a := range cfg.Arrivals {
		q, ok := quota[a.Tenant]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNoTenant, a.Tenant)
		}
		demand := a.Job.Spec.Workers + 1
		if (q > 0 && demand > q) || (platCap > 0 && demand > platCap) {
			return nil, fmt.Errorf("%w: tenant %q workload %q needs %d activations (quota %d, cap %d)",
				ErrNeverFits, a.Tenant, a.Workload, demand, q, platCap)
		}
		if a.Job.Spec.Tenant != "" || a.Job.Spec.StartAt != 0 || len(a.Job.Spec.Shrink) != 0 {
			return nil, fmt.Errorf("tenant: arrival %q/%q sets control-plane spec fields (Tenant/StartAt/Shrink)",
				a.Tenant, a.Workload)
		}
	}
	for name, q := range quota {
		if q > 0 {
			cfg.Cluster.Platform.SetQuota(name, q)
		}
	}
	served := make(map[string]time.Duration, len(quota))
	for name := range quota {
		served[name] = 0
	}
	f := &fleet{cfg: cfg, cl: cfg.Cluster, quota: quota, served: served}
	if memoEnabled(cfg.Cluster, cfg.Arrivals) {
		f.memo = make(map[memoKey]*outcome)
	}
	return f, nil
}

// run is the fleet loop: every admitted job executes (or replays from
// the memo) on the shared substrates at its admission instant.
func (f *fleet) run() (*Report, error) {
	arrivals := append([]Arrival(nil), f.cfg.Arrivals...)
	sort.SliceStable(arrivals, func(i, j int) bool { return arrivals[i].At < arrivals[j].At })
	ai := 0
	for {
		// Ingest every submission due by now, then apply due releases,
		// then admit whatever fits — releases before admissions, so a
		// slot freed at t is usable at t.
		for ai < len(arrivals) && arrivals[ai].At <= f.now {
			a := arrivals[ai]
			w := &waiting{arr: a, seq: ai, demand: a.Job.Spec.Workers + 1}
			f.waitq = append(f.waitq, w)
			f.event(a.At, "arrive", a.Tenant, a.Workload,
				fmt.Sprintf("demand=%d", w.demand))
			ai++
		}
		f.applyReleases()
		for {
			w := f.pickAdmissible()
			if w == nil {
				break
			}
			if err := f.admit(w); err != nil {
				return nil, err
			}
		}

		// Advance virtual time to the next arrival or release.
		next, ok := f.nextInstant(arrivals, ai)
		if !ok {
			if len(f.waitq) > 0 {
				// Cannot happen after the newFleet demand check, but
				// guard against it rather than spin forever.
				return nil, fmt.Errorf("%w: %d jobs stuck in queue at t=%v",
					ErrNeverFits, len(f.waitq), f.now)
			}
			break
		}
		f.now = next
	}
	return f.report(), nil
}

// nextInstant returns the earliest future virtual instant with work to
// do: the next submission or the next reservation release.
func (f *fleet) nextInstant(arrivals []Arrival, ai int) (time.Duration, bool) {
	next := time.Duration(-1)
	if ai < len(arrivals) {
		next = arrivals[ai].At
	}
	for _, r := range f.releases {
		if next < 0 || r.at < next {
			next = r.at
		}
	}
	if next < 0 {
		return 0, false
	}
	return next, true
}

// applyReleases returns every reservation due by now to the platform,
// oldest first; same-instant ties resolve by (tenant, job, seq), so
// eviction releases of one job stay ordered and the instant's net
// effect is a pure function of fleet state.
func (f *fleet) applyReleases() {
	sort.SliceStable(f.releases, releaseLess(f.releases))
	n := 0
	for _, r := range f.releases {
		if r.at > f.now {
			f.releases[n] = r
			n++
			continue
		}
		// Release failures are programming errors (over-release); panic
		// in tests via the error path would hide the bug site.
		if err := f.cl.Platform.Release(r.tenant, r.n); err != nil {
			panic(fmt.Sprintf("tenant: release %d of %q at %v: %v", r.n, r.tenant, r.at, err))
		}
	}
	f.releases = f.releases[:n]
}

// pickAdmissible removes and returns the fair-share choice among queued
// jobs that fit right now, or nil. Fairness is min served billed
// function-time per tenant (the platform's own currency), FIFO within
// and across equally-served tenants.
func (f *fleet) pickAdmissible() *waiting {
	best := -1
	for i, w := range f.waitq {
		if !f.fits(w) {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		b := f.waitq[best]
		if f.served[w.arr.Tenant] < f.served[b.arr.Tenant] ||
			(f.served[w.arr.Tenant] == f.served[b.arr.Tenant] && w.seq < b.seq) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	w := f.waitq[best]
	f.waitq = append(f.waitq[:best], f.waitq[best+1:]...)
	return w
}

// fits reports whether demand slots for the tenant are free under both
// the tenant quota and the platform cap, reservations included.
func (f *fleet) fits(w *waiting) bool {
	p := f.cl.Platform
	if q := f.quota[w.arr.Tenant]; q > 0 && p.InUse(w.arr.Tenant)+w.demand > q {
		return false
	}
	if cap := p.Config().MaxConcurrent; cap > 0 && p.TotalInUse()+w.demand > cap {
		return false
	}
	return true
}

// admit runs one job at the current virtual instant and installs its
// reservation and future releases.
func (f *fleet) admit(w *waiting) error {
	job := w.arr.Job
	job.Spec.Tenant = w.arr.Tenant
	job.Spec.StartAt = f.now

	// Contention-triggered scale-in: others are waiting, so ask this
	// job to hand back workers once past its knee — the same guardrail
	// the §4.2 auto-tuner uses, so convergence is not stalled. The
	// request is due immediately (At: 0 is before any barrier) and
	// bounded by the queue depth and the tuner's MinWorkers floor.
	shrunk := 0
	if !f.cfg.NoScaleIn && len(f.waitq) > 0 && job.Spec.Sync != consistency.Async {
		floor := job.Spec.Sched.MinWorkers
		if floor <= 0 {
			floor = job.Spec.Workers / 4 // the engine's own default
			if floor < 1 {
				floor = 1
			}
		}
		if give := job.Spec.Workers - floor; give > 0 {
			if give > len(f.waitq) {
				give = len(f.waitq)
			}
			job.Spec.Shrink = []core.ShrinkDirective{{At: 0, Workers: give}}
			shrunk = give
		}
	}

	wait := f.now - w.arr.At
	res, err := f.execute(w.arr, job, shrunk, w.demand)
	if err != nil {
		return fmt.Errorf("tenant: job %q/%q admitted at %v: %w", w.arr.Tenant, w.arr.Workload, f.now, err)
	}
	f.event(f.now, "admit", w.arr.Tenant, res.ID,
		fmt.Sprintf("workload=%s demand=%d waited=%.3fs", w.arr.Workload, w.demand, wait.Seconds()))
	if shrunk > 0 {
		f.event(f.now, "shrink-request", w.arr.Tenant, res.ID, fmt.Sprintf("give=%d", shrunk))
	}

	// The job's instances have terminated (core.Run is host-serial) or,
	// for a memo hit, never ran; re-occupy its virtual window
	// [now, complete) with a reservation, drained early by its scale-in
	// evictions.
	if err := f.cl.Platform.Reserve(w.arr.Tenant, w.demand); err != nil {
		return fmt.Errorf("tenant: reserve %d for %q at %v: %w", w.demand, w.arr.Tenant, f.now, err)
	}
	complete := f.now + res.ExecTime
	for _, rm := range res.Removals {
		f.release(rm.Time, w.arr.Tenant, res.ID, 1)
		f.event(rm.Time, "scale-in", w.arr.Tenant, res.ID,
			fmt.Sprintf("worker=%d left=%d", rm.Worker, rm.WorkersLeft))
	}
	f.release(complete, w.arr.Tenant, res.ID, w.demand-len(res.Removals))
	f.event(complete, "complete", w.arr.Tenant, res.ID,
		fmt.Sprintf("workload=%s steps=%d converged=%v loss=%.6f", w.arr.Workload, res.Steps, res.Converged, res.FinalLoss))

	funcSecs := functionTime(res)
	f.served[w.arr.Tenant] += funcSecs
	f.jobs = append(f.jobs, JobRecord{
		ID: res.ID, Tenant: w.arr.Tenant, Workload: w.arr.Workload,
		ArriveAt: w.arr.At, AdmitAt: f.now, CompleteAt: complete,
		Wait: wait, Exec: res.ExecTime,
		Workers: job.Spec.Workers, Shrunk: len(res.Removals),
		FunctionTime: funcSecs, FunctionDollars: functionDollars(res),
		Converged: res.Converged, FinalLoss: res.FinalLoss, Steps: res.Steps,
	})
	return nil
}

// releaseLess orders releases by (at, tenant, job, seq) — the
// documented commit order for reservation returns.
func releaseLess(rs []release) func(i, j int) bool {
	return func(i, j int) bool {
		if rs[i].at != rs[j].at {
			return rs[i].at < rs[j].at
		}
		if rs[i].tenant != rs[j].tenant {
			return rs[i].tenant < rs[j].tenant
		}
		if rs[i].job != rs[j].job {
			return rs[i].job < rs[j].job
		}
		return rs[i].seq < rs[j].seq
	}
}

func (f *fleet) release(at time.Duration, tenant, job string, n int) {
	if n <= 0 {
		return
	}
	f.releases = append(f.releases, release{at: at, tenant: tenant, job: job, n: n, seq: f.seq})
	f.seq++
}

func (f *fleet) event(at time.Duration, kind, tenant, job, detail string) {
	f.events = append(f.events, Event{At: at, Kind: kind, Tenant: tenant, Job: job, Detail: detail, seq: f.seq})
	f.seq++
}

// functionTime sums the billed duration of the job's function
// components — its share of the platform's GB-second meter (every
// function in a job runs at the same memory size, so plain seconds
// split the bill exactly like GB-seconds do).
func functionTime(res *core.Result) time.Duration {
	var d time.Duration
	for _, c := range res.Cost.Components {
		if c.Kind == "function" {
			d += c.Duration
		}
	}
	return d
}

// functionDollars sums the job's function charges.
func functionDollars(res *core.Result) float64 {
	var usd float64
	for _, c := range res.Cost.Components {
		if c.Kind == "function" {
			usd += c.Dollars
		}
	}
	return usd
}
