// Fleet outcome memo (DESIGN.md §15). Arrivals stamped from one
// workload template train identical jobs, so once one admission of a
// template has executed, a later admission with the same shrink request
// and warm-pool view would reproduce it exactly, shifted in time and
// renamed. The fleet executes the first such admission in place on the
// shared cluster, capturing what it left on the substrates, and replays
// every later one from that capture instead of training again.
//
// Translation is exact because, with tracing, fault injection and
// collective exchanges gated off, every virtual duration in a run is
// independent of absolute start time, and key or name lengths never
// enter link charging. Two more gates keep it so: the auto-tuner's epoch
// gate and the wall-clock stop criterion compare absolute virtual times,
// so those jobs always execute; and a sharded KV tier hashes the full
// key, which contains the job ID, so renaming a job would re-route its
// keys and change per-shard counters.
package tenant

import (
	"sort"
	"strings"
	"time"

	"mlless/internal/core"
	"mlless/internal/cost"
	"mlless/internal/exchange"
	"mlless/internal/faas"
	"mlless/internal/trace"
)

// memoKey is everything besides the template that an admission's
// outcome depends on: the contention-triggered shrink request and the
// warm containers the job can use (at most one per activation).
type memoKey struct {
	tmpl       string
	give, warm int
}

// outcome is one in-place execution and the effects it left on the
// shared cluster: its billed runs, its counter increments and its net
// change to the warm pool.
type outcome struct {
	res       *core.Result
	startAt   time.Duration
	billed    []faas.BilledRun
	counters  []trace.Metric
	warmDelta int
}

// memoEnabled reports whether the fleet may memoize at all.
func memoEnabled(cl *core.Cluster, arrivals []Arrival) bool {
	if cl.Redis.NumShards() > 1 {
		return false
	}
	for _, a := range arrivals {
		if a.Job.Trace != nil || a.Job.Spec.Faults.Enabled() || exchange.IsCollective(a.Job.Spec.Exchange) {
			return false
		}
	}
	return true
}

// execute runs one admitted job, or replays it from the memo. job
// carries the control-plane fields (Tenant, StartAt, Shrink) already.
func (f *fleet) execute(a Arrival, job core.Job, give, demand int) (*core.Result, error) {
	if f.memo == nil || a.TemplateKey == "" || job.Spec.AutoTune || job.Spec.MaxWallClock != 0 {
		return core.Run(f.cl, job)
	}
	p := f.cl.Platform
	w0 := p.WarmPool()
	key := memoKey{tmpl: a.TemplateKey, give: give, warm: min(w0, demand)}
	if src, ok := f.memo[key]; ok {
		res, billed := translateOutcome(src, job.Spec.StartAt, f.cl.NextJobID(a.Tenant))
		p.AbsorbBilled(billed)
		for _, m := range src.counters {
			f.cl.Metrics.Counter(m.Name).Add(m.Value)
		}
		p.SetWarmPool(w0 + src.warmDelta)
		return res, nil
	}

	nBilled := len(p.BilledRuns())
	before := make(map[string]int64)
	for _, m := range f.cl.Metrics.Snapshot() {
		before[m.Name] = m.Value
	}
	res, err := core.Run(f.cl, job)
	if err != nil {
		return nil, err
	}
	out := &outcome{res: res, startAt: job.Spec.StartAt, billed: p.BilledRuns()[nBilled:], warmDelta: p.WarmPool() - w0}
	for _, m := range f.cl.Metrics.Snapshot() {
		if d := m.Value - before[m.Name]; d != 0 {
			out.counters = append(out.counters, trace.Metric{Name: m.Name, Value: d})
		}
	}
	f.memo[key] = out
	return res, nil
}

// rename maps one billing label from the source execution's namespace
// into the target's. Labels are "<id>" or "<id>/suffix"; anything else
// (VM lines, request-class lines) passes through.
func rename(name, oldID, newID string) string {
	if name == oldID {
		return newID
	}
	if strings.HasPrefix(name, oldID+"/") {
		return newID + name[len(oldID):]
	}
	return name
}

// translateOutcome maps a captured execution onto an admission at
// startAt under namespace newID: absolute times shift by the start-time
// delta and labels move to the new namespace. The bill total is
// recomputed in the renamed sort order, exactly as cost.Meter.Report
// would have summed it for a native run under newID.
func translateOutcome(src *outcome, startAt time.Duration, newID string) (*core.Result, []faas.BilledRun) {
	dt := startAt - src.startAt
	oldID := src.res.ID

	r := *src.res
	r.ID = newID
	if len(src.res.History) > 0 {
		r.History = append([]core.LossPoint(nil), src.res.History...)
		for i := range r.History {
			r.History[i].Time += dt
		}
	}
	if len(src.res.Removals) > 0 {
		r.Removals = append([]core.Removal(nil), src.res.Removals...)
		for i := range r.Removals {
			r.Removals[i].Time += dt
		}
	}
	comps := append([]cost.Component(nil), src.res.Cost.Components...)
	for i := range comps {
		comps[i].Name = rename(comps[i].Name, oldID, newID)
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i].Name < comps[j].Name })
	total := 0.0
	for _, c := range comps {
		if c.Kind == "memo" {
			continue
		}
		total += c.Dollars
	}
	r.Cost = cost.Report{Components: comps, Total: total}

	billed := append([]faas.BilledRun(nil), src.billed...)
	for i := range billed {
		billed[i].Name = rename(billed[i].Name, oldID, newID)
	}
	return &r, billed
}
