package main

import (
	"strings"
	"time"

	"mlless/internal/core"
)

// metric names one reported figure and its unit. The lists below are
// the ones BENCHMARK.json declares; the smoke test keeps them in step.
type metric struct{ name, unit string }

// endToEnd metrics are printed by an untraced run (--trace 0).
var endToEnd = []metric{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"samples_per_s", "1/s"},
	{"sim_time_s", "s"},
	{"sim_cost_usd", "usd"},
	{"sim_p50_latency_s", "s"},
	{"sim_p99_latency_s", "s"},
}

// fleetOnly end-to-end metrics apply to fleet-zoo alone, so they are
// printed in the report but left out of the JSON line, whose metrics
// every workload must have. The fleet's job count is fixed, so
// jobs_per_s moves exactly as 1/wall_s does, which the JSON line gates.
var fleetOnly = []metric{{"jobs_per_s", "1/s"}, {"jain", "index"}}

// perLayer metrics are printed by a traced run (--trace 1).
var perLayer = []metric{
	{"sparse.self_share", "fraction"},
	{"exchange.pull_cum_share", "fraction"},
	{"exchange.publish_cum_share", "fraction"},
	{"optimizer.step_s_per_step", "s"},
	{"model.gradient_s_per_step", "s"},
	{"model.loss_s_per_step", "s"},
	{"model.self_share", "fraction"},
	{"model.cum_share", "fraction"},
	{"consistency.self_share", "fraction"},
	{"core.self_share", "fraction"},
	{"core.host_parallelism", "ratio"},
	{"dataset.generate_s", "s"},
	{"dataset.stage_s", "s"},
	{"dataset.self_share", "fraction"},
	{"objstore.self_share", "fraction"},
	{"sched.self_share", "fraction"},
	{"sched.removals", "count"},
	{"tenant.self_share", "fraction"},
	{"tenant.wait_p50_s", "s"},
	{"tenant.wait_p99_s", "s"},
	{"tenant.scale_ins", "count"},
	{"tenant.admissions", "count"},
	{"tenant.jain", "index"},
	{"kvstore.gets", "1/step"},
	{"kvstore.bytes_read", "B/step"},
	{"kvstore.bytes_written", "B/step"},
	{"objstore.gets", "1/step"},
	{"objstore.bytes_read", "B/step"},
	{"msgqueue.published", "1/step"},
	{"faas.invocations", "1/step"},
	{"faas.cold_starts", "1/step"},
	{"faas.quota_rejections", "1/step"},
	{"exchange.pulls", "1/step"},
	{"update_bytes_per_step", "B/step"},
	{"sim.fetch_ms", "ms"},
	{"sim.compute_ms", "ms"},
	{"sim.publish_ms", "ms"},
	{"sim.pull_ms", "ms"},
	{"sim.barrier_ms", "ms"},
	{"runtime.gc_share", "fraction"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.allocs_per_step", "1/step"},
	{"trace.overhead_s", "s"},
	{"trace.job_trace_overhead_s", "s"},
}

// endToEndValues derives the untraced metrics of one repetition, all but
// peak_rss_mb, which the parent reads from the child's rusage. Latency
// percentiles are over the units of work: training steps, or fleet jobs.
func endToEndValues(setup time.Duration, o *outcome) map[string]float64 {
	wall := o.call.wall.Seconds()
	m := map[string]float64{
		"setup_s":           setup.Seconds(),
		"wall_s":            wall,
		"cpu_s":             o.call.cpu.Seconds(),
		"samples_per_s":     o.samples / wall,
		"sim_time_s":        o.simTime.Seconds(),
		"sim_cost_usd":      o.simCost,
		"sim_p50_latency_s": percentile(o.latency, 0.50).Seconds(),
		"sim_p99_latency_s": percentile(o.latency, 0.99).Seconds(),
	}
	if o.admissions > 0 {
		m["jobs_per_s"] = float64(o.jobs) / wall
		m["jain"] = o.jain
	}
	return m
}

// counterMetrics maps per-layer names to the cluster registry counters
// they are read from.
var counterMetrics = map[string]string{
	"kvstore.gets":          "kv.gets",
	"kvstore.bytes_read":    "kv.bytes_read",
	"kvstore.bytes_written": "kv.bytes_written",
	"objstore.gets":         "obj.gets",
	"objstore.bytes_read":   "obj.bytes_read",
	"msgqueue.published":    "mq.published",
	"faas.invocations":      "faas.invocations",
	"faas.cold_starts":      "faas.cold_starts",
	"faas.quota_rejections": "faas.quota_rejections",
	"exchange.pulls":        "xchg.pulls",
}

// layerValues derives the per-layer metrics from the three runs of a
// traced repetition: plain (untraced, for counters, allocations and the
// overhead baseline), probed (decorators and CPU profile) and traced
// (core.Job.Trace, for the simulated phase split; nil for the fleet).
func layerValues(gen, stage time.Duration, plain, probed, traced *outcome, p *probes) (map[string]float64, error) {
	prof, err := parseCPUProfile(probed.call.profile)
	if err != nil {
		return nil, err
	}
	steps := float64(plain.steps)
	wall := plain.call.wall.Seconds()
	m := map[string]float64{
		"sparse.self_share":      prof.selfShare("sparse"),
		"model.self_share":       prof.selfShare("model"),
		"consistency.self_share": prof.selfShare("consistency"),
		"core.self_share":        prof.selfShare("core"),
		"dataset.self_share":     prof.selfShare("dataset", "shard"),
		"objstore.self_share":    prof.selfShare("objstore"),
		"sched.self_share":       prof.selfShare("sched", "fit", "knee"),
		"tenant.self_share":      prof.selfShare("tenant"),
		"exchange.pull_cum_share": prof.cumShare(func(fn string) bool {
			return pkgOf(fn) == "exchange" && strings.Contains(fn, ".Pull")
		}),
		"exchange.publish_cum_share": prof.cumShare(func(fn string) bool {
			return pkgOf(fn) == "exchange" && strings.Contains(fn, ".Publish")
		}),
		"model.cum_share": prof.cumShare(func(fn string) bool {
			return pkgOf(fn) == "model"
		}),

		"optimizer.step_s_per_step": perCall(&p.stepNS, &p.stepCalls),
		"model.gradient_s_per_step": perCall(&p.gradNS, &p.gradCalls),
		"model.loss_s_per_step":     perCall(&p.lossNS, &p.lossCalls),

		"core.host_parallelism": plain.call.cpu.Seconds() / wall,
		"dataset.generate_s":    gen.Seconds(),
		"dataset.stage_s":       stage.Seconds(),
		"sched.removals":        float64(plain.removals),

		"tenant.wait_p50_s": percentile(plain.waits, 0.50).Seconds(),
		"tenant.wait_p99_s": percentile(plain.waits, 0.99).Seconds(),
		"tenant.scale_ins":  float64(plain.scaleIns),
		"tenant.admissions": float64(plain.admissions),
		"tenant.jain":       plain.jain,
		"runtime.alloc_mb":  float64(plain.call.allocBytes) / (1 << 20),
		"trace.overhead_s":  probed.call.wall.Seconds() - wall,
	}
	if plain.call.allCPU > 0 {
		m["runtime.gc_share"] = plain.call.gcCPU / plain.call.allCPU
	}
	for name, counter := range counterMetrics {
		if steps > 0 {
			m[name] = float64(plain.counters[counter]) / steps
		}
	}
	if steps > 0 {
		m["update_bytes_per_step"] = float64(plain.updateBytes) / steps
		m["runtime.allocs_per_step"] = float64(plain.call.allocObjects) / steps
	}
	if traced != nil {
		m["trace.job_trace_overhead_s"] = traced.call.wall.Seconds() - wall
		var sum core.StepPhase
		for _, ph := range traced.phases {
			sum.Fetch += ph.Fetch
			sum.Compute += ph.Compute
			sum.Publish += ph.Publish
			sum.Pull += ph.Pull
			sum.Barrier += ph.Barrier
		}
		if n := float64(len(traced.phases)); n > 0 {
			ms := func(d time.Duration) float64 { return float64(d) / 1e6 / n }
			m["sim.fetch_ms"] = ms(sum.Fetch)
			m["sim.compute_ms"] = ms(sum.Compute)
			m["sim.publish_ms"] = ms(sum.Publish)
			m["sim.pull_ms"] = ms(sum.Pull)
			m["sim.barrier_ms"] = ms(sum.Barrier)
		}
	}
	return m, nil
}
