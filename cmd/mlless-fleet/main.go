// Command mlless-fleet runs a multi-tenant fleet on one shared
// simulated substrate: a seeded synthetic arrival trace over the
// LR/SVM/PMF workload zoo is admitted under per-tenant concurrency
// quotas inside the platform-wide cap, with fair-share admission and
// contention-triggered scale-in (DESIGN.md §14).
//
// Usage:
//
//	mlless-fleet -tenants 3 -jobs 20 -seed 42
//	mlless-fleet -tenants 4 -jobs 60 -quota 8 -max-concurrent 16 -events fleet.log
//	mlless-fleet -tenants 2 -jobs 10 -json fleet.json
//
// Jobs stamped from one workload template share executions through the
// fleet's outcome memo (DESIGN.md §15). The control-plane event log
// (-events) is byte-identical across same-seed invocations — CI pins
// this with a two-run cmp.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"mlless/internal/core"
	"mlless/internal/experiments"
	"mlless/internal/faas"
	"mlless/internal/tenant"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mlless-fleet:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		tenants   = flag.Int("tenants", 3, "number of tenants (named t1..tN)")
		jobs      = flag.Int("jobs", 20, "number of job arrivals in the trace")
		seed      = flag.Uint64("seed", 1, "arrival-trace seed (inter-arrivals, tenant and workload draws)")
		mean      = flag.Duration("arrival-mean", 1500*time.Millisecond, "mean exponential inter-arrival gap (virtual time)")
		quota     = flag.Int("quota", 0, "per-tenant concurrent-activation quota (0 = uncapped)")
		maxConc   = flag.Int("max-concurrent", 14, "platform-wide concurrent-activation cap (0 = provider default)")
		maxSteps  = flag.Int("max-steps", 120, "per-job step cap")
		noScaleIn = flag.Bool("no-scale-in", false, "disable contention-triggered shrink requests")
		events    = flag.String("events", "", "write the control-plane event log to this file")
		jsonOut   = flag.String("json", "", "write the full fleet report as JSON to this file")
		quiet     = flag.Bool("quiet", false, "suppress the event log on stdout")
	)
	flag.Parse()

	for _, check := range []struct {
		name string
		val  int
	}{
		{"tenants", *tenants},
		{"jobs", *jobs},
		{"max-steps", *maxSteps},
	} {
		if check.val < 1 {
			return fmt.Errorf("-%s must be >= 1, got %d", check.name, check.val)
		}
	}
	if *mean <= 0 {
		return fmt.Errorf("-arrival-mean must be positive, got %v", *mean)
	}
	if *quota < 0 {
		return fmt.Errorf("-quota must be >= 0, got %d", *quota)
	}
	if *maxConc < 0 {
		return fmt.Errorf("-max-concurrent must be >= 0, got %d", *maxConc)
	}
	if *quota > 0 && *maxConc > 0 && *quota > *maxConc {
		return fmt.Errorf("-quota %d exceeds -max-concurrent %d: a tenant could never use its allocation", *quota, *maxConc)
	}

	cl := core.NewCluster()
	if *maxConc > 0 {
		cfg := cl.Platform.Config()
		cfg.MaxConcurrent = *maxConc
		cl.Platform = faas.NewPlatformWithRegistry(cfg, cl.Metrics)
	}
	mix := experiments.ZooTemplates(cl, *maxSteps)

	ts := make([]tenant.Tenant, *tenants)
	names := make([]string, *tenants)
	for i := range ts {
		ts[i] = tenant.Tenant{Name: fmt.Sprintf("t%d", i+1), Quota: *quota}
		names[i] = ts[i].Name
	}
	arrivals, err := tenant.GenerateArrivals(*seed, names, mix, *jobs, *mean)
	if err != nil {
		return err
	}
	rep, err := tenant.Run(tenant.Config{
		Cluster: cl, Tenants: ts, Arrivals: arrivals, NoScaleIn: *noScaleIn,
	})
	if err != nil {
		return err
	}

	if !*quiet {
		if err := rep.WriteEvents(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}
	fmt.Printf("fleet: %d jobs, %d tenants, makespan %v, throughput %.1f jobs/h\n",
		len(rep.Jobs), len(rep.Tenants), rep.Makespan.Round(time.Millisecond), rep.ThroughputPerHour)
	fmt.Printf("fairness: Jain %.4f over per-tenant mean slowdowns; latency p50 %v, p99 %v; %d workers scaled in\n",
		rep.Jain, rep.P50Latency.Round(time.Millisecond), rep.P99Latency.Round(time.Millisecond), rep.ScaleIns)
	for _, tr := range rep.Tenants {
		fmt.Printf("  %-4s jobs=%-3d func-time=%-12v func-$=%.6f mean-slowdown=%.3f max-wait=%v\n",
			tr.Name, tr.Jobs, tr.FunctionTime.Round(time.Millisecond), tr.FunctionDollars,
			tr.MeanSlowdown, tr.MaxWait.Round(time.Millisecond))
	}
	fmt.Printf("bill: platform function time %v ($%.6f), split across tenants to the exact GB-second\n",
		rep.FunctionTime.Round(time.Millisecond), rep.FunctionDollars)

	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			return err
		}
		if err := rep.WriteEvents(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if *jsonOut != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(buf, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}
