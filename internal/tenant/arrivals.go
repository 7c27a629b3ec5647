package tenant

import (
	"fmt"
	"math"
	"time"

	"mlless/internal/core"
	"mlless/internal/xrand"
)

// Template stamps out fresh copies of one workload. New must return an
// identical job every call — same spec, same initial model and
// optimizer state, referencing datasets already staged on the fleet's
// cluster. The fleet's outcome memo leans on that identity: arrivals
// stamped from one template are interchangeable executions, so their
// results memoize by template key (see Arrival.TemplateKey).
type Template struct {
	// Name labels the workload in reports and events.
	Name string
	// Weight is the template's share of the mix (relative, > 0).
	Weight float64
	// New builds one fresh job instance.
	New func() core.Job
}

// GenerateArrivals synthesizes a deterministic submission schedule: n
// jobs with exponential inter-arrival gaps of the given mean, each from
// a tenant drawn uniformly and a workload drawn by mix weight. The
// schedule is a pure function of (seed, tenants, mix, n, meanGap), so
// two same-seed fleets replay byte-identically.
func GenerateArrivals(seed uint64, tenants []string, mix []Template, n int, meanGap time.Duration) ([]Arrival, error) {
	if len(tenants) == 0 || len(mix) == 0 {
		return nil, fmt.Errorf("tenant: arrivals need at least one tenant and one template")
	}
	var wsum float64
	for _, m := range mix {
		if m.Weight <= 0 || m.New == nil {
			return nil, fmt.Errorf("tenant: template %q needs positive weight and a constructor", m.Name)
		}
		wsum += m.Weight
	}
	if n < 1 {
		return nil, fmt.Errorf("tenant: need at least one arrival, got %d", n)
	}
	if meanGap <= 0 {
		return nil, fmt.Errorf("tenant: non-positive mean inter-arrival gap %v", meanGap)
	}

	rng := xrand.New(seed)
	arrivals := make([]Arrival, 0, n)
	var at time.Duration
	for i := 0; i < n; i++ {
		// Exponential gap via inverse transform; 1-U keeps the argument
		// of log strictly positive (U ∈ [0,1)).
		gap := -float64(meanGap) * math.Log(1-rng.Float64())
		at += time.Duration(gap)
		tenant := tenants[rng.Intn(len(tenants))]
		pick := rng.Float64() * wsum
		tpl := mix[len(mix)-1]
		for _, m := range mix {
			if pick < m.Weight {
				tpl = m
				break
			}
			pick -= m.Weight
		}
		arrivals = append(arrivals, Arrival{At: at, Tenant: tenant, Workload: tpl.Name, Job: tpl.New(), TemplateKey: tpl.Name})
	}
	return arrivals, nil
}
