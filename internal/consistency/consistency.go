// Package consistency implements the synchronization models of MLLess
// (§3.1, §4.1): Bulk Synchronous Parallel (BSP) and the paper's
// contribution, Insignificance-bounded Synchronous Parallel (ISP) — a
// variant of Approximate Synchronous Parallel specialized to accelerate
// the broadcast of local updates between workers in one data center.
//
// Under ISP each worker accumulates its per-parameter updates locally and
// broadcasts a parameter's accumulated value only once it becomes
// significant:
//
//	|Σ_{t'=t_p..t} u_{i,t'} / x_{i,t}| > v_t,   v_t = v/√t
//
// (§4.1, "Significance function"). The threshold decays over time, so
// late-training updates — relatively smaller — still propagate. With
// v = 0 every update is significant and ISP reduces exactly to BSP
// (Corollary, Appendix A), a property the tests pin down.
package consistency

import (
	"math"

	"mlless/internal/sparse"
)

// Mode selects the synchronization model of a training job.
type Mode int

const (
	// BSP is Bulk Synchronous Parallel: all updates propagate every step.
	BSP Mode = iota + 1
	// ISP filters non-significant updates (the paper's optimization).
	ISP
	// Async drops the global barrier entirely (the fully asynchronous
	// protocol of the journal version of MLLess, arXiv 2206.05786):
	// workers free-run on their own clocks, pulling announced peer
	// updates under a bounded staleness cap. It composes with the ISP
	// significance filter (set Significance > 0).
	Async
)

// String renders the mode name.
func (m Mode) String() string {
	switch m {
	case BSP:
		return "bsp"
	case ISP:
		return "isp"
	case Async:
		return "async"
	default:
		return "unknown"
	}
}

// Variant selects a significance-filter design for ablation studies.
// The paper's design (Accumulate) keeps withheld updates and broadcasts
// their sum once significant; the ablations quantify why that matters.
type Variant int

const (
	// Accumulate is the paper's ISP filter: insignificant updates are
	// summed into a residual and eventually flushed (§4.1).
	Accumulate Variant = iota
	// Drop discards insignificant updates instead of accumulating them
	// (the naive alternative ISP improves upon; convergence degrades).
	Drop
	// NoDecay keeps the threshold constant at v instead of decaying it
	// as v/√t (late-training updates, relatively smaller, stop flowing).
	NoDecay
)

// String renders the variant name.
func (v Variant) String() string {
	switch v {
	case Accumulate:
		return "accumulate"
	case Drop:
		return "drop"
	case NoDecay:
		return "no-decay"
	default:
		return "unknown"
	}
}

// Filter is the per-worker ISP significance filter. It owns the
// accumulated residual δ of not-yet-broadcast updates. The zero value is
// unusable; construct with NewFilter. Filter is not safe for concurrent
// use: each worker owns one.
type Filter struct {
	v       float64
	variant Variant

	residual *sparse.Vector

	// Scratch reused across Add calls.
	out   *sparse.Vector
	flush []uint32

	// Stats.
	flushed     int64
	accumulated int64
}

// NewFilter returns the paper's filter with base significance threshold
// v ≥ 0. v = 0 makes every update significant (BSP behaviour).
func NewFilter(v float64) *Filter {
	return NewFilterVariant(v, Accumulate)
}

// NewFilterVariant returns a filter of the given design (for the
// ablation benches).
func NewFilterVariant(v float64, variant Variant) *Filter {
	if v < 0 {
		v = 0
	}
	return &Filter{v: v, variant: variant, residual: sparse.New()}
}

// Threshold returns v_t = v/√t for 1-based step t (constant v for the
// NoDecay variant).
func (f *Filter) Threshold(t int) float64 {
	if f.variant == NoDecay {
		return f.v
	}
	if t < 1 {
		t = 1
	}
	return f.v / math.Sqrt(float64(t))
}

// Add accumulates this step's update u into the residual and returns the
// significant portion to broadcast, removing it from the residual.
// params is the worker's current (noisy) parameter vector x̃_t against
// which relative significance is measured. A parameter whose current
// value is zero is treated as maximally significant whenever its residual
// is non-zero (the relative change is unbounded).
//
// The returned vector is scratch owned by the filter and valid only
// until the next Add; callers that retain it must Clone.
func (f *Filter) Add(t int, u *sparse.Vector, params sparse.Dense) *sparse.Vector {
	vt := f.Threshold(t)
	if vt == 0 && f.residual.Len() == 0 {
		// BSP: every coordinate is significant and nothing is withheld,
		// so the broadcast is u's non-zero entries. Accumulating u into
		// the empty residual and re-setting each entry would move the
		// same exact values through two hash tables; a layout copy does
		// it in one. u may hold entries that Scale underflowed to zero,
		// which accumulation would have skipped, so they are dropped.
		if f.out == nil {
			f.out = sparse.New()
		}
		f.out.CopyFrom(u)
		f.out.DropZeros()
		f.flushed += int64(f.out.Len())
		return f.out
	}
	f.residual.AddVector(u)

	if f.out == nil {
		f.out = sparse.NewWithCapacity(f.residual.Len())
	} else {
		f.out.Clear()
	}
	out := f.out

	if f.variant == Drop {
		// Naive filtering: significant coordinates pass through, the
		// rest are lost forever.
		f.residual.ForEach(func(i uint32, delta float64) {
			x := 0.0
			if int(i) < len(params) {
				x = params[i]
			}
			if (x == 0 && delta != 0) || (x != 0 && math.Abs(delta/x) > vt) {
				out.Set(i, delta)
			}
		})
		f.flushed += int64(out.Len())
		f.residual.Clear()
		return out
	}

	flush := f.flush[:0]
	f.residual.ForEach(func(i uint32, delta float64) {
		x := 0.0
		if int(i) < len(params) {
			x = params[i]
		}
		significant := false
		if x == 0 {
			significant = delta != 0
		} else {
			significant = math.Abs(delta/x) > vt
		}
		if significant {
			out.Set(i, delta)
			flush = append(flush, i)
		}
	})
	for _, i := range flush {
		f.residual.Remove(i)
	}
	f.flush = flush[:0]
	f.flushed += int64(out.Len())
	f.accumulated += int64(f.residual.Len())
	return out
}

// Residual exposes the accumulated non-significant updates δ. The
// scale-in eviction protocol needs it: a leaving worker's local replica
// already contains these updates, which is why its model is stored and
// averaged into the survivors (§4.2, eviction policy).
func (f *Filter) Residual() *sparse.Vector { return f.residual }

// PendingL1 returns the taxicab mass of the residual, a measure of how
// much state the filter is currently withholding.
func (f *Filter) PendingL1() float64 { return f.residual.NormL1() }

// FlushedEntries returns the cumulative count of broadcast coordinates.
func (f *Filter) FlushedEntries() int64 { return f.flushed }

// Reset clears the residual and statistics.
func (f *Filter) Reset() {
	f.residual = sparse.New()
	f.flushed = 0
	f.accumulated = 0
}

// BaseThreshold returns the configured v.
func (f *Filter) BaseThreshold() float64 { return f.v }
