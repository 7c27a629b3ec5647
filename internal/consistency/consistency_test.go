package consistency

import (
	"math"
	"testing"
	"testing/quick"

	"mlless/internal/sparse"
	"mlless/internal/xrand"
)

func vec(entries map[uint32]float64) *sparse.Vector {
	v := sparse.New()
	for i, val := range entries {
		v.Set(i, val)
	}
	return v
}

func TestModeString(t *testing.T) {
	if BSP.String() != "bsp" || ISP.String() != "isp" || Mode(0).String() != "unknown" {
		t.Fatal("Mode.String wrong")
	}
}

func TestZeroThresholdFlushesEverything(t *testing.T) {
	f := NewFilter(0)
	params := sparse.Dense{100, 100, 100}
	u := vec(map[uint32]float64{0: 1e-9, 2: -1e-9})
	out := f.Add(1, u, params)
	if !out.Equal(u) {
		t.Fatalf("v=0 must flush everything: got %v", out)
	}
	if f.Residual().Len() != 0 {
		t.Fatal("v=0 left a residual")
	}
}

func TestISPReducesToBSPCorollary(t *testing.T) {
	// Appendix A corollary: with v = 0, ISP ≡ BSP. Simulate two replicas
	// receiving identical update streams through filters with v = 0 and
	// assert the flushed streams are identical to the raw ones at every
	// step.
	r := xrand.New(1)
	f := NewFilter(0)
	params := sparse.NewDense(50)
	for t0 := 1; t0 <= 100; t0++ {
		u := sparse.New()
		for k := 0; k < 5; k++ {
			u.Set(uint32(r.Intn(50)), r.NormFloat64())
		}
		out := f.Add(t0, u, params)
		if !out.Equal(u) {
			t.Fatalf("step %d: v=0 filter altered the update", t0)
		}
		params.AddSparse(u)
	}
}

func TestSmallUpdatesAccumulate(t *testing.T) {
	f := NewFilter(0.5)
	params := sparse.Dense{1000}
	// Relative change 1e-3 << v_1 = 0.5: withheld.
	out := f.Add(1, vec(map[uint32]float64{0: 1}), params)
	if out.Len() != 0 {
		t.Fatalf("insignificant update flushed: %v", out)
	}
	if f.Residual().Get(0) != 1 {
		t.Fatal("residual not accumulated")
	}
	// Second identical update: still below threshold, residual = 2.
	out = f.Add(2, vec(map[uint32]float64{0: 1}), params)
	if out.Len() != 0 || f.Residual().Get(0) != 2 {
		t.Fatalf("residual = %v", f.Residual().Get(0))
	}
}

func TestAccumulatedUpdateEventuallySignificant(t *testing.T) {
	f := NewFilter(0.5)
	params := sparse.Dense{10}
	var flushedAt int
	for step := 1; step <= 20; step++ {
		out := f.Add(step, vec(map[uint32]float64{0: 1}), params)
		if out.Len() > 0 {
			flushedAt = step
			// The complete history is encoded in one update (§4.1).
			if got := out.Get(0); got != float64(step) {
				t.Fatalf("flushed %v at step %d, want accumulated %d", got, step, step)
			}
			break
		}
	}
	if flushedAt == 0 {
		t.Fatal("accumulated update never became significant")
	}
	if f.Residual().Len() != 0 {
		t.Fatal("flush left residual behind")
	}
}

func TestThresholdDecaysAsInvSqrt(t *testing.T) {
	f := NewFilter(0.7)
	if f.Threshold(1) != 0.7 {
		t.Fatalf("v_1 = %v", f.Threshold(1))
	}
	if math.Abs(f.Threshold(4)-0.35) > 1e-12 {
		t.Fatalf("v_4 = %v", f.Threshold(4))
	}
	if f.Threshold(0) != 0.7 {
		t.Fatal("non-positive step must clamp to 1")
	}
}

func TestDecayMakesLateUpdatesFlow(t *testing.T) {
	// An update of fixed relative size 0.1 is insignificant at step 1
	// (v=0.7) but significant at step 100 (v_100 = 0.07).
	f := NewFilter(0.7)
	params := sparse.Dense{10}
	if out := f.Add(1, vec(map[uint32]float64{0: 1}), params); out.Len() != 0 {
		t.Fatal("relative 0.1 flushed at step 1")
	}
	f2 := NewFilter(0.7)
	if out := f2.Add(100, vec(map[uint32]float64{0: 1}), params); out.Len() != 1 {
		t.Fatal("relative 0.1 withheld at step 100")
	}
}

func TestZeroParamTreatedAsSignificant(t *testing.T) {
	f := NewFilter(0.7)
	params := sparse.Dense{0, 5}
	out := f.Add(1, vec(map[uint32]float64{0: 1e-12}), params)
	if out.Get(0) != 1e-12 {
		t.Fatal("update to zero-valued parameter must be significant")
	}
}

func TestOutOfRangeIndexTreatedAsZeroParam(t *testing.T) {
	f := NewFilter(0.7)
	params := sparse.Dense{5}
	out := f.Add(1, vec(map[uint32]float64{10: 0.5}), params)
	if out.Get(10) != 0.5 {
		t.Fatal("out-of-range coordinate must flush")
	}
}

func TestMixedSignificance(t *testing.T) {
	f := NewFilter(0.5)
	params := sparse.Dense{1, 1000}
	u := vec(map[uint32]float64{0: 1, 1: 1}) // relative 1.0 and 0.001
	out := f.Add(1, u, params)
	if out.Get(0) != 1 || out.Get(1) != 0 {
		t.Fatalf("mixed filter: %v", out)
	}
	if f.Residual().Get(1) != 1 || f.Residual().Get(0) != 0 {
		t.Fatalf("residual: %v", f.Residual())
	}
}

func TestBoundedDivergenceInvariant(t *testing.T) {
	// ISP's core guarantee (Theorem 1 machinery): what a peer misses is
	// exactly the residual, and each withheld coordinate is small
	// relative to its parameter. Simulate a stream and verify that at
	// every step, for every residual coordinate i,
	// |δ_i / x_i| ≤ v_t' for the threshold at its last Add.
	r := xrand.New(7)
	f := NewFilter(0.7)
	params := sparse.NewDense(30)
	for i := range params {
		params[i] = 1 + r.Float64()
	}
	for step := 1; step <= 200; step++ {
		u := sparse.New()
		for k := 0; k < 4; k++ {
			u.Set(uint32(r.Intn(30)), r.NormFloat64()*0.01)
		}
		out := f.Add(step, u, params)
		// Apply both flushed and raw: local view always has everything.
		params.AddSparse(out)
		vt := f.Threshold(step)
		f.Residual().ForEach(func(i uint32, delta float64) {
			if params[i] != 0 && math.Abs(delta/params[i]) > vt {
				t.Fatalf("step %d: residual coord %d violates bound: |%v/%v| > %v",
					step, i, delta, params[i], vt)
			}
		})
	}
}

func TestFlushedPlusResidualEqualsTotal(t *testing.T) {
	// Conservation: sum of everything flushed plus the residual equals
	// the sum of all updates ever added (no update is lost or duplicated).
	r := xrand.New(9)
	if err := quick.Check(func(seed uint64) bool {
		rr := xrand.New(seed ^ r.Uint64())
		f := NewFilter(rr.Float64())
		params := sparse.NewDense(20)
		for i := range params {
			params[i] = rr.NormFloat64() * 10
		}
		total := sparse.New()
		flushed := sparse.New()
		for step := 1; step <= 50; step++ {
			u := sparse.New()
			for k := 0; k < 3; k++ {
				u.Set(uint32(rr.Intn(20)), rr.NormFloat64())
			}
			total.AddVector(u)
			flushed.AddVector(f.Add(step, u, params))
		}
		recon := flushed.Clone()
		recon.AddVector(f.Residual())
		diff := recon.Clone()
		diff.AddScaledVector(total, -1)
		return diff.NormL1() < 1e-9
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeThresholdClamped(t *testing.T) {
	f := NewFilter(-1)
	if f.BaseThreshold() != 0 {
		t.Fatal("negative v not clamped")
	}
}

func TestReset(t *testing.T) {
	f := NewFilter(0.9)
	params := sparse.Dense{100}
	f.Add(1, vec(map[uint32]float64{0: 1}), params)
	if f.PendingL1() == 0 {
		t.Fatal("setup failed: nothing pending")
	}
	f.Reset()
	if f.PendingL1() != 0 || f.FlushedEntries() != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestCompressionGrowsWithThreshold(t *testing.T) {
	// Higher v must flush no more coordinates than lower v on the same
	// stream — the mechanism behind Fig 4's monotone speedup.
	run := func(v float64) int64 {
		r := xrand.New(33)
		f := NewFilter(v)
		params := sparse.NewDense(100)
		for i := range params {
			params[i] = 1
		}
		for step := 1; step <= 100; step++ {
			u := sparse.New()
			for k := 0; k < 10; k++ {
				u.Set(uint32(r.Intn(100)), r.NormFloat64()*0.05)
			}
			out := f.Add(step, u, params)
			params.AddSparse(out)
		}
		return f.FlushedEntries()
	}
	loose, mid, strict := run(0), run(0.3), run(0.9)
	if !(strict <= mid && mid <= loose) {
		t.Fatalf("flushed counts not monotone: v=0:%d v=0.3:%d v=0.9:%d", loose, mid, strict)
	}
	if strict == loose {
		t.Fatal("thresholds had no effect at all")
	}
}

func TestVariantString(t *testing.T) {
	if Accumulate.String() != "accumulate" || Drop.String() != "drop" || NoDecay.String() != "no-decay" {
		t.Fatal("variant names wrong")
	}
	if Variant(99).String() != "unknown" {
		t.Fatal("unknown variant name wrong")
	}
}

func TestNoDecayVariantKeepsThresholdConstant(t *testing.T) {
	f := NewFilterVariant(0.7, NoDecay)
	if f.Threshold(1) != 0.7 || f.Threshold(10000) != 0.7 {
		t.Fatalf("NoDecay threshold changed: %v, %v", f.Threshold(1), f.Threshold(10000))
	}
}

func TestDropVariantDiscardsInsignificant(t *testing.T) {
	f := NewFilterVariant(0.5, Drop)
	params := sparse.Dense{1000}
	// Relative 1e-3: insignificant — and under Drop, gone for good.
	out := f.Add(1, vec(map[uint32]float64{0: 1}), params)
	if out.Len() != 0 {
		t.Fatal("insignificant update flushed")
	}
	if f.Residual().Len() != 0 {
		t.Fatal("Drop variant kept a residual")
	}
	// Repeating the same small update never accumulates to significance.
	for step := 2; step <= 50; step++ {
		if out := f.Add(step, vec(map[uint32]float64{0: 1}), params); out.Len() != 0 {
			t.Fatalf("Drop variant flushed at step %d", step)
		}
	}
}

func TestDropVariantPassesSignificant(t *testing.T) {
	f := NewFilterVariant(0.5, Drop)
	params := sparse.Dense{1, 0}
	out := f.Add(1, vec(map[uint32]float64{0: 2, 1: 3}), params)
	if out.Get(0) != 2 {
		t.Fatal("significant update dropped")
	}
	if out.Get(1) != 3 {
		t.Fatal("zero-param coordinate must be significant under Drop too")
	}
}

// refFilter is the filter's two-pass definition over plain maps:
// accumulate u into the residual, then flush every significant
// coordinate. Per-coordinate sums do not depend on iteration order, so
// it is bit-exact against Filter on every path.
type refFilter struct {
	v        float64
	residual map[uint32]float64
	flushed  int64
}

func (f *refFilter) add(t int, u *sparse.Vector, params sparse.Dense) map[uint32]float64 {
	u.ForEach(func(i uint32, val float64) {
		if s := f.residual[i] + val; s == 0 {
			delete(f.residual, i)
		} else {
			f.residual[i] = s
		}
	})
	vt := f.v / math.Sqrt(float64(t))
	out := make(map[uint32]float64)
	for i, delta := range f.residual {
		x := 0.0
		if int(i) < len(params) {
			x = params[i]
		}
		if (x == 0 && delta != 0) || (x != 0 && math.Abs(delta/x) > vt) {
			out[i] = delta
			delete(f.residual, i)
		}
	}
	f.flushed += int64(len(out))
	return out
}

// sameEntries reports whether v holds exactly want, bit for bit.
func sameEntries(v *sparse.Vector, want map[uint32]float64) bool {
	if v.Len() != len(want) {
		return false
	}
	ok := true
	v.ForEach(func(i uint32, val float64) {
		w, present := want[i]
		ok = ok && present && math.Float64bits(w) == math.Float64bits(val)
	})
	return ok
}

func TestBSPCopyMatchesTwoPass(t *testing.T) {
	// v = 0 takes the copy path (nothing is ever withheld); v > 0 takes
	// the accumulate-and-test path. Both must equal the two-pass
	// definition bit for bit at every step, with identical stats.
	for _, v := range []float64{0, 0.05, 0.7} {
		r := xrand.New(uint64(3 + 100*v))
		f := NewFilter(v)
		ref := &refFilter{v: v, residual: make(map[uint32]float64)}
		params := sparse.NewDense(64)
		for i := range params {
			if i%5 != 0 {
				params[i] = r.NormFloat64()
			}
		}
		for step := 1; step <= 40; step++ {
			u := sparse.New()
			for k := 0; k < 1+r.Intn(30); k++ {
				u.Set(uint32(r.Intn(70)), r.NormFloat64()*0.1)
			}
			if step%4 == 0 {
				// An optimizer's in-place Scale can underflow entries
				// to ±0 and keep them; none may be broadcast or counted.
				u.Set(70, 1e-320)
				u.Set(71, -1e-320)
				u.Scale(1e-10)
				if u.Get(70) != 0 || u.Get(71) != 0 || u.Len() < 2 {
					t.Fatal("the underflowed entries are not held as zeros")
				}
			}
			want := ref.add(step, u, params)
			out := f.Add(step, u, params)
			if !sameEntries(out, want) {
				t.Fatalf("v=%g step %d: broadcast %v, want %v", v, step, out, want)
			}
			if !sameEntries(f.Residual(), ref.residual) {
				t.Fatalf("v=%g step %d: residual %v, want %v", v, step, f.Residual(), ref.residual)
			}
			if f.FlushedEntries() != ref.flushed {
				t.Fatalf("v=%g step %d: FlushedEntries %d, want %d", v, step, f.FlushedEntries(), ref.flushed)
			}
			if v == 0 && f.Residual().Len() != 0 {
				t.Fatalf("step %d: BSP filter withheld %d entries", step, f.Residual().Len())
			}
			// The broadcast is the filter's own copy: the caller may
			// reuse u at once.
			u.Scale(2)
			if !sameEntries(out, want) {
				t.Fatalf("v=%g step %d: broadcast aliases the caller's update", v, step)
			}
			params.AddSparse(out)
		}
		if v > 0 && f.Residual().Len() == 0 {
			t.Fatalf("v=%g: nothing accumulated; the test exercises only flushing", v)
		}
	}
}
