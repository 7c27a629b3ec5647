package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strings"
	"testing"
	"time"

	"mlless/internal/consistency"
	"mlless/internal/dataset"
	"mlless/internal/faults"
	"mlless/internal/sched"
	"mlless/internal/vclock"
)

// historyDigest hashes a run's loss history — length, then per step the
// step number, pool width and the IEEE-754 bits of the smoothed and raw
// losses — so two runs share a digest only if they train bit for bit
// the same. Times are left out: they follow the bytes a fetch moves,
// which is a property of the wire format, not of the numerics.
func historyDigest(res *Result) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(res.History)))
	for _, p := range res.History {
		put(uint64(p.Step))
		put(uint64(p.Workers))
		put(math.Float64bits(p.Loss))
		put(math.Float64bits(p.RawLoss))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// lossGolden is a loss history recorded from the row-encoded batch tier
// the engine fetched from before columnar shards became its only data
// tier. Every recorded run trained bit-identically on both tiers.
type lossGolden struct {
	name   string
	lr     bool // testLRJob instead of testPMFJob
	p      int
	spec   Spec
	steps  int
	digest string
}

// reclaimFaults kills containers mid-run and nothing else.
func reclaimFaults(seed uint64) faults.Spec {
	return faults.Spec{Seed: seed, ReclaimProb: 0.9, ReclaimMeanLife: 3 * time.Second}
}

func assertLossGoldens(t *testing.T, goldens []lossGolden) {
	t.Helper()
	for _, g := range goldens {
		t.Run(g.name, func(t *testing.T) {
			cl, job := testPMFJob(t, g.p, g.spec)
			if g.lr {
				cl, job = testLRJob(t, g.p, g.spec)
			}
			res, err := Run(cl, job)
			if err != nil {
				t.Fatal(err)
			}
			if res.Steps != g.steps {
				t.Fatalf("ran %d steps, golden %d", res.Steps, g.steps)
			}
			if d := historyDigest(res); d != g.digest {
				t.Fatalf("loss history digest %s, golden %s", d, g.digest)
			}
		})
	}
}

// TestDataShardLossMatchesBatchPMF pins PMF training on the shard tier
// to the batch tier's recorded loss histories: lock-step BSP/ISP/SSP,
// BSP under container reclamation, and the async schedule (staleness
// cap 3) with and without reclamation.
func TestDataShardLossMatchesBatchPMF(t *testing.T) {
	asyncK3 := Spec{Sync: consistency.Async, Staleness: 3}
	asyncK3Reclaim := asyncK3
	asyncK3Reclaim.MaxSteps = 120
	asyncK3Reclaim.Faults = reclaimFaults(5)
	asyncK3.MaxSteps = 60
	assertLossGoldens(t, []lossGolden{
		{"bsp", false, 4, Spec{MaxSteps: 60}, 60, "fa2a7df0493596366496192ee994a627"},
		{"isp", false, 4, Spec{MaxSteps: 60, Sync: consistency.ISP, Significance: 0.01}, 60, "bcbdc8b66bbc1fb58ee7a1e07d100e85"},
		{"ssp", false, 4, Spec{MaxSteps: 60, Staleness: 3}, 60, "b079aeaf1fe62b727425b95dad899d80"},
		{"bsp-reclaim", false, 4, Spec{MaxSteps: 120, Faults: reclaimFaults(7)}, 120, "548174656a52e10c1aa32c2405dd48c5"},
		{"async-k3", false, 4, asyncK3, 60, "fa2a7df0493596366496192ee994a627"},
		{"async-k3-reclaim", false, 4, asyncK3Reclaim, 120, "548174656a52e10c1aa32c2405dd48c5"},
	})
}

// TestDataShardLossMatchesBatchLR covers the Criteo path, including the
// min-max normalization and, under ISP, the scale-in auto-tuner, whose
// evictions (six in this run) change the pool width mid-history.
func TestDataShardLossMatchesBatchLR(t *testing.T) {
	assertLossGoldens(t, []lossGolden{
		{"bsp", true, 4, Spec{MaxSteps: 40}, 40, "137510c209a7529e3ba62ecd3ccca0a3"},
		{"isp-autotune", true, 8, Spec{
			Sync: consistency.ISP, Significance: 0.5, MaxSteps: 300, AutoTune: true,
			Sched: sched.Config{Epoch: 300 * time.Millisecond, S: 0.1},
		}, 300, "2aef6337314ae950897f9dc6e215f248"},
	})
}

// TestDataValidation: a corrupt staged shard fails the run with an
// error naming the fetch, never a panic or a silent zero batch.
func TestDataValidation(t *testing.T) {
	cl, job := testPMFJob(t, 2, Spec{MaxSteps: 5})
	var clk vclock.Clock
	cl.COS.Put(&clk, job.Bucket, dataset.ShardKey(0), []byte("not a shard"))
	_, err := Run(cl, job)
	if err == nil || !strings.Contains(err.Error(), "fetch batch") {
		t.Fatalf("corrupt shard: got %v, want a fetch error", err)
	}
}

// TestDataShardMissingManifest: a job against a bucket with no staging
// manifest fails fast at setup.
func TestDataShardMissingManifest(t *testing.T) {
	cl, job := testPMFJob(t, 2, Spec{MaxSteps: 1})
	job.Bucket = "unstaged"
	if _, err := Run(cl, job); err == nil {
		t.Fatal("job without a staged manifest must fail")
	}
}

// TestDataShardManifestMismatch: a stale NumBatches in the job spec is
// rejected against the staged manifest.
func TestDataShardManifestMismatch(t *testing.T) {
	cl, job := testPMFJob(t, 2, Spec{MaxSteps: 1})
	job.NumBatches--
	if _, err := Run(cl, job); err == nil {
		t.Fatal("manifest/job batch-count mismatch must fail")
	}
}

// TestDataShardDeterminism: two identical runs on the feature-shard
// (Criteo) path are byte-identical in steps, times and losses.
// TestDeterminism covers the rating-shard (PMF) path.
func TestDataShardDeterminism(t *testing.T) {
	run := func() *Result {
		cl, job := testLRJob(t, 4, Spec{TargetLoss: 0.62, MaxSteps: 400})
		res, err := Run(cl, job)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Steps != b.Steps || a.ExecTime != b.ExecTime || a.FinalLoss != b.FinalLoss {
		t.Fatalf("non-deterministic: (%d, %v, %v) vs (%d, %v, %v)",
			a.Steps, a.ExecTime, a.FinalLoss, b.Steps, b.ExecTime, b.FinalLoss)
	}
	if len(a.History) != len(b.History) {
		t.Fatalf("history lengths %d vs %d", len(a.History), len(b.History))
	}
	for i := range a.History {
		if a.History[i] != b.History[i] {
			t.Fatalf("history diverges at step %d", i+1)
		}
	}
}

// TestDataShardStepAllocsBounded pins the steady-state step budget on
// the feature-shard (Criteo) fetch path with the same bound that
// TestSteadyStateStepAllocsBounded holds the rating-shard path to: the
// kernels read the fetched view in place, so the data path adds nothing
// per step.
func TestDataShardStepAllocsBounded(t *testing.T) {
	mallocs := func(steps int) float64 {
		cl, job := testLRJob(t, 4, Spec{MaxSteps: steps})
		return runMallocs(t, cl, job)
	}
	mallocs(10) // warm pools, caches and lazy scratch
	short := mallocs(40)
	long := mallocs(120)
	marginal := (long - short) / 80
	t.Logf("marginal allocations per step (feature shards): %.1f", marginal)
	if marginal > 250 {
		t.Fatalf("feature-shard steady-state step allocates %.1f per step, want <= 250", marginal)
	}
}
