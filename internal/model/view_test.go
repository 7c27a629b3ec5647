package model

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"mlless/internal/dataset"
	"mlless/internal/sparse"
	"mlless/internal/xrand"
)

// kernelStep is one recorded step of a kernel trajectory: the loss's
// IEEE-754 bits and gradDigest of the gradient.
type kernelStep struct {
	loss uint64
	grad string
}

// gradDigest hashes a gradient's (index, value bits) pairs in ascending
// index order, so two gradients share a digest only if they are equal
// coordinate for coordinate and bit for bit.
func gradDigest(g *sparse.Vector) string {
	h := sha256.New()
	var buf [12]byte
	g.ForEachSorted(func(i uint32, v float64) {
		binary.LittleEndian.PutUint32(buf[:], i)
		binary.LittleEndian.PutUint64(buf[4:], math.Float64bits(v))
		h.Write(buf[:])
	})
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// assertKernelGolden drives a model's view kernels over several steps —
// applying −0.05 × its own gradient after each, so the parameter
// trajectory is exercised, not just step 0 — and requires every step to
// reproduce want bit for bit. The goldens were recorded from the
// []dataset.Sample kernels the models carried before the view kernels
// became their only ones, on the same batches and trajectory.
func assertKernelGolden(t *testing.T, m Model, batches [][]dataset.Sample, want []kernelStep) {
	t.Helper()
	if len(batches) != len(want) {
		t.Fatalf("%d batches, %d golden steps", len(batches), len(want))
	}
	for step, batch := range batches {
		bv := dataset.ViewOf(batch)
		if l := m.LossView(bv); math.Float64bits(l) != want[step].loss {
			t.Fatalf("step %d: loss %v (bits %#016x), golden bits %#016x",
				step, l, math.Float64bits(l), want[step].loss)
		}
		g := m.GradientView(bv).Clone()
		if d := gradDigest(g); d != want[step].grad {
			t.Fatalf("step %d: gradient digest %s, golden %s", step, d, want[step].grad)
		}
		g.Scale(-0.05)
		m.ApplyUpdate(g)
	}
}

func featureBatches(dim, steps, batchSize int, seed uint64) [][]dataset.Sample {
	rng := xrand.New(seed)
	out := make([][]dataset.Sample, steps)
	for s := range out {
		batch := make([]dataset.Sample, batchSize)
		for k := range batch {
			v := sparse.New()
			for n := rng.Intn(15) + 1; n > 0; n-- {
				v.Set(uint32(rng.Intn(dim)), rng.NormFloat64())
			}
			batch[k] = dataset.Sample{Features: v, Label: float64(rng.Intn(2)), User: -1, Item: -1}
		}
		out[s] = batch
	}
	return out
}

func TestLogRegViewParity(t *testing.T) {
	const dim = 300
	assertKernelGolden(t, NewLogReg(dim, 1e-3), featureBatches(dim, 6, 32, 21), []kernelStep{
		{0x3fe62e42fefa39eb, "6c9483b8a78b08bc"},
		{0x3fe63338c335fcaf, "4624e76891d4d46f"},
		{0x3fe630a8a996be1e, "a8e83f29182c22e9"},
		{0x3fe62cea40c2b14c, "bd0d1b2c1ed2d3f7"},
		{0x3fe6260d55db0e9a, "d3b2ca1a9551b357"},
		{0x3fe62109c5a0c843, "ce10fd47f0554272"},
	})
}

func TestSVMViewParity(t *testing.T) {
	const dim = 300
	assertKernelGolden(t, NewSVM(dim, 1e-3), featureBatches(dim, 6, 32, 22), []kernelStep{
		{0x3ff0000000000000, "2aff77f0245079af"},
		{0x3feffd6089e1a32f, "df81290a6a1f87eb"},
		{0x3feffdc38b65119d, "58826c7a93cda75b"},
		{0x3ff000087823d34c, "0efabf9f66066e1c"},
		{0x3ff0079f000ecd58, "9f68bef33423cb0b"},
		{0x3ff003e9a6621889, "cb4bb0da96b5388e"},
	})
}

func TestPMFViewParity(t *testing.T) {
	const users, items, rank = 40, 90, 6
	rng := xrand.New(23)
	batches := make([][]dataset.Sample, 6)
	for s := range batches {
		batch := make([]dataset.Sample, 32)
		for k := range batch {
			batch[k] = dataset.Sample{
				User:  rng.Intn(users),
				Item:  rng.Intn(items),
				Label: 1 + 4*rng.Float64(),
			}
		}
		batches[s] = batch
	}
	assertKernelGolden(t, NewPMF(users, items, rank, 3.5, 0.02, 131), batches, []kernelStep{
		{0x3ff3eef542310cdd, "fffe0e0bafb5e46e"},
		{0x3ff3b5f20d814d55, "287c5c837cbb565a"},
		{0x3ff4fd450d1bcb6d, "38fb5078bf2c5cbe"},
		{0x3ff2845ad5b2a710, "3b4c3ba803ca8a16"},
		{0x3ff36b99334bc1e5, "657c4bcba266dcba"},
		{0x3ff4a16558d77bf8, "e866165ee5ace154"},
	})
}

func TestViewParityEmptyBatch(t *testing.T) {
	m := NewLogReg(10, 0)
	bv := dataset.ViewOf(nil)
	if m.LossView(bv) != 0 || m.GradientView(bv).Len() != 0 {
		t.Fatal("empty view batch not a no-op")
	}
}
