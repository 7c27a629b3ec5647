package dataset

import (
	"testing"

	"mlless/internal/netmodel"
	"mlless/internal/objstore"
	"mlless/internal/vclock"
)

// TestNormalizeMatchesInPlace pins NormalizeInPlace-then-Stage to a
// golden recorded from the staged two-pass map-reduce normalization it
// replaced (stage raw batches, then rescale them in object storage):
// the staged samples are bit-identical.
func TestNormalizeMatchesInPlace(t *testing.T) {
	cfg := smallCriteo()
	cfg.Samples = 400
	ds := GenerateCriteo(cfg)
	NormalizeInPlace(ds, cfg.NumericFeatures)
	store := objstore.New(netmodel.Link{})
	var clk vclock.Clock
	Stage(ds, store, &clk, "a", 80, 5)
	const batches, golden = 5, "e9450ef370419cf1c0ef6a28e5d90e73"
	if n, d := stagedDigest(t, store, "a"); n != batches || d != golden {
		t.Fatalf("staged %d batches digest %s, golden %d batches digest %s", n, d, batches, golden)
	}
}
