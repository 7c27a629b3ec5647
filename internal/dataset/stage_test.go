package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"testing"
	"time"

	"mlless/internal/netmodel"
	"mlless/internal/objstore"
	"mlless/internal/shard"
	"mlless/internal/vclock"
)

func TestShardManifestRoundTrip(t *testing.T) {
	buf := EncodeShardManifest(120, 25, 8)
	nb, bs, bps, err := DecodeShardManifest(buf)
	if err != nil || nb != 120 || bs != 25 || bps != 8 {
		t.Fatalf("manifest round trip = (%d,%d,%d,%v)", nb, bs, bps, err)
	}
	for name, bad := range map[string][]byte{
		"short":   buf[:10],
		"long":    append(append([]byte(nil), buf...), 0),
		"magic":   append([]byte{0}, buf[1:]...),
		"version": append(append([]byte(nil), buf[:4]...), append([]byte{9, 0, 0, 0}, buf[8:]...)...),
	} {
		if _, _, _, err := DecodeShardManifest(bad); err == nil {
			t.Errorf("%s manifest accepted", name)
		}
	}
}

// stagedDigest hashes every staged batch of bucket in order: the batch
// count and sizes, then per sample the label's bits plus user and item
// (ratings) or the ascending (index, value bits) pairs (features). Two
// buckets share a digest only if they stage the same samples in the
// same batches, bit for bit.
func stagedDigest(t *testing.T, store *objstore.Store, bucket string) (int, string) {
	t.Helper()
	var clk vclock.Clock
	sc, err := OpenShardCache(store, &clk, bucket)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(sc.NumBatches()))
	for i := 0; i < sc.NumBatches(); i++ {
		bv, err := sc.Fetch(&clk, i)
		if err != nil {
			t.Fatal(err)
		}
		put(uint64(bv.Len()))
		for k := 0; k < bv.Len(); k++ {
			put(math.Float64bits(bv.Label(k)))
			if bv.IsRating() {
				put(uint64(bv.User(k)))
				put(uint64(bv.Item(k)))
				continue
			}
			put(uint64(bv.RowNNZ(k)))
			bv.ForEachPair(k, func(i uint32, v float64) {
				put(uint64(i))
				put(math.Float64bits(v))
			})
		}
	}
	return sc.NumBatches(), hex.EncodeToString(h.Sum(nil)[:16])
}

// TestStageShardsMatchesStage pins Stage's output to goldens recorded
// from the row-encoded batch staging that columnar shards replaced:
// with the same seed, staged batch i holds exactly the samples it held
// then, in the same order — only the wire format differs.
func TestStageShardsMatchesStage(t *testing.T) {
	for _, tc := range []struct {
		name    string
		ds      func() *Dataset
		batches int
		digest  string
	}{
		{"movielens", func() *Dataset { return GenerateMovieLens(smallMovieLens()) },
			79, "f15f1aa846f0f83fc1103104d7bfc3fd"},
		{"criteo", func() *Dataset {
			cfg := smallCriteo()
			cfg.Samples = 500
			return GenerateCriteo(cfg)
		}, 8, "1f8879e881e960fc3ff06c79b024f7e2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := objstore.New(netmodel.Link{})
			var clk vclock.Clock
			const batchSize, seed = 64, 17
			n := Stage(tc.ds(), store, &clk, "s", batchSize, seed)
			sc, err := OpenShardCache(store, &clk, "s")
			if err != nil {
				t.Fatal(err)
			}
			if sc.NumBatches() != n || sc.BatchSize() != batchSize {
				t.Fatalf("manifest = (%d,%d), want (%d,%d)", sc.NumBatches(), sc.BatchSize(), n, batchSize)
			}
			if got, d := stagedDigest(t, store, "s"); got != tc.batches || d != tc.digest {
				t.Fatalf("staged %d batches digest %s, golden %d batches digest %s", got, d, tc.batches, tc.digest)
			}
		})
	}
}

// TestShardCacheChargesRangePerFetch pins the fetch billing: a fetch
// costs one ranged read of the batch's block — first-byte latency plus
// the block's transfer — and repeated fetches of a cached-parse batch
// still pay it in full.
func TestShardCacheChargesRangePerFetch(t *testing.T) {
	link := netmodel.Link{Latency: 10 * time.Millisecond, BandwidthBps: 1e6}
	store := objstore.New(link)
	var clk vclock.Clock
	ds := GenerateMovieLens(smallMovieLens())
	n := Stage(ds, store, &clk, "ml", 100, 1)
	sc, err := OpenShardCache(store, &clk, "ml")
	if err != nil {
		t.Fatal(err)
	}
	blob, ok := store.PeekView("ml", ShardKey(0))
	if !ok {
		t.Fatal("shard 0 missing")
	}
	sh, err := shard.Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	_, blockLen := sh.BatchExtent(2)
	want := link.TransferTime(blockLen)
	for pass := 0; pass < 2; pass++ {
		var fetchClk vclock.Clock
		if _, err := sc.Fetch(&fetchClk, 2); err != nil {
			t.Fatal(err)
		}
		if fetchClk.Now() != want {
			t.Fatalf("pass %d charged %v, want %v (block %d bytes)", pass, fetchClk.Now(), want, blockLen)
		}
	}
	if _, err := sc.Fetch(&clk, n); err == nil {
		t.Fatal("out-of-range batch accepted")
	}
	if _, err := sc.Fetch(&clk, -1); err == nil {
		t.Fatal("negative batch accepted")
	}
}

func TestOpenShardCacheMissingManifest(t *testing.T) {
	store := objstore.New(netmodel.Link{})
	var clk vclock.Clock
	if _, err := OpenShardCache(store, &clk, "empty"); !errors.Is(err, objstore.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

// TestShardViewsSurviveRestaging pins the immutable-snapshot contract:
// views handed out before a shard object is overwritten keep reading
// the old bytes.
func TestShardViewsSurviveRestaging(t *testing.T) {
	store := objstore.New(netmodel.Link{})
	var clk vclock.Clock
	ds := GenerateMovieLens(smallMovieLens())
	Stage(ds, store, &clk, "ml", 100, 1)
	sc, err := OpenShardCache(store, &clk, "ml")
	if err != nil {
		t.Fatal(err)
	}
	bv, err := sc.Fetch(&clk, 0)
	if err != nil {
		t.Fatal(err)
	}
	u, it, r := bv.User(0), bv.Item(0), bv.Rating(0)
	store.Put(&clk, "ml", ShardKey(0), []byte("garbage"))
	if bv.User(0) != u || bv.Item(0) != it || bv.Rating(0) != r {
		t.Fatal("overwriting the shard object mutated a live view")
	}
}
