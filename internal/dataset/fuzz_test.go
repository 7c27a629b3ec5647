package dataset

import (
	"testing"

	"mlless/internal/netmodel"
	"mlless/internal/objstore"
	"mlless/internal/sparse"
	"mlless/internal/vclock"
)

// FuzzDecodeBatch stages arbitrary bytes as the only shard of a
// one-batch bucket and fetches the batch: corrupt or truncated blobs
// must return errors, never panic or over-allocate, and an accepted
// batch must be fully readable. The seed corpus mirrors
// TestDecodeBatchErrors.
func FuzzDecodeBatch(f *testing.F) {
	blobOf := func(batch []Sample) []byte {
		store := objstore.New(netmodel.Link{})
		var clk vclock.Clock
		StageBatches([][]Sample{batch}, store, &clk, "b", len(batch))
		blob, _ := store.PeekView("b", ShardKey(0))
		return blob
	}
	rating := blobOf([]Sample{{User: 1, Item: 2, Label: 3}})
	v := sparse.New()
	v.Set(0, 2.5)
	v.Set(7, -1)
	feature := blobOf([]Sample{{Features: v, Label: 1, User: -1, Item: -1}})
	f.Add([]byte{})
	f.Add(rating)
	f.Add(rating[:len(rating)-1])
	f.Add(append(append([]byte(nil), rating...), 0))
	badKind := append([]byte(nil), rating...)
	badKind[8] = 9
	f.Add(badKind)
	f.Add(feature)
	f.Fuzz(func(t *testing.T, blob []byte) {
		store := objstore.New(netmodel.Link{})
		var clk vclock.Clock
		store.Put(&clk, "b", ShardKey(0), blob)
		WriteShardManifest(store, &clk, "b", 1, 1, DefaultBatchesPerShard)
		sc, err := OpenShardCache(store, &clk, "b")
		if err != nil {
			t.Fatal(err)
		}
		bv, err := sc.Fetch(&clk, 0)
		if err != nil {
			return
		}
		for k := 0; k < bv.Len(); k++ {
			_ = bv.Label(k)
			if bv.IsRating() {
				_, _ = bv.User(k), bv.Item(k)
			} else {
				_ = bv.Features(k)
			}
		}
	})
}
