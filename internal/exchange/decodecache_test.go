package exchange

import (
	"sync"
	"testing"

	"mlless/internal/sparse"
	"mlless/internal/vclock"
)

// publishStep publishes sigs[i] as worker ids[i]'s update for step.
func publishStep(t *testing.T, x Exchange, step int, ids []int, sigs []*sparse.Vector) {
	t.Helper()
	var clk vclock.Clock
	for i, id := range ids {
		if _, err := x.Publish(&clk, id, step, sigs[i], nil, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// psPull pulls step for worker into a fresh replica and returns it.
func psPull(t *testing.T, x Exchange, worker, step, dim int, ids []int) sparse.Dense {
	t.Helper()
	var clk vclock.Clock
	params := make(sparse.Dense, dim)
	pc := &PullCtx{Worker: worker, Clock: &clk, FromStep: step - 1, Step: step, ActiveIDs: ids, Params: params}
	if _, err := x.Pull(pc); err != nil {
		t.Fatal(err)
	}
	return params
}

func TestPullAppliesRepublishedUpdate(t *testing.T) {
	// A key re-published between two pulls holds new bytes under the
	// same key; the second pull must decode and apply them, not the
	// first pull's cached form.
	const dim = 30
	env := testEnv(3, dim, 0)
	x, err := New(KindParamServer, env)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{0, 1, 2}
	sigs := randomSigs(3, dim, 10, 21)
	publishStep(t, x, 1, ids, sigs)
	if got, want := psPull(t, x, 0, 1, dim, ids), wantDelta(0, dim, sigs); !equalDense(got, want) {
		t.Fatalf("first pull = %v, want %v", got, want)
	}

	sigs[1] = randomSigs(1, dim, 10, 22)[0]
	publishStep(t, x, 1, ids[1:2], sigs[1:2])
	if got, want := psPull(t, x, 0, 1, dim, ids), wantDelta(0, dim, sigs); !equalDense(got, want) {
		t.Fatalf("pull after re-publish = %v, want %v", got, want)
	}

	// The async path reads through the same cache.
	sigs[2] = randomSigs(1, dim, 10, 23)[0]
	publishStep(t, x, 1, ids[2:3], sigs[2:3])
	params := make(sparse.Dense, dim)
	var clk vclock.Clock
	keys := []string{x.UpdateKey(1, 1), x.UpdateKey(1, 2)}
	if _, _, err := x.PullKeys(&clk, keys, nil, params); err != nil {
		t.Fatal(err)
	}
	if want := wantDelta(0, dim, sigs); !equalDense(params, want) {
		t.Fatalf("PullKeys after re-publish = %v, want %v", params, want)
	}
}

func TestTreePullAppliesRepublishedTotal(t *testing.T) {
	const dim = 40
	env := testEnv(4, dim, 2)
	x, err := New(KindTree, env)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{0, 1, 2, 3}
	runCollectiveStep(t, x, ids, dim, randomSigs(4, dim, 15, 31))

	// Overwrite the root total, then pull again as rank 1 with no own
	// update: the replica must gain exactly the new total.
	total := randomSigs(1, dim, 15, 32)[0]
	var clk vclock.Clock
	env.Obj.Put(&clk, env.Bucket, rootKey(1), total.Encode())
	params := make(sparse.Dense, dim)
	pc := &PullCtx{Worker: 1, Clock: &clk, FromStep: 0, Step: 1, ActiveIDs: ids,
		Params: params, OwnSig: sparse.New()}
	if _, err := x.Pull(pc); err != nil {
		t.Fatal(err)
	}
	want := make(sparse.Dense, dim)
	want.AddSparse(total)
	if !equalDense(params, want) {
		t.Fatalf("pull after re-publish = %v, want %v", params, want)
	}
}

func TestDecodeCacheLifetime(t *testing.T) {
	// Pulls fill the cache; expiring the step empties it again.
	// Teardown drops whatever expiry left.
	const dim = 40
	for _, kind := range []string{KindParamServer, KindScatter, KindTree} {
		t.Run(kind, func(t *testing.T) {
			env := testEnv(4, dim, 0)
			x, err := New(kind, env)
			if err != nil {
				t.Fatal(err)
			}
			ids := []int{0, 1, 2, 3}
			var janitor vclock.Clock
			for step := 1; step <= 3; step++ {
				sigs := randomSigs(4, dim, 15, int64(40+step))
				if kind == KindParamServer {
					publishStep(t, x, step, ids, sigs)
					for _, id := range ids {
						psPull(t, x, id, step, dim, ids)
					}
				} else {
					runCollectiveStepAt(t, x, step, ids, dim, sigs)
				}
				if cached(x) == 0 {
					t.Fatalf("step %d: pulls cached nothing", step)
				}
				if step < 3 {
					x.Expire(&janitor, step, ids)
					if n := cached(x); n != 0 {
						t.Fatalf("step %d: %d entries survived Expire", step, n)
					}
				}
			}
			x.Teardown()
			if n := cached(x); n != 0 {
				t.Fatalf("%d entries survived Teardown", n)
			}
		})
	}
}

func TestConcurrentPullsShareDecodes(t *testing.T) {
	// The parallel driver pulls one step from many goroutines; every
	// replica must equal the serial one bit for bit (run under -race to
	// check the cache's locking).
	const dim, p = 200, 8
	env := testEnv(p, dim, 0)
	x, err := New(KindParamServer, env)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, p)
	for i := range ids {
		ids[i] = i
	}
	sigs := randomSigs(p, dim, 60, 51)
	publishStep(t, x, 1, ids, sigs)
	got := make([]sparse.Dense, p)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var clk vclock.Clock
			got[i] = make(sparse.Dense, dim)
			pc := &PullCtx{Worker: i, Clock: &clk, FromStep: 0, Step: 1, ActiveIDs: ids, Params: got[i]}
			if _, err := x.Pull(pc); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	for i := range ids {
		if want := wantDelta(i, dim, sigs); !equalDense(got[i], want) {
			t.Fatalf("worker %d: concurrent pull differs from the peer sum", i)
		}
	}
	if n := cached(x); n != p {
		t.Fatalf("cached %d updates, want one per publisher (%d)", n, p)
	}
}

// cached reads a strategy's decode-cache size; every strategy reports
// it, outside the Exchange interface.
func cached(x Exchange) int { return x.(interface{ Cached() int }).Cached() }

func equalDense(a, b sparse.Dense) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
