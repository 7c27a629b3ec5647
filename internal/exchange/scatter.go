package exchange

import (
	"fmt"
	"time"

	"mlless/internal/sparse"
	"mlless/internal/vclock"
)

// ScatterReduce shards the reduction itself: the parameter space is cut
// into P contiguous chunks, one per active worker. At publish time each
// worker splits its encoded update along chunk boundaries and uploads
// the P−1 foreign pieces; in the single reduction round it folds the P
// contributions to its own chunk (peers' uploads plus its own piece)
// into a partial sum and republishes it; at pull time it reads the P−1
// reduced chunks and applies the total. Bandwidth per worker is ~2×
// its update size regardless of P — but the request count is O(P²) per
// step, which is exactly the time/cost trade the frontier sweep
// measures against the parameter server and the tree.
type ScatterReduce struct {
	collectiveBase
}

func newScatterReduce(env Env) *ScatterReduce {
	return &ScatterReduce{collectiveBase: newCollectiveBase(env)}
}

// Name implements Exchange.
func (x *ScatterReduce) Name() string { return KindScatter }

// chunkBounds returns chunk c's index range [lo, hi) of a p-way split
// of the parameter space.
func (x *ScatterReduce) chunkBounds(c, p int) (lo, hi uint32) {
	dim := uint64(x.env.Dim)
	return uint32(uint64(c) * dim / uint64(p)), uint32(uint64(c+1) * dim / uint64(p))
}

// Publish implements Exchange: encode the update, split it along chunk
// boundaries, upload the foreign chunks as concurrent streams and
// retain the own-chunk piece for the reduction round.
func (x *ScatterReduce) Publish(clk *vclock.Clock, worker, step int, sig *sparse.Vector, ids []int, scratch []byte) ([]byte, error) {
	payload := sig.EncodeTo(scratch)
	x.cPublishes.Inc()
	p := len(ids)
	if p <= 1 {
		return payload, nil
	}
	pos := posOf(ids, worker)
	if pos < 0 {
		return payload, fmt.Errorf("worker %d not in the active set", worker)
	}
	st := x.state(worker)

	// The chunk pieces partition the payload's entries, so (p−1) headers
	// plus the payload's entry bytes bound the staging buffer: with
	// capacity ensured up front, the appended sub-slices stay stable.
	need := (p-1)*4 + len(payload)
	if cap(st.split) < need {
		st.split = make([]byte, 0, need)
	}
	split := st.split[:0]
	keys := st.keys[:0]
	vals := st.vals[:0]
	var err error
	for c := 0; c < p; c++ {
		lo, hi := x.chunkBounds(c, p)
		if c == pos {
			if st.own, err = sparse.AppendEncodedRange(st.own[:0], payload, lo, hi); err != nil {
				return payload, err
			}
			continue
		}
		start := len(split)
		if split, err = sparse.AppendEncodedRange(split, payload, lo, hi); err != nil {
			return payload, err
		}
		keys = append(keys, contribKey(step, c, pos))
		vals = append(vals, split[start:len(split):len(split)])
	}
	st.split, st.keys, st.vals = split, keys, vals
	x.env.Obj.PutMulti(clk, x.env.Bucket, keys, vals)
	x.classA.Add(int64(len(keys)))
	return payload, nil
}

// Rounds implements Exchange: one reduce-and-republish round.
func (x *ScatterReduce) Rounds(p int) int {
	if p <= 1 {
		return 0
	}
	return 1
}

// RunRound implements Exchange: wait for every contribution, fold the
// own chunk's P pieces in rank order (bit-deterministic) and republish
// the partial sum.
func (x *ScatterReduce) RunRound(clk *vclock.Clock, worker, step, _ int, ids []int, readyAt time.Duration) error {
	p := len(ids)
	if p <= 1 {
		return nil
	}
	pos := posOf(ids, worker)
	if pos < 0 {
		return fmt.Errorf("worker %d not in the active set", worker)
	}
	st := x.state(worker)
	clk.AdvanceTo(readyAt)

	keys := st.keys[:0]
	for q := 0; q < p; q++ {
		if q != pos {
			keys = append(keys, contribKey(step, pos, q))
		}
	}
	st.keys = keys
	st.vals = x.env.Obj.GetMultiViewInto(clk, x.env.Bucket, keys, st.vals)
	x.classB.Add(int64(len(keys)))

	st.acc.Clear()
	folded, vi := 0, 0
	for q := 0; q < p; q++ {
		buf := st.own
		if q != pos {
			buf = st.vals[vi]
			if buf == nil {
				return fmt.Errorf("missing chunk contribution %s", keys[vi])
			}
			vi++
		}
		n, err := sparse.AddEncodedSparse(st.acc, buf)
		if err != nil {
			return err
		}
		folded += n
	}
	x.env.Charge(clk, worker, 2*float64(folded))

	st.red = st.acc.EncodeTo(st.red[:0])
	x.env.Obj.Put(clk, x.env.Bucket, reducedKey(step, pos), st.red)
	x.classA.Add(1)
	x.cRounds.Inc()
	return nil
}

// Pull implements Exchange: wait for every reduced chunk, apply the
// P−1 foreign ones plus the locally-held own chunk, then subtract the
// worker's own contribution.
func (x *ScatterReduce) Pull(p *PullCtx) (int, error) {
	np := len(p.ActiveIDs)
	if np <= 1 {
		x.cPulls.Inc()
		return 0, nil
	}
	pos := posOf(p.ActiveIDs, p.Worker)
	if pos < 0 {
		return 0, fmt.Errorf("worker %d not in the active set", p.Worker)
	}
	st := x.state(p.Worker)
	p.Clock.AdvanceTo(p.ReadyAt)

	keys := p.Keys[:0]
	for c := 0; c < np; c++ {
		if c != pos {
			keys = append(keys, reducedKey(p.Step, c))
		}
	}
	p.Keys = keys
	p.Vals = x.env.Obj.GetMultiViewInto(p.Clock, x.env.Bucket, keys, p.Vals)
	x.classB.Add(int64(len(keys)))

	// Reduced chunks cover disjoint index ranges, so the order they are
	// applied in does not matter. The own chunk's partial sum is still in
	// the accumulator that encoded it; its indices are unique, so adding
	// it from the table adds exactly what its encoding holds.
	applied := 0
	for i, buf := range p.Vals {
		if buf == nil {
			return 0, fmt.Errorf("missing reduced chunk %s", keys[i])
		}
		u, err := x.cache.get(keys[i], buf)
		if err != nil {
			return 0, err
		}
		applied += u.AddTo(p.Params)
	}
	p.Params.AddSparse(st.acc)
	applied += st.acc.Len()
	x.subtractOwn(p)
	x.cPulls.Inc()
	return applied, nil
}
