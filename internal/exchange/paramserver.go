package exchange

import (
	"fmt"
	"time"

	"mlless/internal/cost"
	"mlless/internal/sparse"
	"mlless/internal/trace"
	"mlless/internal/vclock"
)

// ParamServer is the paper's exchange: every worker publishes its
// significant update to the low-latency KV tier and every peer pulls it
// from there — the MLLess design's answer to functions that cannot talk
// to each other. The implementation is the engine's historical publish,
// pull and expiry code moved behind the Exchange interface, operation
// for operation: traces and loss histories are byte- and bit-identical
// to the pre-extraction engine, which the determinism suites pin.
type ParamServer struct {
	env                Env
	cache              *decodeCache
	cPublishes, cPulls *trace.Counter
}

func newParamServer(env Env) *ParamServer {
	return &ParamServer{
		env:        env,
		cache:      newDecodeCache(),
		cPublishes: env.Reg.Counter("xchg.publishes"),
		cPulls:     env.Reg.Counter("xchg.pulls"),
	}
}

// Name implements Exchange.
func (x *ParamServer) Name() string { return KindParamServer }

// Collective implements Exchange: the parameter server needs no
// reduction rounds, and the engine keeps its step loop untouched.
func (x *ParamServer) Collective() bool { return false }

// UpdateKey implements Exchange with the engine's historical update-key
// layout.
func (x *ParamServer) UpdateKey(step, worker int) string {
	return fmt.Sprintf("%s/upd/%d/%d", x.env.NS, step, worker)
}

// Publish implements Exchange: encode into the engine's wire buffer and
// Set the update key.
func (x *ParamServer) Publish(clk *vclock.Clock, worker, step int, sig *sparse.Vector, _ []int, scratch []byte) ([]byte, error) {
	payload := sig.EncodeTo(scratch)
	x.env.KV.Set(clk, x.UpdateKey(step, worker), payload)
	x.cPublishes.Inc()
	return payload, nil
}

// Rounds implements Exchange.
func (x *ParamServer) Rounds(int) int { return 0 }

// RunRound implements Exchange; the engine never calls it for
// non-collectives.
func (x *ParamServer) RunRound(*vclock.Clock, int, int, int, []int, time.Duration) error {
	panic("exchange: RunRound on the parameter server")
}

// Pull implements Exchange: batch-read the window's peer update keys in
// pool order and merge each update into the replica from its decoded
// form, decoding it on the first pull of the step.
func (x *ParamServer) Pull(p *PullCtx) (int, error) {
	keys := p.Keys[:0]
	for _, id := range p.ActiveIDs {
		if id != p.Worker {
			for s := p.FromStep + 1; s <= p.Step; s++ {
				keys = append(keys, x.UpdateKey(s, id))
			}
		}
	}
	p.Keys = keys
	p.Vals = x.env.KV.MGetViewInto(p.Clock, keys, p.Vals)
	applied := 0
	for i, buf := range p.Vals {
		if buf == nil {
			return 0, fmt.Errorf("missing peer update %s (announced: %s)", keys[i], AnnouncedSet(p.Announced))
		}
		u, err := x.cache.get(keys[i], buf)
		if err != nil {
			return 0, err
		}
		applied += u.AddTo(p.Params)
	}
	x.cPulls.Inc()
	return applied, nil
}

// PullKeys implements Exchange: the async schedule's pull, over an
// announcement-resolved key list.
func (x *ParamServer) PullKeys(clk *vclock.Clock, keys []string, vals [][]byte, params sparse.Dense) ([][]byte, int, error) {
	vals = x.env.KV.MGetViewInto(clk, keys, vals)
	applied := 0
	for i, buf := range vals {
		if buf == nil {
			return vals, 0, fmt.Errorf("missing announced update %s", keys[i])
		}
		u, err := x.cache.get(keys[i], buf)
		if err != nil {
			return vals, 0, err
		}
		applied += u.AddTo(params)
	}
	x.cPulls.Inc()
	return vals, applied, nil
}

// Expire implements Exchange: delete each worker's update key for the
// step, in pool order, and drop its decoded form.
func (x *ParamServer) Expire(clk *vclock.Clock, step int, ids []int) {
	for _, id := range ids {
		key := x.UpdateKey(step, id)
		x.env.KV.Delete(clk, key)
		x.cache.drop(key)
	}
}

// Teardown implements Exchange: release the decode cache. The KV tier
// is job-shared; expiry already cleaned the namespace.
func (x *ParamServer) Teardown() { x.cache.clear() }

// Cached reports how many decoded updates the strategy holds. Expire
// drops a step's, so it reads zero once every published step has
// expired.
func (x *ParamServer) Cached() int { return x.cache.len() }

// BillInto implements Exchange: KV traffic is covered by the Redis VM's
// hourly price, which the engine already meters.
func (x *ParamServer) BillInto(*cost.Meter) {}
