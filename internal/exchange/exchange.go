// Package exchange is the pluggable gradient-exchange subsystem: it
// owns how per-step model updates move between workers. The paper's
// MLLess design routes every update through a low-latency KV tier — the
// "indirect-communication tax" of FaaS platforms whose functions cannot
// open connections to each other (§2, §3.2). That parameter-server
// pattern is one point in a larger design space: "Towards Demystifying
// Serverless ML Training" shows the exchange topology (parameter server
// vs ScatterReduce vs AllReduce through shared storage) is the dominant
// term in serverless training cost. This package abstracts the exchange
// behind one interface with three deterministic implementations:
//
//   - ParamServer: the paper's sharded-KV path, extracted from the core
//     engine verbatim. Byte-identical traces and bit-identical loss
//     histories to the pre-extraction engine are a pinned invariant.
//   - ScatterReduce: workers write per-chunk update contributions to
//     object storage, each worker reduces the chunk it owns and
//     republishes the partial sum (one round, P² requests).
//   - TreeReduce: hierarchical fan-in over object storage with a
//     configurable fan-out (O(log P) rounds, O(P) requests).
//
// The engine (internal/core) drives whichever strategy a job selects
// through the same per-step state machine: Publish after compute,
// Rounds/RunRound reduction phases between the compute and pull halves,
// Pull at sync points. All strategies compose with the ISP significance
// filter (they move whatever the filter emits) and with fault injection
// (time lost to reclamation is recharged by the engine's recovery path).
//
// Key namespaces: ParamServer stores update payloads in the KV store
// under <job>/upd/<step>/<worker> — exactly the engine's historical
// protocol keys. The collectives keep that name as the update's protocol
// identity (announcements, diagnostics) but move payload bytes through a
// per-job object-store bucket: scatter contributions live at
// s<step>/c<chunk>/w<position>, reduced chunks at s<step>/r<chunk>;
// tree partial sums at s<step>/l<level>/<position> with the total at
// s<step>/root.
//
// Charging: KV and object-store traffic is charged through the shared
// substrate pipelines (per-stream bandwidth, NIC sharing, max-of-
// branches fan-out — see objstore.PutMulti). Reduction arithmetic is
// charged through Env.Charge at 2 effective flops per folded
// coordinate, mirroring the engine's apply-side constant. Collective
// request traffic is billed per object-store request class (BillInto),
// because unlike the mini-batch traffic it differs across strategies.
package exchange

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"mlless/internal/cost"
	"mlless/internal/kvstore"
	"mlless/internal/objstore"
	"mlless/internal/sparse"
	"mlless/internal/trace"
	"mlless/internal/vclock"
)

// Strategy kinds (Spec.Exchange).
const (
	// KindParamServer is the paper's KV-mediated parameter-server
	// exchange, the default.
	KindParamServer = "ps"
	// KindScatter is ScatterReduce through object storage.
	KindScatter = "scatter"
	// KindTree is hierarchical tree reduction through object storage.
	KindTree = "tree"
)

// DefaultTreeFanout is the tree strategy's fan-in degree when the job
// leaves it unset.
const DefaultTreeFanout = 4

// Validation errors.
var (
	// ErrUnknownKind reports an unrecognized strategy name.
	ErrUnknownKind = errors.New("exchange: unknown strategy")
	// ErrBadFanout reports a nonsensical tree fan-out.
	ErrBadFanout = errors.New("exchange: tree fan-out must be >= 2 (or 0 for the default)")
)

// Validate checks a (kind, fanout) pair without building a strategy.
// The zero fanout selects DefaultTreeFanout.
func Validate(kind string, fanout int) error {
	switch kind {
	case KindParamServer, KindScatter, KindTree:
	default:
		return fmt.Errorf("%w %q (want %s, %s or %s)",
			ErrUnknownKind, kind, KindParamServer, KindScatter, KindTree)
	}
	if kind == KindTree && fanout != 0 && fanout < 2 {
		return fmt.Errorf("%w, got %d", ErrBadFanout, fanout)
	}
	return nil
}

// IsCollective reports whether kind names a storage-collective strategy
// (anything but the parameter server). Unknown kinds are not
// collective; Validate rejects them separately.
func IsCollective(kind string) bool {
	return kind == KindScatter || kind == KindTree
}

// Env is everything a strategy needs from the engine: the substrates it
// moves bytes through, the job's namespaces, and the compute-charging
// hook. The engine builds one Env per job during setup.
type Env struct {
	// KV is the low-latency exchange tier (the parameter-server medium).
	KV *kvstore.Sharded
	// Obj is the object store the collectives move payloads through.
	Obj *objstore.Store
	// Reg is the unified metrics registry ("xchg.*" counters).
	Reg *trace.Registry
	// NS is the job's key-namespace prefix (the job id).
	NS string
	// Bucket is the job-private object-store bucket for collective
	// traffic; Teardown drops it.
	Bucket string
	// Dim is the model's parameter count (chunk-range arithmetic).
	Dim int
	// Workers is the initial pool size (per-worker state allocation).
	Workers int
	// Fanout is the tree strategy's fan-in degree (0 = default).
	Fanout int
	// Charge advances a worker's clock by the virtual duration of flops
	// floating-point operations (the engine's compute model).
	Charge func(clk *vclock.Clock, worker int, flops float64)
}

// PullCtx carries one worker's pull-and-apply pass. The engine owns one
// per worker and reuses it every sync point; Keys and Vals are scratch
// the strategy grows in place, so the steady-state pull allocates
// nothing.
type PullCtx struct {
	// Worker is the pulling worker's id; Clock is its instance clock.
	Worker int
	Clock  *vclock.Clock
	// The pull window (FromStep, Step]: under per-step synchronization
	// FromStep = Step-1. Collectives require a single-step window.
	FromStep, Step int
	// ActiveIDs are the active workers' ids in pool order; a worker's
	// position in this slice is its collective rank.
	ActiveIDs []int
	// Params is the worker's dense replica the pull applies updates to.
	Params sparse.Dense
	// OwnSig is the significant update this worker published this step.
	// Collectives subtract it after applying the reduced total, because
	// the worker already applied its full local update at compute time.
	OwnSig *sparse.Vector
	// ReadyAt is the instant every reduction-round write is visible;
	// collectives wait for it before reading reduced data.
	ReadyAt time.Duration
	// Announced is the update-key set promised by drained announcements,
	// for the missing-update diagnostic.
	Announced map[string]bool
	// Keys and Vals are per-worker scratch owned by the strategy.
	Keys []string
	Vals [][]byte
}

// Exchange is one gradient-exchange strategy. Implementations are
// deterministic: driven with the same job on the same cluster they
// produce bit-identical arithmetic and byte-identical traces, whichever
// driver (seq or par) runs the phases.
type Exchange interface {
	// Name returns the strategy kind.
	Name() string
	// Collective reports whether the strategy needs reduction rounds
	// between the publish and pull halves of a step. The engine keeps
	// the historical parameter-server code path byte-identical by gating
	// every new step on this.
	Collective() bool
	// UpdateKey names worker's step update in the job's protocol
	// namespace — the identity announcements carry.
	UpdateKey(step, worker int) string
	// Publish moves a worker's significant update into the exchange
	// medium and returns the update's canonical encoding, staged in
	// scratch (the engine's pooled wire buffer), for the announce and
	// loss-report messages that follow. activeIDs is nil unless
	// Collective.
	Publish(clk *vclock.Clock, worker, step int, sig *sparse.Vector, activeIDs []int, scratch []byte) ([]byte, error)
	// Rounds returns how many reduction phases a p-worker pool needs
	// between publish and pull (0 for non-collectives).
	Rounds(p int) int
	// RunRound executes one worker's part of reduction round r. readyAt
	// is the pool-wide instant at which every previous phase's write is
	// visible; workers with work this round wait for it first.
	RunRound(clk *vclock.Clock, worker, step, round int, activeIDs []int, readyAt time.Duration) error
	// Pull applies the window's peer updates to the worker's replica and
	// returns the coordinate count applied (the engine charges apply
	// compute on it).
	Pull(p *PullCtx) (int, error)
	// PullKeys applies an explicit, already-resolved update-key list —
	// the async schedule's pull path, valid for non-collectives only.
	// It returns the (possibly grown) view scratch and the coordinate
	// count applied.
	PullKeys(clk *vclock.Clock, keys []string, vals [][]byte, params sparse.Dense) ([][]byte, int, error)
	// Expire drops step's exchange data for the given active ids,
	// charging the janitor clock (server-side TTL: no worker time).
	Expire(clk *vclock.Clock, step int, ids []int)
	// Teardown releases medium-side state at end of job (bucket drop)
	// and the decode cache.
	Teardown()
	// BillInto adds the strategy's request charges to the job's bill.
	BillInto(m *cost.Meter)
}

// New builds the strategy kind names against env.
func New(kind string, env Env) (Exchange, error) {
	if err := Validate(kind, env.Fanout); err != nil {
		return nil, err
	}
	switch kind {
	case KindParamServer:
		return newParamServer(env), nil
	case KindScatter:
		return newScatterReduce(env), nil
	default:
		return newTreeReduce(env), nil
	}
}

// AnnouncedSet renders the announce-derived expected key set, sorted,
// for the missing-update diagnostic.
func AnnouncedSet(announced map[string]bool) string {
	if len(announced) == 0 {
		return "none"
	}
	keys := make([]string, 0, len(announced))
	for k := range announced {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return "[" + strings.Join(keys, " ") + "]"
}

// posOf returns worker's collective rank: its position in the active-id
// slice.
func posOf(ids []int, worker int) int {
	for i, id := range ids {
		if id == worker {
			return i
		}
	}
	return -1
}
