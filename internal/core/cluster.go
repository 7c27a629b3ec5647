// Package core implements the MLLess training system itself (§3): the
// driver, the serverless supervisor, the data-parallel FaaS workers, and
// the BSP/ISP step engine that coordinates them over the simulated cloud
// substrates. The engine runs the actual ML mathematics (real gradients,
// real convergence) while charging virtual time for compute and for every
// trip through the indirect-communication services, and bills every
// component per the paper's cost model (§6.1).
package core

import (
	"sync"

	"mlless/internal/faas"
	"mlless/internal/kvstore"
	"mlless/internal/msgqueue"
	"mlless/internal/netmodel"
	"mlless/internal/objstore"
	"mlless/internal/trace"
)

// ComputeModel converts floating-point work into virtual compute time.
type ComputeModel struct {
	// FlopsPerSecond is the effective sparse-operation throughput of one
	// vCPU running the Cython-compiled MLLess kernels (§5), including
	// the (de)serialization work that dominates update exchange. The
	// default is calibrated so per-step durations land in the range the
	// paper measures (Fig 2a: ≈0.4–1.2 steps/s for PMF); see
	// EXPERIMENTS.md for the calibration notes.
	FlopsPerSecond float64
}

// DefaultComputeModel returns the calibrated single-vCPU throughput.
func DefaultComputeModel() ComputeModel {
	return ComputeModel{FlopsPerSecond: 8e6}
}

// Cluster bundles the simulated cloud deployment of §6.1: a Redis VM
// (M1.2x16), a messaging VM (C1.4x4), the object storage service and the
// FaaS platform. One Cluster can run many jobs sequentially; services
// accumulate traffic metrics across them.
type Cluster struct {
	// Redis is the low-latency KV tier workers exchange updates through:
	// one endpoint by default, N hash-sharded endpoints when built with
	// NewClusterWithShards.
	Redis *kvstore.Sharded
	// COS is the object store holding dataset mini-batches.
	COS *objstore.Store
	// Broker is the control-plane messaging service.
	Broker *msgqueue.Broker
	// Platform is the FaaS provider running workers and the supervisor.
	Platform *faas.Platform
	// Compute converts flops to virtual seconds.
	Compute ComputeModel
	// Metrics is the unified registry every service's counters live in
	// ("kv.*", "obj.*", "mq.*", "faas.*"); one snapshot covers the whole
	// deployment.
	Metrics *trace.Registry

	mu    sync.Mutex
	jobID int
}

// NewCluster builds a cluster with the default link parameters, FaaS
// configuration and a single-endpoint KV tier. All services share one
// metrics registry (Metrics).
func NewCluster() *Cluster {
	return NewClusterWithShards(1)
}

// NewClusterWithShards builds a cluster whose KV exchange tier is split
// over shards hash-partitioned endpoints (each modelled as its own
// M1.2x16 VM with its own link; see kvstore.Sharded). shards < 1 is
// treated as 1, which reproduces NewCluster exactly.
func NewClusterWithShards(shards int) *Cluster {
	reg := trace.NewRegistry()
	return &Cluster{
		Redis:    kvstore.NewShardedWithRegistry(netmodel.RedisLink(), reg, shards),
		COS:      objstore.NewWithRegistry(netmodel.COSLink(), reg),
		Broker:   msgqueue.NewWithRegistry(netmodel.BrokerLink(), reg),
		Platform: faas.NewPlatformWithRegistry(faas.DefaultConfig(), reg),
		Compute:  DefaultComputeModel(),
		Metrics:  reg,
	}
}

// NextJobID allocates a unique namespace prefix for a job's keys and
// queues: "jobN" standalone, "<tenant>/jobN" for a tenant's job. The
// counter is cluster-wide, so jobs of different tenants sharing one
// substrate can never collide on a key, queue, bucket or billing label
// (jobNamespace documents the scheme). Run calls it once per job; the
// fleet scheduler calls it for an admission it replays from its outcome
// memo instead of running, so numbering follows admission order either
// way.
func (c *Cluster) NextJobID(tenant string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.jobID++
	return jobNamespace(tenant, c.jobID)
}
