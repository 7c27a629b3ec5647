package main

import (
	"sync/atomic"
	"time"

	"mlless/internal/dataset"
	"mlless/internal/model"
	"mlless/internal/optimizer"
	"mlless/internal/shard"
	"mlless/internal/sparse"
)

// probes accumulates host time spent inside the model and optimizer
// interfaces the engine calls. It measures from outside: the decorators
// forward every call unchanged, so a decorated run trains exactly like
// an undecorated one. Workers run on several goroutines, hence atomics.
type probes struct {
	gradNS, gradCalls atomic.Int64
	lossNS, lossCalls atomic.Int64
	stepNS, stepCalls atomic.Int64
}

// wrapModel decorates m; a nil receiver returns m unchanged. A model
// that offers the zero-copy view interface keeps offering it.
func (p *probes) wrapModel(m model.Model) model.Model {
	if p == nil {
		return m
	}
	t := &timedModel{Model: m, p: p}
	if vm, ok := m.(model.ViewModel); ok {
		return &timedViewModel{timedModel: t, vm: vm}
	}
	return t
}

// wrapOptimizer decorates o; a nil receiver returns o unchanged.
func (p *probes) wrapOptimizer(o optimizer.Optimizer) optimizer.Optimizer {
	if p == nil {
		return o
	}
	return &timedOptimizer{Optimizer: o, p: p}
}

func since(t0 time.Time, ns, calls *atomic.Int64) {
	ns.Add(int64(time.Since(t0)))
	calls.Add(1)
}

type timedModel struct {
	model.Model
	p *probes
}

func (m *timedModel) Gradient(batch []dataset.Sample) *sparse.Vector {
	defer since(time.Now(), &m.p.gradNS, &m.p.gradCalls)
	return m.Model.Gradient(batch)
}

func (m *timedModel) Loss(batch []dataset.Sample) float64 {
	defer since(time.Now(), &m.p.lossNS, &m.p.lossCalls)
	return m.Model.Loss(batch)
}

func (m *timedModel) Clone() model.Model { return m.p.wrapModel(m.Model.Clone()) }

type timedViewModel struct {
	*timedModel
	vm model.ViewModel
}

func (m *timedViewModel) GradientView(b shard.BatchView) *sparse.Vector {
	defer since(time.Now(), &m.p.gradNS, &m.p.gradCalls)
	return m.vm.GradientView(b)
}

func (m *timedViewModel) LossView(b shard.BatchView) float64 {
	defer since(time.Now(), &m.p.lossNS, &m.p.lossCalls)
	return m.vm.LossView(b)
}

type timedOptimizer struct {
	optimizer.Optimizer
	p *probes
}

func (o *timedOptimizer) Step(t int, grad *sparse.Vector) *sparse.Vector {
	defer since(time.Now(), &o.p.stepNS, &o.p.stepCalls)
	return o.Optimizer.Step(t, grad)
}

func (o *timedOptimizer) Clone() optimizer.Optimizer { return o.p.wrapOptimizer(o.Optimizer.Clone()) }

// perCall is the mean seconds per call of one probe.
func perCall(ns, calls *atomic.Int64) float64 {
	if calls.Load() == 0 {
		return 0
	}
	return float64(ns.Load()) / 1e9 / float64(calls.Load())
}
