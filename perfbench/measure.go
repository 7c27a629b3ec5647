package main

import (
	"bytes"
	"fmt"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"
)

// callStats is the host cost of one measured call.
type callStats struct {
	wall, cpu     time.Duration
	allocBytes    uint64
	allocObjects  uint64
	gcCPU, allCPU float64 // runtime/metrics CPU-class estimates, seconds
	profile       []byte  // gzipped pprof CPU profile, when requested
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

// processCPU is the user+system CPU time the process has used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measureCall times fn by host wall clock and process CPU, reads the
// allocation and GC counters around it, and optionally CPU-profiles it.
func measureCall(profile bool, fn func() error) (callStats, error) {
	var buf bytes.Buffer
	if profile {
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return callStats{}, fmt.Errorf("start CPU profile: %w", err)
		}
	}
	rt0 := readRuntime()
	cpu0 := processCPU()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	cpu := processCPU() - cpu0
	rt1 := readRuntime()
	if profile {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return callStats{}, err
	}
	return callStats{
		wall:         wall,
		cpu:          cpu,
		allocBytes:   rt1[0].Value.Uint64() - rt0[0].Value.Uint64(),
		allocObjects: rt1[1].Value.Uint64() - rt0[1].Value.Uint64(),
		gcCPU:        rt1[2].Value.Float64() - rt0[2].Value.Float64(),
		allCPU:       rt1[3].Value.Float64() - rt0[3].Value.Float64(),
		profile:      buf.Bytes(),
	}, nil
}
