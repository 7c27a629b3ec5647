package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"mlless/internal/core"
	"mlless/internal/dataset"
	"mlless/internal/netmodel"
	"mlless/internal/trace"
)

// AblDataset benchmarks the streaming columnar dataset tier (DESIGN.md
// §13) on two axes:
//
//   - training: one workload's traced per-step fetch time — a fetch is
//     one ranged read of the batch's columnar block inside its shard.
//   - generation: StreamCriteo throughput at increasing scale, pinning
//     the tier's core claim — peak memory tracks the shard chunk, not
//     the dataset. The full run streams paper-scale Criteo (47M
//     samples, 1e8 hashed dims) without ever materializing it.
//
// Columns use "-" where a metric does not apply to the row's phase.
func AblDataset(opts Options) (Table, error) {
	start := time.Now()
	t := Table{
		ID:    "abl-dataset",
		Title: "Streaming columnar dataset tier: fetch cost and generation scale",
		Header: []string{"phase", "config", "samples", "dim", "par", "wall-time",
			"size-MB", "batches", "fetch/step", "peak-heap-MiB", "final-loss"},
		Notes: []string{
			"train row: fetch/step is the traced per-step mean of one ranged read of a shard block",
			"stream rows: wall-time is host time to generate+encode; fetch/step is the COS-link transfer time of the mean batch block",
			"peak-heap-MiB samples runtime.HeapAlloc during streaming: bounded by parallelism x shard chunk, not dataset size",
		},
	}
	train := benchSection{
		Columns: []string{"workload", "samples", "steps", "exec_time", "mean_fetch_per_step", "final_loss"},
		Notes: []string{
			"exec_time and mean_fetch_per_step are virtual (simulated) and deterministic; a fetch is one ranged read of the batch's columnar block inside its shard",
		},
	}
	stream := benchSection{
		Columns: []string{"config", "samples", "dim", "parallelism", "wall_time", "staged_MB", "batches", "cos_fetch_per_batch", "peak_heap_MiB"},
		Notes: []string{
			"wall_time is host time to generate and encode the full shard stream (sequential scanner owns the RNG, parallel encode workers, in-order collector; byte-identical at any parallelism)",
			"cos_fetch_per_batch is the modeled COS-link transfer time of the mean batch block, set by BatchSize (1250), not by dataset size",
			"peak_heap_MiB samples runtime.HeapAlloc during streaming: the generator's ground-truth weight table plus parallelism x chunk encode buffers, never the dataset",
		},
	}

	// Training: the fetch cost of the staged workload.
	wl := LRCriteo(true)
	steps := 60
	if opts.Quick {
		steps = 30
	}
	cl, job := wl.Make(4)
	job.Spec.MaxSteps = steps
	job.Spec.TargetLoss = 0
	job.Trace = trace.New()
	label := "abl-dataset-" + wl.Name
	res, err := runJob(opts, cl, job, label)
	if err != nil {
		return Table{}, fmt.Errorf("abl-dataset (%s): %w", label, err)
	}
	samples := wl.numBatch * wl.BatchSize
	exec := res.ExecTime.Round(time.Millisecond).String()
	fetch := meanFetch(res.StepPhases).Round(time.Microsecond).String()
	t.Rows = append(t.Rows, []string{
		"train", wl.Name, fmt.Sprintf("%d", samples), "-", "-", exec, "-",
		fmt.Sprintf("%d", res.Steps), fetch, "-", fmt.Sprintf("%.6f", res.FinalLoss),
	})
	train.Points = append(train.Points, []interface{}{wl.Name, samples, res.Steps, exec, fetch, round6(res.FinalLoss)})

	// Generation: stream Criteo at increasing scale into a counting
	// sink. Quick keeps CI fast; the full sweep ends at paper scale.
	type genPoint struct {
		samples, hashDim, par int
	}
	points := []genPoint{
		{60_000, 200_000, 1},
		{60_000, 200_000, 0}, // 0 = GOMAXPROCS
	}
	if !opts.Quick {
		points = append(points,
			genPoint{1_200_000, 1_000_000, 0},
			genPoint{47_000_000, 100_000_000, 0},
		)
	}
	link := netmodel.COSLink()
	var headline string
	for _, pt := range points {
		cfg := dataset.DefaultCriteoConfig()
		cfg.Samples = pt.samples
		cfg.HashDim = pt.hashDim
		sc := dataset.StreamConfig{BatchSize: 1250, Parallelism: pt.par}
		var sink dataset.CountSink
		stop := trackPeakHeap()
		genStart := time.Now()
		stats, err := dataset.StreamCriteo(cfg, sc, &sink)
		wall := time.Since(genStart).Round(time.Millisecond)
		peakMiB := stop()
		if err != nil {
			return Table{}, fmt.Errorf("abl-dataset: stream %d samples: %w", pt.samples, err)
		}
		par := pt.par
		if par == 0 {
			par = runtime.GOMAXPROCS(0)
		}
		dim := cfg.HashDim + cfg.NumericFeatures
		mb := float64(stats.Bytes) / 1e6
		perBatch := link.TransferTime(int(stats.Bytes / int64(stats.Batches))).Round(time.Microsecond)
		t.Rows = append(t.Rows, []string{
			"stream", "criteo-raw",
			fmt.Sprintf("%d", stats.Samples),
			fmt.Sprintf("%d", dim),
			fmt.Sprintf("%d", par),
			wall.String(),
			fmt.Sprintf("%.1f", mb),
			fmt.Sprintf("%d", stats.Batches),
			perBatch.String(),
			fmt.Sprintf("%.0f", peakMiB),
			"-",
		})
		stream.Points = append(stream.Points, []interface{}{"criteo-raw", stats.Samples, dim, par, wall.String(),
			float64(int(mb*10+0.5)) / 10, stats.Batches, perBatch.String(), int(peakMiB + 0.5)})
		headline = fmt.Sprintf("The streaming generator stages %d Criteo-shaped samples (%d hashed dims, %.1f MB of shards) "+
			"in %v at parallelism %d within a %.0f MiB peak heap, bounded by the generator model and chunk size, not the dataset; "+
			"training on %s fetches one ranged shard-block read per step (%s mean).",
			stats.Samples, dim, mb, wall, par, peakMiB, wl.Name, fetch)
	}

	doc := struct {
		Description string       `json:"description"`
		Host        benchHost    `json:"host"`
		Train       benchSection `json:"train"`
		Stream      benchSection `json:"stream"`
		Headline    string       `json:"headline"`
	}{
		Description: "Streaming columnar dataset tier (DESIGN.md §13): mlless-bench -experiment abl-dataset. " +
			"Two phases: (train) one LR-Criteo job's traced per-step fetch; (stream) StreamCriteo generation at increasing " +
			"scale into a counting sink, ending (full run) at the paper's Criteo shape (47M samples, 1e8 hashed dimensions) " +
			"without materializing the dataset. Train-phase times are virtual and deterministic; stream-phase wall times are " +
			"host time and scale with hardware.",
		Host:     hostOf(time.Since(start)),
		Train:    train,
		Stream:   stream,
		Headline: headline,
	}
	if err := writeBench(opts.ArtifactDir, "BENCH_dataset.json", doc); err != nil {
		return Table{}, fmt.Errorf("abl-dataset: %w", err)
	}
	return t, nil
}

// meanFetch averages the traced per-step fetch phase.
func meanFetch(phases []core.StepPhase) time.Duration {
	if len(phases) == 0 {
		return 0
	}
	var total time.Duration
	for _, p := range phases {
		total += p.Fetch
	}
	return total / time.Duration(len(phases))
}

// trackPeakHeap samples runtime.HeapAlloc on a background goroutine
// until the returned stop function is called; stop reports the peak in
// MiB.
func trackPeakHeap() func() float64 {
	done := make(chan struct{})
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	base := m.HeapAlloc
	peak := base
	var mu sync.Mutex
	go func() {
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				mu.Lock()
				if ms.HeapAlloc > peak {
					peak = ms.HeapAlloc
				}
				mu.Unlock()
			}
		}
	}()
	return func() float64 {
		close(done)
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		mu.Lock()
		defer mu.Unlock()
		if ms.HeapAlloc > peak {
			peak = ms.HeapAlloc
		}
		return float64(peak) / (1 << 20)
	}
}
