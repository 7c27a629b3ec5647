package dataset

import "math"

// NormalizeInPlace min-max scales the numeric features (coordinates
// [0, numericFeatures)) of every sample to [0, 1] — the preprocessing
// the paper runs as two chained PyWren-IBM map-reduce jobs before
// training (§3.2): one pass folds per-feature (min, max), the second
// applies the scaling. A numeric coordinate absent from a sample's
// sparse vector is the value 0. Run it before Stage; min and max are
// order-independent, so staging afterwards shuffles scaled samples.
func NormalizeInPlace(ds *Dataset, numericFeatures int) {
	if numericFeatures <= 0 {
		return
	}
	mins := make([]float64, numericFeatures)
	maxs := make([]float64, numericFeatures)
	for f := range mins {
		mins[f] = math.Inf(1)
		maxs[f] = math.Inf(-1)
	}
	for _, s := range ds.Samples {
		for f := 0; f < numericFeatures; f++ {
			v := s.Features.Get(uint32(f))
			if v < mins[f] {
				mins[f] = v
			}
			if v > maxs[f] {
				maxs[f] = v
			}
		}
	}
	for _, s := range ds.Samples {
		scaleSample(s, mins, maxs)
	}
}

// scaleSample applies min-max scaling to one feature sample in place.
func scaleSample(s Sample, mins, maxs []float64) {
	for f := range mins {
		span := maxs[f] - mins[f]
		if span <= 0 {
			s.Features.Set(uint32(f), 0)
			continue
		}
		v := s.Features.Get(uint32(f))
		s.Features.Set(uint32(f), (v-mins[f])/span)
	}
}
