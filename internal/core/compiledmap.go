package core

import (
	"errors"
	"fmt"

	"indoorloc/internal/localize"
	"indoorloc/internal/trainingdb"
)

// buildLocatorFromCompiled constructs a registered algorithm directly
// over a compiled radio-map view — the serving shape of a v2 artifact,
// where the raw training database never existed in this process. Only
// the algorithms whose entire working state derives from the compiled
// matrices are supported: probabilistic, nnss, knn, wknn and sector.
// Histogram needs raw per-sample tables, and the geometric family
// needs AP positions plus a propagation fit; train those from a .tdb.
//
// The view's own floor parameters govern scoring. cfg.FloorRSSI is
// ignored; Quantize, TopK, K, Shards and ShardCutover apply as in
// buildLocator.
func buildLocatorFromCompiled(name string, c *trainingdb.Compiled, cfg BuildConfig) (localize.Locator, error) {
	if c == nil {
		return nil, errors.New("core: nil compiled view")
	}
	k := cfg.K
	if k <= 0 {
		k = 3
	}
	sharding := &localize.ShardedScorer{Shards: cfg.Shards, Cutover: cfg.ShardCutover}
	var loc localize.Locator
	switch name {
	case AlgoProbabilistic:
		ml := localize.NewMaxLikelihood(nil)
		ml.Precompiled = c
		ml.Sharding = sharding
		ml.Quantize = cfg.Quantize
		ml.TopK = cfg.TopK
		loc = ml
	case AlgoSector:
		s := localize.NewSector(nil)
		s.Precompiled = c
		s.TopK = cfg.TopK
		loc = s
	case AlgoNNSS, AlgoKNN, AlgoWKNN:
		if name == AlgoNNSS {
			k = 1
		}
		knn := localize.NewKNN(nil, k)
		knn.Precompiled = c
		knn.Sharding = sharding
		knn.Weighted = name == AlgoWKNN
		knn.Quantize = cfg.Quantize
		knn.TopK = cfg.TopK
		loc = knn
	default:
		return nil, fmt.Errorf("core: algorithm %q cannot serve from a compiled artifact "+
			"(supported: %s, %s, %s, %s, %s)", name,
			AlgoProbabilistic, AlgoNNSS, AlgoKNN, AlgoWKNN, AlgoSector)
	}
	if w, ok := loc.(localize.Warmer); ok {
		if err := w.Warm(); err != nil {
			return nil, fmt.Errorf("core: warming %s from artifact: %w", name, err)
		}
	}
	return loc, nil
}
