package core

import "fmt"

// PredictBatch evaluates a batch of configurations on this Predictor:
//
//   - Warm entries chain sequentially through PredictWarm: each solve
//     seeds the pool the next one warm-starts from.
//   - ColdStart entries run sequential cold predictions, bit-identical to
//     per-config Predict.
//
// Results match per-config Predict calls within the warm-start tolerance
// (1e-6 relative, property-tested); ColdStart entries are bit-identical.
// The first failing config aborts the batch with its index wrapped in the
// error. Cold entries are processed after the warm ones (they neither read
// nor feed the warm pool, so the reordering is unobservable in results).
func (p *Predictor) PredictBatch(cfgs []Config) ([]Prediction, error) {
	out := make([]Prediction, len(cfgs))
	var cold []int
	for i := range cfgs {
		if cfgs[i].ColdStart {
			cold = append(cold, i)
			continue
		}
		pred, err := p.predictWarm(nil, cfgs[i])
		if err != nil {
			return nil, fmt.Errorf("core: batch config %d: %w", i, err)
		}
		out[i] = pred
	}
	for _, i := range cold {
		pred, err := p.predict(nil, cfgs[i], nil, false)
		if err != nil {
			return nil, fmt.Errorf("core: batch config %d: %w", i, err)
		}
		out[i] = pred
	}
	return out, nil
}
