package core

import "fmt"

// PredictBatch evaluates a batch of configurations in order on this
// Predictor, each through PredictWarm: the results are those of per-config
// PredictWarm calls, bit for bit, and match per-config Predict calls within
// the chained-solve tolerance (1e-6 relative, property-tested). The first
// failing config aborts the batch with its index wrapped in the error.
func (p *Predictor) PredictBatch(cfgs []Config) ([]Prediction, error) {
	out := make([]Prediction, len(cfgs))
	for i := range cfgs {
		pred, err := p.PredictWarm(cfgs[i])
		if err != nil {
			return nil, fmt.Errorf("core: batch config %d: %w", i, err)
		}
		out[i] = pred
	}
	return out, nil
}
