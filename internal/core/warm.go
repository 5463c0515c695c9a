package core

import "context"

// This file is the chained solve: PredictWarm chains the inner MVA fixed
// point across outer iterations — each round's overlap step starts from the
// previous round's converged residence — and applies safeguarded Aitken
// acceleration to the inner loop. The first round starts cold, so the
// answer depends only on the Config, never on what the Predictor solved
// before.
//
// Correctness contract: the inner overlap fixed point is a smooth
// contraction solved to 1e-10, so the chained outer trajectory tracks the
// cold one up to inner-tolerance noise and the result matches cold Predict
// within 1e-6 relative — property-tested over randomized flat and
// multi-class specs (warm_test.go). A chained seed is the previous round's
// lumped residence, so it stays constant on the cells unless the cells
// themselves changed between rounds; a round whose seed is not constant on
// its cells solves element-wise (see predict).

// PredictWarm runs the model with its inner MVA fixed point chained across
// outer iterations and accelerated with safeguarded Aitken extrapolation.
// Results match the cold Predict within 1e-6 relative (property-tested,
// warm_test.go) and are a function of cfg alone: the same cfg gives the
// same bits on any Predictor, whatever it solved before.
func (p *Predictor) PredictWarm(cfg Config) (Prediction, error) {
	return p.predictOne(nil, cfg, true)
}

// PredictWarmContext is PredictWarm honoring ctx between outer iterations
// (see PredictContext).
func (p *Predictor) PredictWarmContext(ctx context.Context, cfg Config) (Prediction, error) {
	return p.predictOne(ctx, cfg, true)
}
