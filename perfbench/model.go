package main

import (
	"fmt"

	"abnn2"
)

// The served models are trained deterministically from a fixed training
// seed, independent of --seed, so every run serves the same weights and
// only the inputs vary. An untrained network can map every input to one
// class, which would let a broken protocol pass the correctness check;
// run also fails when a window's predictions span fewer than two classes.
const (
	scheme       = "4(2,2)"
	fracBits     = 6
	trainSeed    = 0x7ea1
	trainSamples = 512
	inputPool    = 256 // distinct inputs per run, cycled through by requests
)

// trainModel builds the workload's quantized model.
func trainModel(kind string) (*abnn2.QuantizedModel, error) {
	ds := abnn2.SyntheticDataset(trainSamples, trainSeed)
	var m *abnn2.Model
	opt := abnn2.TrainOptions{Epochs: 1, Seed: trainSeed}
	switch kind {
	case "mlp":
		m = abnn2.NewMLP(784, 128, 128, 10)
	case "cnn":
		m = abnn2.NewSmallCNN(4)
		opt.BatchSize = 16
		ds.Inputs, ds.Labels = ds.Inputs[:trainSamples/2], ds.Labels[:trainSamples/2]
	default:
		return nil, fmt.Errorf("unknown model %q", kind)
	}
	m.Train(ds.Inputs, ds.Labels, opt)
	return m.Quantize(scheme, fracBits)
}

// inputs returns the run's input pool and the plaintext quantized
// prediction for each, which every secure result is compared against.
func inputs(qm *abnn2.QuantizedModel, seed uint64) ([][]float64, []int) {
	ds := abnn2.SyntheticDataset(inputPool, seed)
	want := make([]int, len(ds.Inputs))
	for i, x := range ds.Inputs {
		want[i] = qm.Predict(x)
	}
	return ds.Inputs, want
}
