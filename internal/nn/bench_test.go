package nn

import (
	"testing"

	"threelc/internal/tensor"
)

var benchLoss float64

// benchTrainStep times Model.TrainStep on one fixed random batch.
func benchTrainStep(b *testing.B, m *Model, x *tensor.Tensor, classes int) {
	rng := tensor.NewRNG(2)
	tensor.FillNormal(x, 1, rng)
	labels := make([]int, x.Shape()[0])
	for i := range labels {
		labels[i] = i % classes
	}
	m.TrainStep(x, labels)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchLoss = m.TrainStep(x, labels)
	}
}

// BenchmarkMLPTrainStep is the compute phase of the perfbench MLP
// workloads: 768->1024->512->10, batch 4.
func BenchmarkMLPTrainStep(b *testing.B) {
	benchTrainStep(b, NewMLP(768, []int{1024, 512}, 10, 1), tensor.New(4, 768), 10)
}

// BenchmarkMicroResNetTrainStep is the compute phase of the perfbench
// ResNet workload: DefaultMicroResNet, NCHW batch 8.
func BenchmarkMicroResNetTrainStep(b *testing.B) {
	cfg := DefaultMicroResNet()
	benchTrainStep(b, NewMicroResNet(cfg), tensor.New(8, cfg.InChannels, cfg.ImageSize, cfg.ImageSize), cfg.Classes)
}
