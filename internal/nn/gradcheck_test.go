package nn

import (
	"math"
	"testing"

	"threelc/internal/tensor"
)

// numericalGrad estimates d(loss)/d(w) for one scalar w by central
// differences, where loss() re-runs the full forward pass.
func numericalGrad(w *float32, loss func() float64, eps float32) float64 {
	orig := *w
	*w = orig + eps
	lp := loss()
	*w = orig - eps
	lm := loss()
	*w = orig
	return (lp - lm) / (2 * float64(eps))
}

// checkModelGradients verifies analytic gradients of every parameter
// against finite differences on a fixed batch.
func checkModelGradients(t *testing.T, m *Model, x *tensor.Tensor, labels []int, tol float64) {
	t.Helper()
	m.TrainStep(x, labels)
	loss := func() float64 {
		logits := m.Net.Forward(x, true)
		return m.Loss.Forward(logits, labels)
	}
	for _, p := range m.Params() {
		wd := p.W.Data()
		gd := p.G.Data()
		// Spot-check a handful of coordinates per tensor.
		stride := len(wd)/5 + 1
		for i := 0; i < len(wd); i += stride {
			num := numericalGrad(&wd[i], loss, 1e-2)
			ana := float64(gd[i])
			diff := math.Abs(num - ana)
			scale := math.Max(1, math.Max(math.Abs(num), math.Abs(ana)))
			if diff/scale > tol {
				t.Errorf("%s[%d]: analytic %v vs numeric %v", p.Name, i, ana, num)
			}
		}
	}
}

func TestLinearGradients(t *testing.T) {
	// Batch 3 runs only the per-row remainder loops; batch 6 with an odd
	// output count runs the 4-row block and both remainders together.
	for _, tc := range []struct {
		n, out int
		labels []int
	}{
		{3, 4, []int{0, 2, 3}},
		{6, 5, []int{0, 2, 4, 1, 3, 4}},
	} {
		rng := tensor.NewRNG(1)
		m := &Model{
			Net:  NewSequential(NewLinear("fc", 6, tc.out, rng)),
			Loss: NewSoftmaxCrossEntropy(),
		}
		x := tensor.New(tc.n, 6)
		tensor.FillNormal(x, 1, rng)
		checkModelGradients(t, m, x, tc.labels, 2e-2)
	}
}

func TestMLPGradients(t *testing.T) {
	m := NewMLP(8, []int{5}, 3, 2)
	rng := tensor.NewRNG(3)
	x := tensor.New(4, 8)
	tensor.FillNormal(x, 1, rng)
	checkModelGradients(t, m, x, []int{0, 1, 2, 0}, 5e-2)
}

func TestConvGradients(t *testing.T) {
	// 2->3 channels fits inside one partial channel block; 5->5 runs a full
	// 4-wide block plus a remainder channel in every pass.
	for _, tc := range []struct{ inC, outC int }{{2, 3}, {5, 5}} {
		rng := tensor.NewRNG(4)
		m := &Model{
			Net: NewSequential(
				NewConv2D("conv", tc.inC, tc.outC, 3, 1, 1, rng),
				NewGlobalAvgPool(),
			),
			Loss: NewSoftmaxCrossEntropy(),
		}
		x := tensor.New(2, tc.inC, 5, 5)
		tensor.FillNormal(x, 1, rng)
		checkModelGradients(t, m, x, []int{0, 2}, 2e-2)
	}
}

func TestConvStrideGradients(t *testing.T) {
	for _, tc := range []struct {
		inC, outC, k, pad, size int
	}{
		{1, 2, 3, 1, 6},
		{4, 8, 1, 0, 6}, // a ResNet projection shortcut: 1x1, stride 2, no padding
	} {
		rng := tensor.NewRNG(5)
		conv := NewConv2D("conv", tc.inC, tc.outC, tc.k, 2, tc.pad, rng)
		o := conv.outDim(tc.size)
		m := &Model{
			Net: NewSequential(
				conv,
				NewFlatten(),
				NewLinear("head", tc.outC*o*o, 2, rng),
			),
			Loss: NewSoftmaxCrossEntropy(),
		}
		x := tensor.New(2, tc.inC, tc.size, tc.size)
		tensor.FillNormal(x, 1, rng)
		checkModelGradients(t, m, x, []int{0, 1}, 3e-2)
	}
}

func TestBatchNorm2DGradients(t *testing.T) {
	rng := tensor.NewRNG(6)
	m := &Model{
		Net: NewSequential(
			NewConv2D("conv", 1, 2, 3, 1, 1, rng),
			NewBatchNorm2D("bn", 2),
			NewReLU(),
			NewGlobalAvgPool(),
		),
		Loss: NewSoftmaxCrossEntropy(),
	}
	x := tensor.New(3, 1, 4, 4)
	tensor.FillNormal(x, 1, rng)
	checkModelGradients(t, m, x, []int{0, 1, 0}, 6e-2)
}

func TestBatchNorm1DGradients(t *testing.T) {
	rng := tensor.NewRNG(7)
	m := &Model{
		Net: NewSequential(
			NewLinear("fc", 5, 4, rng),
			NewBatchNorm1D("bn", 4),
			NewReLU(),
			NewLinear("head", 4, 3, rng),
		),
		Loss: NewSoftmaxCrossEntropy(),
	}
	x := tensor.New(4, 5)
	tensor.FillNormal(x, 1, rng)
	checkModelGradients(t, m, x, []int{0, 1, 2, 1}, 6e-2)
}

func TestResidualBlockGradients(t *testing.T) {
	rng := tensor.NewRNG(8)
	m := &Model{
		Net: NewSequential(
			NewResidualBlock("block", 2, 2, 1, rng), // identity shortcut
			NewGlobalAvgPool(),
		),
		Loss: NewSoftmaxCrossEntropy(),
	}
	x := tensor.New(2, 2, 4, 4)
	tensor.FillNormal(x, 1, rng)
	checkModelGradients(t, m, x, []int{0, 1}, 8e-2)
}

func TestResidualBlockProjectionGradients(t *testing.T) {
	rng := tensor.NewRNG(9)
	m := &Model{
		Net: NewSequential(
			NewResidualBlock("block", 2, 4, 2, rng), // projection shortcut
			NewGlobalAvgPool(),
		),
		Loss: NewSoftmaxCrossEntropy(),
	}
	x := tensor.New(2, 2, 4, 4)
	tensor.FillNormal(x, 1, rng)
	checkModelGradients(t, m, x, []int{0, 3}, 8e-2)
}
