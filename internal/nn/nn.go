// Package nn is a compact neural-network substrate with explicit
// forward/backward passes, built so the parameter-server runtime can train
// real models and produce real gradient tensors for the compression
// pipeline to chew on.
//
// The paper trains ResNet-110 on CIFAR-10 on GPUs; no Go deep-learning
// framework (or GPU) exists in this environment, so this package provides
// the closest CPU-trainable equivalent: linear and convolutional layers,
// batch normalization, ReLU, residual blocks with identity mappings, and
// softmax cross-entropy — enough to build "MicroResNet" models that share
// ResNet's architectural signature (identity skips, batch norm, small
// parameter-to-computation ratio).
//
// Design notes:
//   - Activations flow as flat tensors with explicit [N, ...] shapes.
//   - Each layer owns its parameters as named Params; the parameter server
//     compresses per-Param tensors, exactly matching the paper's
//     one-compression-context-per-layer-tensor model (§3).
//   - Batch-norm parameters are flagged NoCompress, reproducing §5.1's
//     exemption of small layers from compression.
//   - Layer kernels fix the float32 operation sequence of every element
//     they produce: each product and each sum is rounded on its own (no
//     math.FMA; Go does not fuse float32 multiply-adds on amd64), and
//     sums run in a fixed order. Linear.Forward sums x[n,i]*W[o,i] in
//     ascending i from +0 and adds b[o] last; Linear.Backward skips a zero
//     upstream gradient (rather than adding 0*x, which differs for -0, Inf
//     and NaN), adds into W's G[o,i] and b's G[o] in ascending batch row,
//     and into dx[n,i] in ascending output. A faster loop nest must keep
//     each element's sequence, as the blocked Linear kernels do against
//     the reference loops in their tests: the parameter server's
//     bit-identity oracle (every distributed run against one in-process
//     server) and perfbench's trial-to-trial weight check both assume
//     that the same seed and batches give the same bits.
package nn

import (
	"fmt"

	"threelc/internal/tensor"
)

// Param is a named trainable tensor with its gradient.
type Param struct {
	// Name uniquely identifies the tensor within a model (e.g.
	// "block2.conv1.weight"); the parameter server keys compression
	// contexts by it.
	Name string
	// W holds the parameter values.
	W *tensor.Tensor
	// G accumulates the gradient of the loss w.r.t. W for the current
	// batch. Layers add into G, and Model.TrainStep zeroes it first (via
	// ZeroGrad). Optimizers read it but never clear it; the parameter
	// server's fused opt.SGD sweep neither reads nor writes it.
	G *tensor.Tensor
	// NoCompress marks small tensors (batch norm scales/offsets) that the
	// training pipeline transmits uncompressed, per §5.1.
	NoCompress bool
}

func newParam(name string, shape ...int) *Param {
	return &Param{Name: name, W: tensor.New(shape...), G: tensor.New(shape...)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.G.Zero() }

// Layer is one differentiable module. Forward computes outputs from
// inputs; Backward consumes d(loss)/d(output) and returns d(loss)/d(input),
// accumulating parameter gradients along the way. Layers cache whatever
// they need between Forward and Backward, so a layer instance processes
// one batch at a time.
type Layer interface {
	// Forward runs the layer on x. train toggles training-time behavior
	// (batch-norm statistics).
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward propagates dout back through the most recent Forward.
	Backward(dout *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*Param
}

// Sequential chains layers.
type Sequential struct {
	Layers []Layer
}

// NewSequential builds a sequential container.
func NewSequential(layers ...Layer) *Sequential {
	return &Sequential{Layers: layers}
}

// Forward runs every layer in order.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward runs every layer's backward pass in reverse order.
func (s *Sequential) Backward(dout *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dout = s.Layers[i].Backward(dout)
	}
	return dout
}

// Params concatenates all layers' parameters.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Model is a network plus its loss head.
type Model struct {
	Net  *Sequential
	Loss *SoftmaxCrossEntropy
}

// Params returns the model's trainable parameters in a stable order.
func (m *Model) Params() []*Param { return m.Net.Params() }

// NumParams returns the total number of scalar parameters.
func (m *Model) NumParams() int {
	n := 0
	for _, p := range m.Params() {
		n += p.W.Len()
	}
	return n
}

// ZeroGrad clears every parameter gradient.
func (m *Model) ZeroGrad() {
	for _, p := range m.Params() {
		p.ZeroGrad()
	}
}

// TrainStep runs forward + backward on one batch and returns the mean loss.
// Gradients are accumulated into the Params' G tensors (zeroed first).
func (m *Model) TrainStep(x *tensor.Tensor, labels []int) float64 {
	m.ZeroGrad()
	logits := m.Net.Forward(x, true)
	loss := m.Loss.Forward(logits, labels)
	dlogits := m.Loss.Backward()
	m.Net.Backward(dlogits)
	return loss
}

// Predict returns the argmax class for each example in the batch.
func (m *Model) Predict(x *tensor.Tensor) []int {
	logits := m.Net.Forward(x, false)
	shape := logits.Shape()
	if len(shape) != 2 {
		panic(fmt.Sprintf("nn: Predict wants [N, classes] logits, got %v", shape))
	}
	n, c := shape[0], shape[1]
	d := logits.Data()
	out := make([]int, n)
	for i := 0; i < n; i++ {
		best, bi := d[i*c], 0
		for j := 1; j < c; j++ {
			if d[i*c+j] > best {
				best, bi = d[i*c+j], j
			}
		}
		out[i] = bi
	}
	return out
}

// Accuracy evaluates top-1 accuracy of the model on (x, labels).
func (m *Model) Accuracy(x *tensor.Tensor, labels []int) float64 {
	pred := m.Predict(x)
	correct := 0
	for i, p := range pred {
		if p == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}

// CopyParamsFrom copies all parameter values from src (same architecture).
func (m *Model) CopyParamsFrom(src *Model) {
	sp := src.Params()
	dp := m.Params()
	if len(sp) != len(dp) {
		panic("nn: CopyParamsFrom architecture mismatch")
	}
	for i := range dp {
		dp[i].W.CopyFrom(sp[i].W)
	}
}
