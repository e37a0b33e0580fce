package nn

import (
	"fmt"
	"math"
	"testing"

	"threelc/internal/kernel"
	"threelc/internal/tensor"
)

// cloneLinear returns an independent Linear with l's weights, bias and
// accumulated gradients.
func cloneLinear(l *Linear) *Linear {
	c := &Linear{
		Weight: newParam(l.Weight.Name, l.out, l.in),
		Bias:   newParam(l.Bias.Name, l.out),
		in:     l.in,
		out:    l.out,
	}
	c.Weight.W.CopyFrom(l.Weight.W)
	c.Weight.G.CopyFrom(l.Weight.G)
	c.Bias.W.CopyFrom(l.Bias.W)
	c.Bias.G.CopyFrom(l.Bias.G)
	return c
}

func assertBitsEqual(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#08x), want %v (%#08x)", what, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// specialInputs returns a normal [n, in] input and a [n, out] upstream
// gradient with scattered +0 and -0 entries (which Backward must skip),
// and NaN, +Inf and -Inf at (0,0), (1,1) and (2,2). The gradient's specials
// sit in distinct rows and columns, so no accumulator mixes two NaN sources
// whose payload would then depend on operand order. The input holds +Inf
// in the row of the first zero gradient, where adding 0*x instead of
// skipping would turn a weight gradient into NaN.
func specialInputs(n, in, out int, rng *tensor.RNG) (x, dout *tensor.Tensor) {
	x, dout = tensor.New(n, in), tensor.New(n, out)
	tensor.FillNormal(x, 1, rng)
	tensor.FillNormal(dout, 1, rng)
	dd := dout.Data()
	negZero := float32(math.Copysign(0, -1))
	for k := range dd {
		switch {
		case k%11 == 3:
			dd[k] = 0
		case k%13 == 5:
			dd[k] = negZero
		}
	}
	for k, v := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		if k < n && k < out {
			dd[k*out+k] = v
		}
	}
	for k, v := range dd {
		if v == 0 {
			x.Data()[k/out*in+in/2] = float32(math.Inf(1))
			break
		}
	}
	return x, dout
}

// checkLinearMatchesReference runs l and a clone of it through Forward and
// Backward, the clone on the reference loops, and fails unless y, dx,
// Weight.G and Bias.G agree bit for bit.
func checkLinearMatchesReference(t *testing.T, l *Linear, x, dout *tensor.Tensor) {
	t.Helper()
	ref := cloneLinear(l)
	y := l.Forward(x, true)
	assertBitsEqual(t, "y", y.Data(), refLinearForward(ref, x).Data())
	dx := l.Backward(dout)
	assertBitsEqual(t, "dx", dx.Data(), refLinearBackward(ref, x, dout).Data())
	assertBitsEqual(t, "Weight.G", l.Weight.G.Data(), ref.Weight.G.Data())
	assertBitsEqual(t, "Bias.G", l.Bias.G.Data(), ref.Bias.G.Data())
}

// linearData returns a Linear with a random bias and nonzero prior
// gradients.
func linearData(in, out int, rng *tensor.RNG) *Linear {
	l := NewLinear("fc", in, out, rng)
	tensor.FillNormal(l.Bias.W, 1, rng)
	tensor.FillNormal(l.Weight.G, 1, rng)
	tensor.FillNormal(l.Bias.G, 1, rng)
	return l
}

// TestLinearMatchesReference pins the blocked Linear kernels to the
// row-by-row reference loops bit for bit on every available kernel tier:
// the output, dx, and the gradients accumulated onto nonzero prior
// contents, across the blocked paths (4 rows x 2 outputs in Go; 4 rows x
// 8 outputs forward and 8-column backward steps on the asm tier) and
// their remainders (n%4 rows, odd out, out%8, in%8).
func TestLinearMatchesReference(t *testing.T) {
	defer kernel.SetTier(kernel.ActiveTier())
	for _, tier := range kernel.AvailableTiers() {
		kernel.SetTier(tier)
		for _, n := range []int{1, 3, 4, 5, 8, 9} {
			for _, in := range []int{1, 7, 8, 9, 768} {
				for _, out := range []int{1, 2, 5, 6, 8, 10, 17} {
					t.Run(fmt.Sprintf("%v/n%d_in%d_out%d", tier, n, in, out), func(t *testing.T) {
						rng := tensor.NewRNG(uint64(1000*n + 10*in + out))
						l := linearData(in, out, rng)
						x, dout := specialInputs(n, in, out, rng)
						checkLinearMatchesReference(t, l, x, dout)
					})
				}
			}
		}
	}
}

// FuzzLinearMatchesReference checks the Linear kernels against the
// reference loops on fuzzed shapes and finite data, with scattered +0 and
// -0 upstream gradients, under every available kernel tier.
func FuzzLinearMatchesReference(f *testing.F) {
	f.Add(uint8(4), uint16(768), uint8(8), uint64(1))
	f.Add(uint8(9), uint16(9), uint8(17), uint64(2))
	f.Add(uint8(5), uint16(31), uint8(10), uint64(3))
	f.Fuzz(func(t *testing.T, n uint8, in uint16, out uint8, seed uint64) {
		rows, cols, outs := 1+int(n%12), 1+int(in%300), 1+int(out%40)
		defer kernel.SetTier(kernel.ActiveTier())
		for _, tier := range kernel.AvailableTiers() {
			kernel.SetTier(tier)
			rng := tensor.NewRNG(seed)
			l := linearData(cols, outs, rng)
			x, dout := tensor.New(rows, cols), tensor.New(rows, outs)
			tensor.FillNormal(x, 1, rng)
			tensor.FillNormal(dout, 1, rng)
			negZero := float32(math.Copysign(0, -1))
			for k := range dout.Data() {
				switch rng.Intn(6) {
				case 0:
					dout.Data()[k] = 0
				case 1:
					dout.Data()[k] = negZero
				}
			}
			checkLinearMatchesReference(t, l, x, dout)
		}
	})
}

// TestLinearBackwardRejectsMismatchedDout: dout must be [n, out] of the
// cached forward, and a rejected call leaves the gradients untouched.
func TestLinearBackwardRejectsMismatchedDout(t *testing.T) {
	rng := tensor.NewRNG(1)
	l := linearData(3, 4, rng)
	wantW := append([]float32(nil), l.Weight.G.Data()...)
	wantB := append([]float32(nil), l.Bias.G.Data()...)
	expectPanic(t, "Linear(3->4) Backward before Forward", func() { l.Backward(tensor.New(2, 4)) })
	l.Forward(tensor.New(2, 3), true)
	for _, shape := range [][]int{{3, 5}, {2, 3}, {1, 4}, {3, 4}, {2, 5}, {8}, {2, 4, 1}} {
		dout := tensor.New(shape...)
		tensor.FillNormal(dout, 1, rng)
		expectPanic(t, fmt.Sprintf("got dout shape %v, want [2 4]", shape), func() { l.Backward(dout) })
		assertBitsEqual(t, "Weight.G", l.Weight.G.Data(), wantW)
		assertBitsEqual(t, "Bias.G", l.Bias.G.Data(), wantB)
	}
	l.Backward(tensor.New(2, 4))
}
