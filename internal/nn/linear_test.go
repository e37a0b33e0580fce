package nn

import (
	"fmt"
	"math"
	"testing"

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

// TestLinearMatchesReference pins the blocked Linear kernels to the
// row-by-row reference loops bit for bit: the output, dx, and the
// gradients accumulated onto nonzero prior contents, across the blocked
// path and both remainders (n%4 rows, odd out).
func TestLinearMatchesReference(t *testing.T) {
	for _, n := range []int{1, 3, 4, 5, 8, 9} {
		for _, in := range []int{1, 7, 768} {
			for _, out := range []int{1, 2, 5, 6} {
				t.Run(fmt.Sprintf("n%d_in%d_out%d", n, in, out), func(t *testing.T) {
					rng := tensor.NewRNG(uint64(1000*n + 10*in + out))
					l := NewLinear("fc", in, out, rng)
					tensor.FillNormal(l.Bias.W, 1, rng)
					tensor.FillNormal(l.Weight.G, 1, rng)
					tensor.FillNormal(l.Bias.G, 1, rng)
					ref := cloneLinear(l)
					x, dout := specialInputs(n, in, out, rng)

					y := l.Forward(x, true)
					assertBitsEqual(t, "y", y.Data(), refLinearForward(ref, x).Data())
					dx := l.Backward(dout)
					assertBitsEqual(t, "dx", dx.Data(), refLinearBackward(ref, x, dout).Data())
					assertBitsEqual(t, "Weight.G", l.Weight.G.Data(), ref.Weight.G.Data())
					assertBitsEqual(t, "Bias.G", l.Bias.G.Data(), ref.Bias.G.Data())
				})
			}
		}
	}
}
