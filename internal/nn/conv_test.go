package nn

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"threelc/internal/tensor"
)

// cloneConv2D returns an independent Conv2D with c's weights, bias and
// accumulated gradients.
func cloneConv2D(c *Conv2D) *Conv2D {
	d := &Conv2D{
		Weight: newParam(c.Weight.Name, c.Weight.W.Shape()...),
		Bias:   newParam(c.Bias.Name, c.outC),
		inC:    c.inC, outC: c.outC, k: c.k, stride: c.stride, pad: c.pad,
	}
	d.Weight.W.CopyFrom(c.Weight.W)
	d.Weight.G.CopyFrom(c.Weight.G)
	d.Bias.W.CopyFrom(c.Bias.W)
	d.Bias.G.CopyFrom(c.Bias.G)
	return d
}

// checkConv2DMatchesReference runs c and a clone of it through Forward and
// Backward, the clone on the reference loops, and fails unless y, dx,
// Weight.G and Bias.G agree bit for bit.
func checkConv2DMatchesReference(t *testing.T, c *Conv2D, x, dout *tensor.Tensor) {
	t.Helper()
	ref := cloneConv2D(c)
	y := c.Forward(x, true)
	assertBitsEqual(t, "y", y.Data(), refConv2DForward(ref, x).Data())
	dx := c.Backward(dout)
	assertBitsEqual(t, "dx", dx.Data(), refConv2DBackward(ref, x, dout).Data())
	assertBitsEqual(t, "Weight.G", c.Weight.G.Data(), ref.Weight.G.Data())
	assertBitsEqual(t, "Bias.G", c.Bias.G.Data(), ref.Bias.G.Data())
}

// convData returns a Conv2D with a random bias and nonzero prior gradients,
// a normal [n, inC, h, w] input, and a normal upstream gradient with
// scattered +0 and -0 entries, which Backward must skip.
func convData(k, stride, pad, inC, outC, h, w, n int, seed uint64) (c *Conv2D, x, dout *tensor.Tensor) {
	rng := tensor.NewRNG(seed)
	c = NewConv2D("conv", inC, outC, k, stride, pad, rng)
	tensor.FillNormal(c.Bias.W, 1, rng)
	tensor.FillNormal(c.Weight.G, 1, rng)
	tensor.FillNormal(c.Bias.G, 1, rng)
	x = tensor.New(n, inC, h, w)
	tensor.FillNormal(x, 1, rng)
	dout = tensor.New(n, outC, c.outDim(h), c.outDim(w))
	tensor.FillNormal(dout, 1, rng)
	negZero := float32(math.Copysign(0, -1))
	for i := range dout.Data() {
		switch rng.Intn(5) {
		case 0:
			dout.Data()[i] = 0
		case 1:
			dout.Data()[i] = negZero
		}
	}
	return c, x, dout
}

// zeroGradTap zeroes one upstream gradient that has an in-bounds tap and
// returns the input offset of that tap as (b, ic, iy, ix) and its weight
// offset as (oc, ic, ky, kx), the last channels of each. ok is false if no
// output reads the input.
func zeroGradTap(c *Conv2D, x, dout *tensor.Tensor) (xi, wi int, ok bool) {
	xs, os := x.Shape(), dout.Shape()
	n, h, w, oh, ow := xs[0], xs[2], xs[3], os[2], os[3]
	b, oc, ic := n-1, c.outC-1, c.inC-1
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for ky := 0; ky < c.k; ky++ {
				for kx := 0; kx < c.k; kx++ {
					iy, ix := oy*c.stride-c.pad+ky, ox*c.stride-c.pad+kx
					if iy < 0 || iy >= h || ix < 0 || ix >= w {
						continue
					}
					dout.Data()[((b*c.outC+oc)*oh+oy)*ow+ox] = 0
					return ((b*c.inC+ic)*h+iy)*w + ix, ((oc*c.inC+ic)*c.k+ky)*c.k + kx, true
				}
			}
		}
	}
	return 0, 0, false
}

// TestConv2DMatchesReference pins the blocked Conv2D kernels to the direct
// reference loops bit for bit over kernel size, stride, padding, channel
// counts on and off the 4-wide blocks, spatial size and batch, with
// gradients accumulated onto nonzero prior contents. Each case makes one
// of the kernels' skips observable: +Inf in x or W beside a zero
// upstream gradient (0*Inf would be NaN in Weight.G or dx), a -0 prior
// Bias.G whose channel sees only +0 gradients (-0 + +0 is +0), and NaN and
// +/-Inf upstream gradients. NaN and Inf sources sit in separate cases, so
// no accumulator mixes two NaN payloads, which would make the result
// depend on the compiler's operand order.
func TestConv2DMatchesReference(t *testing.T) {
	inf := float32(math.Inf(1))
	cases := []struct {
		name string
		edit func(c *Conv2D, x, dout *tensor.Tensor)
	}{
		{"finite", func(c *Conv2D, x, dout *tensor.Tensor) {}},
		{"infX", func(c *Conv2D, x, dout *tensor.Tensor) {
			if xi, _, ok := zeroGradTap(c, x, dout); ok {
				x.Data()[xi] = inf
			}
		}},
		{"infW", func(c *Conv2D, x, dout *tensor.Tensor) {
			if _, wi, ok := zeroGradTap(c, x, dout); ok {
				c.Weight.W.Data()[wi] = inf
			}
		}},
		{"negZeroBiasG", func(c *Conv2D, x, dout *tensor.Tensor) {
			c.Bias.G.Data()[0] = float32(math.Copysign(0, -1))
			ohw := dout.Len() / dout.Shape()[0] / c.outC
			for b := 0; b < dout.Shape()[0]; b++ {
				clear(dout.Data()[b*c.outC*ohw : (b*c.outC+1)*ohw])
			}
		}},
		{"nanG", func(c *Conv2D, x, dout *tensor.Tensor) {
			dout.Data()[dout.Len()/2] = float32(math.NaN())
		}},
		{"infG", func(c *Conv2D, x, dout *tensor.Tensor) {
			dout.Data()[0] = inf
			dout.Data()[dout.Len()-1] = -inf
		}},
	}
	sizes := [][2]int{{1, 1}, {4, 5}, {7, 6}, {16, 16}}
	chans := []int{1, 3, 4, 5, 9}
	seed := uint64(0)
	for _, k := range []int{1, 3, 5} {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, 1, 2} {
				for _, hw := range sizes {
					h, w := hw[0], hw[1]
					if h+2*pad < k || w+2*pad < k {
						continue
					}
					for _, inC := range chans {
						for _, outC := range chans {
							for _, n := range []int{1, 2} {
								name := fmt.Sprintf("k%d_s%d_p%d_%dx%d_in%d_out%d_n%d", k, stride, pad, h, w, inC, outC, n)
								for _, tc := range cases {
									seed++
									c, x, dout := convData(k, stride, pad, inC, outC, h, w, n, seed)
									tc.edit(c, x, dout)
									t.Run(name+"_"+tc.name, func(t *testing.T) {
										checkConv2DMatchesReference(t, c, x, dout)
									})
								}
							}
						}
					}
				}
			}
		}
	}
}

// FuzzConv2DMatchesReference checks the blocked Conv2D kernels against the
// reference loops on fuzzed shapes and finite data.
func FuzzConv2DMatchesReference(f *testing.F) {
	f.Add(uint8(3), uint8(1), uint8(1), uint8(4), uint8(5), uint8(7), uint8(6), uint8(2), uint64(1))
	f.Add(uint8(1), uint8(2), uint8(0), uint8(9), uint8(8), uint8(16), uint8(16), uint8(1), uint64(2))
	f.Add(uint8(5), uint8(2), uint8(2), uint8(3), uint8(1), uint8(1), uint8(4), uint8(2), uint64(3))
	f.Fuzz(func(t *testing.T, k, stride, pad, inC, outC, h, w, n uint8, seed uint64) {
		kk, s, p := 1+int(k%5), 1+int(stride%3), int(pad%3)
		hh, ww := 1+int(h%16), 1+int(w%16)
		if hh+2*p < kk || ww+2*p < kk {
			t.Skip("input smaller than the kernel")
		}
		c, x, dout := convData(kk, s, p, 1+int(inC%9), 1+int(outC%9), hh, ww, 1+int(n%2), seed)
		checkConv2DMatchesReference(t, c, x, dout)
	})
}

func expectPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one containing %q", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want one containing %q", msg, want)
		}
	}()
	f()
}

// TestConv2DRejectsInputSmallerThanKernel: a padded input smaller than
// the kernel has no valid output, whatever the stride.
func TestConv2DRejectsInputSmallerThanKernel(t *testing.T) {
	for _, stride := range []int{1, 2} {
		c := NewConv2D("conv", 1, 2, 3, stride, 0, tensor.NewRNG(1))
		expectPanic(t, "got input shape [1 1 2 2]", func() { c.Forward(tensor.New(1, 1, 2, 2), true) })
		expectPanic(t, "got input shape [1 1 3 2]", func() { c.Forward(tensor.New(1, 1, 3, 2), true) })
	}
	// One pixel of padding on each side makes a 1x1 input large enough.
	c := NewConv2D("conv", 1, 2, 3, 1, 1, tensor.NewRNG(1))
	if got := c.Forward(tensor.New(1, 1, 1, 1), true).Shape(); fmt.Sprint(got) != "[1 2 1 1]" {
		t.Fatalf("output shape %v, want [1 2 1 1]", got)
	}
}

// TestConv2DBackwardRejectsMismatchedDout: dout must have the shape of the
// cached forward's output.
func TestConv2DBackwardRejectsMismatchedDout(t *testing.T) {
	c := NewConv2D("conv", 2, 3, 3, 2, 1, tensor.NewRNG(1))
	c.Forward(tensor.New(2, 2, 5, 4), true) // output [2 3 3 2]
	for _, shape := range [][]int{{2, 3, 3, 3}, {2, 3, 2, 2}, {1, 3, 3, 2}, {2, 2, 3, 2}, {2, 18}} {
		expectPanic(t, fmt.Sprintf("got dout shape %v, want [2 3 3 2]", shape), func() { c.Backward(tensor.New(shape...)) })
	}
	c.Backward(tensor.New(2, 3, 3, 2))
}
