package nn

import (
	"fmt"
	"math"

	"threelc/internal/kernel"
	"threelc/internal/tensor"
)

// Linear is a fully-connected layer: y = x W^T + b with x of shape
// [N, in], W of shape [out, in], b of shape [out].
type Linear struct {
	Weight *Param
	Bias   *Param

	in, out int
	x       *tensor.Tensor // cached input for backward
	// scratch holds the asm forward core's 32 block sums followed by the
	// [in][4] transposed row block; sized on first use.
	scratch []float32
}

// NewLinear creates a fully-connected layer with He-normal initialized
// weights and zero bias.
func NewLinear(name string, in, out int, rng *tensor.RNG) *Linear {
	l := &Linear{
		Weight: newParam(name+".weight", out, in),
		Bias:   newParam(name+".bias", out),
		in:     in,
		out:    out,
	}
	std := math.Sqrt(2 / float64(in))
	tensor.FillNormal(l.Weight.W, std, rng)
	return l
}

// Forward computes y[n,o] = sum_i x[n,i] * W[o,i] + b[o]. Each y[n,o]
// sums its products in ascending i from +0 and adds the bias last; the
// loop is blocked 4 rows x 2 outputs so every loaded x and W element feeds
// several independent sums. On the asm kernel tier the 4-row blocks run
// their outputs 8 at a time through kernel.LinearCores' forward core
// instead, with the same sequence per element.
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	shape := x.Shape()
	if len(shape) != 2 || shape[1] != l.in {
		panic(fmt.Sprintf("nn: Linear(%d->%d) got input shape %v", l.in, l.out, shape))
	}
	n, in, out := shape[0], l.in, l.out
	l.x = x
	y := tensor.New(n, out)
	xd, wd, bd, yd := x.Data(), l.Weight.W.Data(), l.Bias.W.Data(), y.Data()
	n4, out2 := n&^3, out&^1
	o0 := 0 // first output of the blocked rows left to the Go loops
	if fwd, _ := kernel.LinearCores(); fwd != nil && n4 > 0 && out >= 8 {
		o0 = out &^ 7
		l.forward8x4(fwd, xd, wd, bd, yd, n4, o0)
	}
	for o := o0; o < out2; o += 2 {
		w0 := wd[o*in : (o+1)*in]
		w1 := wd[(o+1)*in : (o+2)*in][:len(w0)]
		for r := 0; r < n4; r += 4 {
			x0 := xd[r*in : (r+1)*in][:len(w0)]
			x1 := xd[(r+1)*in : (r+2)*in][:len(w0)]
			x2 := xd[(r+2)*in : (r+3)*in][:len(w0)]
			x3 := xd[(r+3)*in : (r+4)*in][:len(w0)]
			var s00, s01, s10, s11, s20, s21, s30, s31 float32
			for i, v0 := range w0 {
				v1 := w1[i]
				a := x0[i]
				p0, p1 := a*v0, a*v1
				s00, s01 = s00+p0, s01+p1
				a = x1[i]
				p0, p1 = a*v0, a*v1
				s10, s11 = s10+p0, s11+p1
				a = x2[i]
				p0, p1 = a*v0, a*v1
				s20, s21 = s20+p0, s21+p1
				a = x3[i]
				p0, p1 = a*v0, a*v1
				s30, s31 = s30+p0, s31+p1
			}
			b0, b1 := bd[o], bd[o+1]
			yd[r*out+o], yd[r*out+o+1] = s00+b0, s01+b1
			yd[(r+1)*out+o], yd[(r+1)*out+o+1] = s10+b0, s11+b1
			yd[(r+2)*out+o], yd[(r+2)*out+o+1] = s20+b0, s21+b1
			yd[(r+3)*out+o], yd[(r+3)*out+o+1] = s30+b0, s31+b1
		}
	}
	// Remainders: the odd last output of the blocked rows, then every
	// output of the last n%4 rows.
	for r := 0; r < n; r++ {
		o0 := 0
		if r < n4 {
			o0 = out2
		}
		xrow := xd[r*in : (r+1)*in]
		for o := o0; o < out; o++ {
			wrow := wd[o*in : (o+1)*in][:len(xrow)]
			var s float32
			for i, xv := range xrow {
				p := xv * wrow[i]
				s += p
			}
			yd[r*out+o] = s + bd[o]
		}
	}
	return y
}

// forward8x4 computes outputs [0, out8) of rows [0, n4) with the forward
// core, 4 rows x 8 outputs per call, and adds the bias to each sum.
func (l *Linear) forward8x4(fwd kernel.LinearForwardCore, xd, wd, bd, yd []float32, n4, out8 int) {
	in, out := l.in, l.out
	if len(l.scratch) < 32+4*in {
		l.scratch = make([]float32, 32+4*in)
	}
	acc, xt := l.scratch[:32], l.scratch[32:32+4*in]
	for r := 0; r < n4; r += 4 {
		x0 := xd[r*in : (r+1)*in]
		x1 := xd[(r+1)*in : (r+2)*in][:len(x0)]
		x2 := xd[(r+2)*in : (r+3)*in][:len(x0)]
		x3 := xd[(r+3)*in : (r+4)*in][:len(x0)]
		for i, v := range x0 {
			t := xt[4*i : 4*i+4]
			t[0], t[1], t[2], t[3] = v, x1[i], x2[i], x3[i]
		}
		y0 := yd[r*out : (r+1)*out]
		y1 := yd[(r+1)*out : (r+2)*out][:len(y0)]
		y2 := yd[(r+2)*out : (r+3)*out][:len(y0)]
		y3 := yd[(r+3)*out : (r+4)*out][:len(y0)]
		for o := 0; o < out8; o += 8 {
			fwd(acc, xt, wd[o*in:(o+8)*in], in)
			for k := 0; k < 8; k++ {
				b, s := bd[o+k], acc[4*k:4*k+4]
				y0[o+k], y1[o+k], y2[o+k], y3[o+k] = s[0]+b, s[1]+b, s[2]+b, s[3]+b
			}
		}
	}
}

// Backward accumulates parameter gradients into Weight.G and Bias.G and
// returns dx. A zero upstream gradient g contributes nothing (it is
// skipped, not added as 0*x). G[o,i] and b[o] add their terms in
// ascending batch row and dx[r,i] in ascending output; the loop runs
// output by output and applies up to 4 batch rows in one pass over the
// output's weight and gradient rows. On the asm kernel tier a 4-row
// block's first in&^7 columns run through kernel.LinearCores' backward
// core instead, with the same sequence per element. dout must be [n, out]
// for the n rows of the last Forward.
func (l *Linear) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if l.x == nil {
		panic(fmt.Sprintf("nn: Linear(%d->%d) Backward before Forward", l.in, l.out))
	}
	n, in, out := l.x.Shape()[0], l.in, l.out
	if ds := dout.Shape(); len(ds) != 2 || ds[0] != n || ds[1] != out {
		panic(fmt.Sprintf("nn: Linear(%d->%d) got dout shape %v, want [%d %d]", l.in, l.out, ds, n, out))
	}
	_, bwd := kernel.LinearCores()
	dx := tensor.New(n, in)
	xd, wd := l.x.Data(), l.Weight.W.Data()
	gd, bd := l.Weight.G.Data(), l.Bias.G.Data()
	dd, dxd := dout.Data(), dx.Data()
	for o := 0; o < out; o++ {
		grow := gd[o*in : (o+1)*in]
		wrow := wd[o*in : (o+1)*in][:len(grow)]
		for r := 0; r < n; {
			if r+4 <= n {
				g0, g1, g2, g3 := dd[r*out+o], dd[(r+1)*out+o], dd[(r+2)*out+o], dd[(r+3)*out+o]
				if g0 != 0 && g1 != 0 && g2 != 0 && g3 != 0 {
					b := bd[o]
					b += g0
					b += g1
					b += g2
					b += g3
					bd[o] = b
					i0 := 0 // first column left to the Go loop
					if bwd != nil {
						i0 = bwd(grow, wrow, xd[r*in:(r+4)*in], dxd[r*in:(r+4)*in], in, g0, g1, g2, g3)
					}
					tg, tw := grow[i0:], wrow[i0:][:len(grow)-i0]
					x0 := xd[r*in+i0 : (r+1)*in][:len(tg)]
					x1 := xd[(r+1)*in+i0 : (r+2)*in][:len(tg)]
					x2 := xd[(r+2)*in+i0 : (r+3)*in][:len(tg)]
					x3 := xd[(r+3)*in+i0 : (r+4)*in][:len(tg)]
					d0 := dxd[r*in+i0 : (r+1)*in][:len(tg)]
					d1 := dxd[(r+1)*in+i0 : (r+2)*in][:len(tg)]
					d2 := dxd[(r+2)*in+i0 : (r+3)*in][:len(tg)]
					d3 := dxd[(r+3)*in+i0 : (r+4)*in][:len(tg)]
					for i, gv := range tg {
						p0, p1, p2, p3 := g0*x0[i], g1*x1[i], g2*x2[i], g3*x3[i]
						gv += p0
						gv += p1
						gv += p2
						gv += p3
						tg[i] = gv
						v := tw[i]
						q0, q1, q2, q3 := g0*v, g1*v, g2*v, g3*v
						d0[i] += q0
						d1[i] += q1
						d2[i] += q2
						d3[i] += q3
					}
					r += 4
					continue
				}
			}
			// One row: the n%4 tail, or a block holding a zero gradient.
			if g := dd[r*out+o]; g != 0 {
				bd[o] += g
				xrow := xd[r*in : (r+1)*in][:len(grow)]
				drow := dxd[r*in : (r+1)*in][:len(grow)]
				for i, xv := range xrow {
					p, q := g*xv, g*wrow[i]
					grow[i] += p
					drow[i] += q
				}
			}
			r++
		}
	}
	return dx
}

// Params returns the weight and bias.
func (l *Linear) Params() []*Param { return []*Param{l.Weight, l.Bias} }
