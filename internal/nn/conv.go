package nn

import (
	"fmt"
	"math"

	"threelc/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW tensors with square kernels,
// configurable stride, and zero padding. Padding is never materialized:
// for each kernel tap the loops compute once which outputs read inside
// the input, and out-of-bounds taps are skipped rather than added as 0*w,
// which differs for -0, Inf and NaN. Forward and dx run tap by tap over
// whole planes, four channels at a time; the weight gradient accumulates
// 2 output x 4 input channels in registers. Every element keeps the
// operation sequence the package doc fixes.
type Conv2D struct {
	Weight *Param // [outC, inC, k, k]
	Bias   *Param // [outC]

	inC, outC, k, stride, pad int

	x *tensor.Tensor // cached input
}

// NewConv2D creates a convolution layer with He-normal initialization.
func NewConv2D(name string, inC, outC, k, stride, pad int, rng *tensor.RNG) *Conv2D {
	c := &Conv2D{
		Weight: newParam(name+".weight", outC, inC, k, k),
		Bias:   newParam(name+".bias", outC),
		inC:    inC, outC: outC, k: k, stride: stride, pad: pad,
	}
	fanIn := inC * k * k
	std := math.Sqrt(2 / float64(fanIn))
	tensor.FillNormal(c.Weight.W, std, rng)
	return c
}

func (c *Conv2D) outDim(in int) int {
	return (in+2*c.pad-c.k)/c.stride + 1
}

// outRange returns the outputs [o0, o1) whose kernel tap at offset kk
// reads inside an input of the given size: those with
// pad-kk <= o*stride <= size-1+pad-kk. It steps o0 up from 0 and o1 down
// from out instead of dividing by the stride; for out = outDim(size) each
// loop runs at most pad times.
func (c *Conv2D) outRange(kk, size, out int) (o0, o1 int) {
	lo, hi := c.pad-kk, size-1+c.pad-kk
	for o0 < out && o0*c.stride < lo {
		o0++
	}
	o1 = out
	for o1 > o0 && (o1-1)*c.stride > hi {
		o1--
	}
	return o0, o1
}

// Forward computes the convolution for x of shape [N, inC, H, W]. Each
// y[b,oc,oy,ox] starts from the bias and adds x*w over the in-bounds taps
// in ascending (ic, ky, kx). The loop runs tap by tap over whole output
// planes, four output channels at a time sharing each input load, so the
// inner loop has no bounds branch per tap.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	shape := x.Shape()
	if len(shape) != 4 || shape[1] != c.inC || shape[2]+2*c.pad < c.k || shape[3]+2*c.pad < c.k {
		panic(fmt.Sprintf("nn: Conv2D(%d->%d, k=%d, pad=%d) got input shape %v", c.inC, c.outC, c.k, c.pad, shape))
	}
	n, h, w := shape[0], shape[2], shape[3]
	inC, outC, k, stride, pad := c.inC, c.outC, c.k, c.stride, c.pad
	oh, ow := c.outDim(h), c.outDim(w)
	c.x = x
	y := tensor.New(n, outC, oh, ow)
	xd, wd, bd, yd := x.Data(), c.Weight.W.Data(), c.Bias.W.Data(), y.Data()
	hw, kk, ohw := h*w, k*k, oh*ow
	fl := inC * kk // one output channel's filter length

	for b := 0; b < n; b++ {
		for oc := 0; oc < outC; {
			yo := (b*outC + oc) * ohw
			if oc+4 <= outC {
				y0 := yd[yo : yo+ohw]
				y1 := yd[yo+ohw : yo+2*ohw][:len(y0)]
				y2 := yd[yo+2*ohw : yo+3*ohw][:len(y0)]
				y3 := yd[yo+3*ohw : yo+4*ohw][:len(y0)]
				b0, b1, b2, b3 := bd[oc], bd[oc+1], bd[oc+2], bd[oc+3]
				for i := range y0 {
					y0[i], y1[i], y2[i], y3[i] = b0, b1, b2, b3
				}
				for ic := 0; ic < inC; ic++ {
					xp := xd[(b*inC+ic)*hw : (b*inC+ic+1)*hw]
					for ky := 0; ky < k; ky++ {
						oy0, oy1 := c.outRange(ky, h, oh)
						for kx := 0; kx < k; kx++ {
							ox0, ox1 := c.outRange(kx, w, ow)
							t := oc*fl + ic*kk + ky*k + kx
							w0, w1, w2, w3 := wd[t], wd[t+fl], wd[t+2*fl], wd[t+3*fl]
							for oy := oy0; oy < oy1; oy++ {
								r0 := y0[oy*ow+ox0 : oy*ow+ox1]
								r1 := y1[oy*ow+ox0 : oy*ow+ox1][:len(r0)]
								r2 := y2[oy*ow+ox0 : oy*ow+ox1][:len(r0)]
								r3 := y3[oy*ow+ox0 : oy*ow+ox1][:len(r0)]
								ix := (oy*stride-pad+ky)*w + ox0*stride - pad + kx
								for i := range r0 {
									xv := xp[ix]
									p0, p1, p2, p3 := xv*w0, xv*w1, xv*w2, xv*w3
									r0[i] += p0
									r1[i] += p1
									r2[i] += p2
									r3[i] += p3
									ix += stride
								}
							}
						}
					}
				}
				oc += 4
				continue
			}
			// One output channel: the outC%4 remainder.
			y0 := yd[yo : yo+ohw]
			for i := range y0 {
				y0[i] = bd[oc]
			}
			for ic := 0; ic < inC; ic++ {
				xp := xd[(b*inC+ic)*hw : (b*inC+ic+1)*hw]
				for ky := 0; ky < k; ky++ {
					oy0, oy1 := c.outRange(ky, h, oh)
					for kx := 0; kx < k; kx++ {
						ox0, ox1 := c.outRange(kx, w, ow)
						w0 := wd[oc*fl+ic*kk+ky*k+kx]
						for oy := oy0; oy < oy1; oy++ {
							ix := (oy*stride-pad+ky)*w + ox0*stride - pad + kx
							for i := oy*ow + ox0; i < oy*ow+ox1; i++ {
								p0 := xp[ix] * w0
								y0[i] += p0
								ix += stride
							}
						}
					}
				}
			}
			oc++
		}
	}
	return y
}

// Backward computes dW, db and dx from dout of shape [N, outC, OH, OW]. A
// zero upstream gradient g is skipped, not added as 0*x or 0*w. Bias.G[oc]
// and Weight.G[oc,ic,ky,kx] add their terms in ascending (b, oy, ox), and
// dx[b,ic,iy,ix] sums its terms from +0 in ascending (oc, oy, ox).
func (c *Conv2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	xs := c.x.Shape()
	n, h, w := xs[0], xs[2], xs[3]
	oh, ow := c.outDim(h), c.outDim(w)
	if os := dout.Shape(); len(os) != 4 || os[0] != n || os[1] != c.outC || os[2] != oh || os[3] != ow {
		panic(fmt.Sprintf("nn: Conv2D(%d->%d) got dout shape %v, want [%d %d %d %d]", c.inC, c.outC, os, n, c.outC, oh, ow))
	}
	dx := tensor.New(n, c.inC, h, w)
	c.biasGrad(dout.Data(), n, oh*ow)
	c.weightGrad(c.x.Data(), dout.Data(), n, h, w, oh, ow)
	c.inputGrad(dout.Data(), dx.Data(), n, h, w, oh, ow)
	return dx
}

// biasGrad adds each nonzero g into Bias.G[oc] in ascending (b, oy, ox).
func (c *Conv2D) biasGrad(dd []float32, n, ohw int) {
	gbd, outC := c.Bias.G.Data(), c.outC
	for oc := 0; oc < outC; oc++ {
		gb := gbd[oc]
		for b := 0; b < n; b++ {
			for _, g := range dd[(b*outC+oc)*ohw : (b*outC+oc+1)*ohw] {
				if g != 0 {
					gb += g
				}
			}
		}
		gbd[oc] = gb
	}
}

// weightGrad adds g*x into Weight.G[oc,ic,ky,kx] in ascending (b, oy, ox),
// skipping zero g. Each tap accumulates a block of 2 output x 4 input
// channels in registers: four input channels share each g load and its
// zero test, and two output channels share each input load. A block
// overhanging the last channel repeats that channel in the spare lanes;
// a repeated lane computes the same bits as the lane it copies, so
// storing both is harmless.
func (c *Conv2D) weightGrad(xd, dd []float32, n, h, w, oh, ow int) {
	gwd := c.Weight.G.Data()
	inC, outC, k, stride, pad := c.inC, c.outC, c.k, c.stride, c.pad
	hw, kk, ohw := h*w, k*k, oh*ow
	for oc := 0; oc < outC; oc += 2 {
		ocs := [2]int{oc, min(oc+1, outC-1)}
		for ic := 0; ic < inC; ic += 4 {
			ics := [4]int{ic, min(ic+1, inC-1), min(ic+2, inC-1), min(ic+3, inC-1)}
			var gw [2][4]int // Weight.G offsets of tap (0, 0)
			for i, o := range ocs {
				for j, ch := range ics {
					gw[i][j] = (o*inC + ch) * kk
				}
			}
			for ky := 0; ky < k; ky++ {
				oy0, oy1 := c.outRange(ky, h, oh)
				for kx := 0; kx < k; kx++ {
					ox0, ox1 := c.outRange(kx, w, ow)
					t := ky*k + kx
					a0, a1, a2, a3 := gwd[gw[0][0]+t], gwd[gw[0][1]+t], gwd[gw[0][2]+t], gwd[gw[0][3]+t]
					e0, e1, e2, e3 := gwd[gw[1][0]+t], gwd[gw[1][1]+t], gwd[gw[1][2]+t], gwd[gw[1][3]+t]
					for b := 0; b < n; b++ {
						ga := dd[(b*outC+ocs[0])*ohw : (b*outC+ocs[0]+1)*ohw]
						ge := dd[(b*outC+ocs[1])*ohw : (b*outC+ocs[1]+1)*ohw][:len(ga)]
						x0 := xd[(b*inC+ics[0])*hw : (b*inC+ics[0]+1)*hw]
						x1 := xd[(b*inC+ics[1])*hw : (b*inC+ics[1]+1)*hw][:len(x0)]
						x2 := xd[(b*inC+ics[2])*hw : (b*inC+ics[2]+1)*hw][:len(x0)]
						x3 := xd[(b*inC+ics[3])*hw : (b*inC+ics[3]+1)*hw][:len(x0)]
						for oy := oy0; oy < oy1; oy++ {
							gar := ga[oy*ow+ox0 : oy*ow+ox1]
							ger := ge[oy*ow+ox0 : oy*ow+ox1][:len(gar)]
							ix := (oy*stride-pad+ky)*w + ox0*stride - pad + kx
							for i, g := range gar {
								if g != 0 {
									p0, p1, p2, p3 := g*x0[ix], g*x1[ix], g*x2[ix], g*x3[ix]
									a0 += p0
									a1 += p1
									a2 += p2
									a3 += p3
								}
								if g := ger[i]; g != 0 {
									p0, p1, p2, p3 := g*x0[ix], g*x1[ix], g*x2[ix], g*x3[ix]
									e0 += p0
									e1 += p1
									e2 += p2
									e3 += p3
								}
								ix += stride
							}
						}
					}
					gwd[gw[0][0]+t], gwd[gw[0][1]+t], gwd[gw[0][2]+t], gwd[gw[0][3]+t] = a0, a1, a2, a3
					gwd[gw[1][0]+t], gwd[gw[1][1]+t], gwd[gw[1][2]+t], gwd[gw[1][3]+t] = e0, e1, e2, e3
				}
			}
		}
	}
}

// inputGrad adds into dxd, which must hold +0, so that dx[b,ic,iy,ix]
// becomes the sum from +0 of g*w over the outputs that read it in
// ascending (oc, oy, ox), skipping zero g. Within each oc the loop runs
// tap by tap in descending (ky, kx), which for any one input element is
// ascending (oy, ox), and adds into whole dx planes of four input
// channels at a time that share each g load and its zero test.
func (c *Conv2D) inputGrad(dd, dxd []float32, n, h, w, oh, ow int) {
	wd := c.Weight.W.Data()
	inC, outC, k, stride, pad := c.inC, c.outC, c.k, c.stride, c.pad
	hw, kk, ohw := h*w, k*k, oh*ow
	fl := inC * kk
	for b := 0; b < n; b++ {
		for ic := 0; ic < inC; {
			xo := (b*inC + ic) * hw
			if ic+4 <= inC {
				d0 := dxd[xo : xo+hw]
				d1 := dxd[xo+hw : xo+2*hw][:len(d0)]
				d2 := dxd[xo+2*hw : xo+3*hw][:len(d0)]
				d3 := dxd[xo+3*hw : xo+4*hw][:len(d0)]
				for oc := 0; oc < outC; oc++ {
					gp := dd[(b*outC+oc)*ohw : (b*outC+oc+1)*ohw]
					for ky := k - 1; ky >= 0; ky-- {
						oy0, oy1 := c.outRange(ky, h, oh)
						for kx := k - 1; kx >= 0; kx-- {
							ox0, ox1 := c.outRange(kx, w, ow)
							t := oc*fl + ic*kk + ky*k + kx
							w0, w1, w2, w3 := wd[t], wd[t+kk], wd[t+2*kk], wd[t+3*kk]
							for oy := oy0; oy < oy1; oy++ {
								ix := (oy*stride-pad+ky)*w + ox0*stride - pad + kx
								for _, g := range gp[oy*ow+ox0 : oy*ow+ox1] {
									if g != 0 {
										p0, p1, p2, p3 := g*w0, g*w1, g*w2, g*w3
										d0[ix] += p0
										d1[ix] += p1
										d2[ix] += p2
										d3[ix] += p3
									}
									ix += stride
								}
							}
						}
					}
				}
				ic += 4
				continue
			}
			// One input channel: the inC%4 remainder.
			d0 := dxd[xo : xo+hw]
			for oc := 0; oc < outC; oc++ {
				gp := dd[(b*outC+oc)*ohw : (b*outC+oc+1)*ohw]
				for ky := k - 1; ky >= 0; ky-- {
					oy0, oy1 := c.outRange(ky, h, oh)
					for kx := k - 1; kx >= 0; kx-- {
						ox0, ox1 := c.outRange(kx, w, ow)
						w0 := wd[oc*fl+ic*kk+ky*k+kx]
						for oy := oy0; oy < oy1; oy++ {
							ix := (oy*stride-pad+ky)*w + ox0*stride - pad + kx
							for _, g := range gp[oy*ow+ox0 : oy*ow+ox1] {
								if g != 0 {
									p0 := g * w0
									d0[ix] += p0
								}
								ix += stride
							}
						}
					}
				}
			}
			ic++
		}
	}
}

// Params returns the kernel and bias.
func (c *Conv2D) Params() []*Param { return []*Param{c.Weight, c.Bias} }
