package nn

import "threelc/internal/tensor"

// refConv2DForward is the direct, unblocked Conv2D forward pass the
// production kernel must reproduce bit for bit.
func refConv2DForward(c *Conv2D, x *tensor.Tensor) *tensor.Tensor {
	shape := x.Shape()
	n, h, w := shape[0], shape[2], shape[3]
	oh, ow := c.outDim(h), c.outDim(w)
	y := tensor.New(n, c.outC, oh, ow)
	xd, wd, bd, yd := x.Data(), c.Weight.W.Data(), c.Bias.W.Data(), y.Data()

	for b := 0; b < n; b++ {
		for oc := 0; oc < c.outC; oc++ {
			bias := bd[oc]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					s := bias
					iy0 := oy*c.stride - c.pad
					ix0 := ox*c.stride - c.pad
					for ic := 0; ic < c.inC; ic++ {
						xBase := ((b * c.inC) + ic) * h * w
						wBase := ((oc * c.inC) + ic) * c.k * c.k
						for ky := 0; ky < c.k; ky++ {
							iy := iy0 + ky
							if iy < 0 || iy >= h {
								continue
							}
							xRow := xBase + iy*w
							wRow := wBase + ky*c.k
							for kx := 0; kx < c.k; kx++ {
								ix := ix0 + kx
								if ix < 0 || ix >= w {
									continue
								}
								s += xd[xRow+ix] * wd[wRow+kx]
							}
						}
					}
					yd[((b*c.outC+oc)*oh+oy)*ow+ox] = s
				}
			}
		}
	}
	return y
}

// refConv2DBackward is the direct, unblocked Conv2D backward pass for
// input x: it accumulates into c's Weight.G and Bias.G and returns dx.
func refConv2DBackward(c *Conv2D, x, dout *tensor.Tensor) *tensor.Tensor {
	xs := x.Shape()
	n, h, w := xs[0], xs[2], xs[3]
	os := dout.Shape()
	oh, ow := os[2], os[3]

	dx := tensor.New(n, c.inC, h, w)
	xd, wd := x.Data(), c.Weight.W.Data()
	gwd, gbd := c.Weight.G.Data(), c.Bias.G.Data()
	dd, dxd := dout.Data(), dx.Data()

	for b := 0; b < n; b++ {
		for oc := 0; oc < c.outC; oc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					g := dd[((b*c.outC+oc)*oh+oy)*ow+ox]
					if g == 0 {
						continue
					}
					gbd[oc] += g
					iy0 := oy*c.stride - c.pad
					ix0 := ox*c.stride - c.pad
					for ic := 0; ic < c.inC; ic++ {
						xBase := ((b * c.inC) + ic) * h * w
						wBase := ((oc * c.inC) + ic) * c.k * c.k
						for ky := 0; ky < c.k; ky++ {
							iy := iy0 + ky
							if iy < 0 || iy >= h {
								continue
							}
							xRow := xBase + iy*w
							wRow := wBase + ky*c.k
							for kx := 0; kx < c.k; kx++ {
								ix := ix0 + kx
								if ix < 0 || ix >= w {
									continue
								}
								gwd[wRow+kx] += g * xd[xRow+ix]
								dxd[xRow+ix] += g * wd[wRow+kx]
							}
						}
					}
				}
			}
		}
	}
	return dx
}
