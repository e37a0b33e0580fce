package nn

import "threelc/internal/tensor"

// refLinearForward is the straightforward row-by-row Linear forward pass
// the blocked kernel must reproduce bit for bit.
func refLinearForward(l *Linear, x *tensor.Tensor) *tensor.Tensor {
	n := x.Shape()[0]
	y := tensor.New(n, l.out)
	xd, wd, bd, yd := x.Data(), l.Weight.W.Data(), l.Bias.W.Data(), y.Data()
	for r := 0; r < n; r++ {
		xrow := xd[r*l.in : (r+1)*l.in]
		yrow := yd[r*l.out : (r+1)*l.out]
		for o := 0; o < l.out; o++ {
			wrow := wd[o*l.in : (o+1)*l.in]
			var s float32
			for i, xv := range xrow {
				s += xv * wrow[i]
			}
			yrow[o] = s + bd[o]
		}
	}
	return y
}

// refLinearBackward is the straightforward row-by-row Linear backward pass
// for input x: it accumulates into l's Weight.G and Bias.G and returns dx.
func refLinearBackward(l *Linear, x, dout *tensor.Tensor) *tensor.Tensor {
	n := x.Shape()[0]
	dx := tensor.New(n, l.in)
	xd, wd := x.Data(), l.Weight.W.Data()
	gd, bd := l.Weight.G.Data(), l.Bias.G.Data()
	dd, dxd := dout.Data(), dx.Data()
	for r := 0; r < n; r++ {
		xrow := xd[r*l.in : (r+1)*l.in]
		drow := dd[r*l.out : (r+1)*l.out]
		dxrow := dxd[r*l.in : (r+1)*l.in]
		for o := 0; o < l.out; o++ {
			g := drow[o]
			if g == 0 {
				continue
			}
			bd[o] += g
			grow := gd[o*l.in : (o+1)*l.in]
			wrow := wd[o*l.in : (o+1)*l.in]
			for i, xv := range xrow {
				grow[i] += g * xv
				dxrow[i] += g * wrow[i]
			}
		}
	}
	return dx
}
