package simd

// HasAsm reports whether the assembly fast paths are compiled into this
// binary. They additionally require AVX2 at runtime (Detect().AVX2).
const HasAsm = true

//go:noescape
func quantPackBlocks(buf *float32, out *byte, blocks int, tpos, tneg, dqNeg, dqZero, dqPos float32)

//go:noescape
func addScaledLiteralsAsm(tab *[256][5]float32, body *byte, n int, dst *float32) int

//go:noescape
func setScaledLiteralsAsm(tab *[256][5]float32, body *byte, n int, dst *float32) int

// QuantPackBlocks runs the AVX2 fused quantize→residual→quartic-pack over
// blocks of 8 quartic groups (40 elements): for each element of buf it
// computes the ternary digit against ±tpos, subtracts the selected
// dequantization level (dqNeg/dqZero/dqPos) in place, and writes one
// packed quartic byte per group to out. buf must hold blocks*40 elements
// and out blocks*8 bytes. Requires AVX2; callers gate on Detect().AVX2.
//
// Bit-identity with the scalar kernel: the digit compares use the ordered
// predicates GE_OS/LE_OS (false on NaN, like Go's >= and <=), the
// residual subtract keeps buf as operand 1 exactly as the compiled scalar
// SUBSS does (so NaN payload selection matches), and the pack is integer.
func QuantPackBlocks(buf []float32, out []byte, blocks int, tpos, dqNeg, dqZero, dqPos float32) {
	if blocks <= 0 {
		return
	}
	_ = buf[blocks*40-1]
	_ = out[blocks*8-1]
	quantPackBlocks(&buf[0], &out[0], blocks, tpos, -tpos, dqNeg, dqZero, dqPos)
}

// AddScaledLiteralsAsm is the AVX LUT-row form of AddScaledLiterals: one
// 16-byte + 4-byte row load and add per literal byte. Same contract and
// bit-identity as the Go form (dst is operand 1 of every add). Requires
// AVX; callers gate on Detect().AVX2.
func AddScaledLiteralsAsm(tab *[256][5]float32, body []byte, dst []float32) int {
	n := len(body)
	if g := len(dst) / 5; n > g {
		n = g
	}
	if n <= 0 {
		return 0
	}
	return addScaledLiteralsAsm(tab, &body[0], n, &dst[0])
}

// SetScaledLiteralsAsm is the write form of AddScaledLiteralsAsm.
func SetScaledLiteralsAsm(tab *[256][5]float32, body []byte, dst []float32) int {
	n := len(body)
	if g := len(dst) / 5; n > g {
		n = g
	}
	if n <= 0 {
		return 0
	}
	return setScaledLiteralsAsm(tab, &body[0], n, &dst[0])
}

//go:noescape
func linearForward8x4(acc, xt, w *float32, in int)

//go:noescape
func linearBackward4(gw, w, x, dx *float32, in, n int, g0, g1, g2, g3 float32)

// LinearForward8x4 is the AVX nn.Linear forward core for 4 batch rows x 8
// outputs: acc[4k+j] = sum over ascending i of xt[4i+j]*w[k*in+i], each
// sum starting at +0 with every product and add rounded on its own (no
// FMA), bit-identical to the Go loops. xt is the row block transposed to
// [in][4] (len >= 4*in), w starts at the block's first weight row (len >=
// 8*in), and acc must hold 32 floats. Requires AVX; callers gate on
// Detect().AVX2.
func LinearForward8x4(acc, xt, w []float32, in int) {
	if in <= 0 {
		clear(acc[:32])
		return
	}
	_ = acc[31]
	_ = xt[4*in-1]
	_ = w[8*in-1]
	linearForward8x4(&acc[0], &xt[0], &w[0], in)
}

// LinearBackward4 is the AVX2 nn.Linear backward core for one output and
// 4 batch rows with nonzero upstream gradients g0..g3. Over the first
// in&^7 columns it adds g0*x0 .. g3*x3 in that order into gw and g_r*w
// into dx row r, bit-identical to the Go loop, and returns the number of
// columns done; the caller finishes the in%8 tail. x and dx hold the 4
// rows at stride in (len >= 4*in); gw and w are one row (len >= in).
// Requires AVX2; callers gate on Detect().AVX2.
func LinearBackward4(gw, w, x, dx []float32, in int, g0, g1, g2, g3 float32) int {
	n := in &^ 7
	if n <= 0 {
		return 0
	}
	_ = gw[in-1]
	_ = w[in-1]
	_ = x[4*in-1]
	_ = dx[4*in-1]
	linearBackward4(&gw[0], &w[0], &x[0], &dx[0], in, n, g0, g1, g2, g3)
	return n
}
