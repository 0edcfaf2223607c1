// Package autodiff implements a small, real neural-network runtime —
// actual float32 forward/backward passes, not descriptors — used by the
// functional plane for the paper's statistical experiments (Fig. 11:
// exact synchronization vs 1-bit quantization on a CIFAR-10-quick-style
// CNN).
//
// Activations are batch-major matrices (rows = samples, cols = flattened
// C·H·W features). FC layers expose their per-sample sufficient factors
// (u = output delta, v = input activation) so the trainer can route them
// through SFB.
package autodiff

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Layer is one differentiable stage.
type Layer interface {
	// Forward consumes a K×in batch and returns a K×out batch.
	Forward(x *tensor.Matrix) *tensor.Matrix
	// Backward consumes dL/dout (K×out) and returns dL/din (K×in),
	// accumulating parameter gradients internally.
	Backward(dout *tensor.Matrix) *tensor.Matrix
	// Params returns the layer's trainable tensors (possibly empty).
	Params() []*tensor.Matrix
	// Grads returns the gradients matching Params, zeroed by ZeroGrads.
	Grads() []*tensor.Matrix
	// ZeroGrads clears accumulated gradients.
	ZeroGrads()
	// Name identifies the layer.
	Name() string
}

// ---- Fully connected -------------------------------------------------------

// FC is a fully connected layer y = x·Wᵀ + b with W of shape out×in.
type FC struct {
	LayerName string
	W, B      *tensor.Matrix // W: out×in, B: 1×out
	GW, GB    *tensor.Matrix

	lastX    *tensor.Matrix // K×in, saved for backward
	lastDout *tensor.Matrix // K×out, saved for SF extraction

	// borrowedSF is the shared wrapper BorrowSufficientFactor hands
	// out, re-pointed at the live buffers on every call.
	borrowedSF tensor.SufficientFactor
}

// NewFC builds an FC layer with Xavier-style initialization from rng.
func NewFC(name string, in, out int, rng *rand.Rand) *FC {
	fc := &FC{
		LayerName: name,
		W:         tensor.NewMatrix(out, in),
		B:         tensor.NewMatrix(1, out),
		GW:        tensor.NewMatrix(out, in),
		GB:        tensor.NewMatrix(1, out),
	}
	fc.W.Randn(rng, math.Sqrt(2.0/float64(in)))
	return fc
}

// Name returns the layer name.
func (f *FC) Name() string { return f.LayerName }

// Forward computes y = x·Wᵀ + b.
func (f *FC) Forward(x *tensor.Matrix) *tensor.Matrix {
	f.lastX = x
	y := tensor.NewMatrix(x.Rows, f.W.Rows)
	tensor.MulTransBInto(y, x, f.W)
	for i := 0; i < y.Rows; i++ {
		row := y.Row(i)
		for j, b := range f.B.Row(0) {
			row[j] += b
		}
	}
	return y
}

// Backward accumulates dW = doutᵀ·x, db = Σ dout and returns dx = dout·W.
func (f *FC) Backward(dout *tensor.Matrix) *tensor.Matrix {
	f.lastDout = dout
	dW := tensor.NewMatrix(f.W.Rows, f.W.Cols)
	tensor.MulTransAInto(dW, dout, f.lastX)
	f.GW.Add(dW)
	for i := 0; i < dout.Rows; i++ {
		for j, v := range dout.Row(i) {
			f.GB.Data[j] += v
		}
	}
	dx := tensor.NewMatrix(dout.Rows, f.W.Cols)
	tensor.MulInto(dx, dout, f.W)
	return dx
}

// Params returns [W, B].
func (f *FC) Params() []*tensor.Matrix { return []*tensor.Matrix{f.W, f.B} }

// Grads returns [GW, GB].
func (f *FC) Grads() []*tensor.Matrix { return []*tensor.Matrix{f.GW, f.GB} }

// ZeroGrads clears the accumulated gradients.
func (f *FC) ZeroGrads() {
	f.GW.Zero()
	f.GB.Zero()
}

// SufficientFactor returns the rank-1 decomposition of the last
// backward pass's weight gradient: U = dout (K×out), V = x (K×in), so
// that ∇W = Uᵀ·V. The factors are deep-copied and safe to ship.
func (f *FC) SufficientFactor() *tensor.SufficientFactor {
	if f.lastDout == nil || f.lastX == nil {
		panic("autodiff: SufficientFactor before backward")
	}
	return &tensor.SufficientFactor{U: f.lastDout.Clone(), V: f.lastX.Clone()}
}

// BorrowSufficientFactor is SufficientFactor without the deep copy: the
// returned factor references the layer's live backward buffers and a
// shared wrapper struct, both valid only until the next forward/
// backward pass (or the next Borrow). The comm runtime uses it on the
// hot path — it encodes and copies the factor before the compute loop
// moves on — so shipping a gradient costs no per-iteration clone.
// Callers that retain the factor must Clone it.
func (f *FC) BorrowSufficientFactor() *tensor.SufficientFactor {
	if f.lastDout == nil || f.lastX == nil {
		panic("autodiff: SufficientFactor before backward")
	}
	f.borrowedSF.U, f.borrowedSF.V = f.lastDout, f.lastX
	return &f.borrowedSF
}

// ---- Convolution -----------------------------------------------------------

// Conv2D is a 2-D convolution over C×H×W inputs flattened row-major as
// (c*H+h)*W+w. Its forward pass unrolls one sample at a time into a
// column buffer (im2col: one row of InC·K·K taps per output position)
// and multiplies it by W with a register-blocked GEMM. Each output
// starts from its bias and adds w[k]·col[k] in ascending
// k = (ic·K+kh)·K+kw — the direct convolution's summation order, so the
// outputs are bit-identical to it.
type Conv2D struct {
	LayerName            string
	InC, InH, InW        int
	OutC, K, Stride, Pad int
	OutH, OutW           int
	W, B                 *tensor.Matrix // W: OutC × (InC·K·K), B: 1×OutC
	GW, GB               *tensor.Matrix

	lastX *tensor.Matrix
	col   []float32 // Forward's column scratch, one sample's worth
}

// NewConv2D builds a conv layer with He initialization.
func NewConv2D(name string, inC, inH, inW, outC, k, stride, pad int, rng *rand.Rand) *Conv2D {
	outH := (inH+2*pad-k)/stride + 1
	outW := (inW+2*pad-k)/stride + 1
	if outH <= 0 || outW <= 0 {
		panic(fmt.Sprintf("autodiff: conv %s output %dx%d", name, outH, outW))
	}
	c := &Conv2D{
		LayerName: name,
		InC:       inC, InH: inH, InW: inW,
		OutC: outC, K: k, Stride: stride, Pad: pad,
		OutH: outH, OutW: outW,
		W:  tensor.NewMatrix(outC, inC*k*k),
		B:  tensor.NewMatrix(1, outC),
		GW: tensor.NewMatrix(outC, inC*k*k),
		GB: tensor.NewMatrix(1, outC),
	}
	c.W.Randn(rng, math.Sqrt(2.0/float64(inC*k*k)))
	return c
}

// Name returns the layer name.
func (c *Conv2D) Name() string { return c.LayerName }

func (c *Conv2D) inIdx(ch, h, w int) int  { return (ch*c.InH+h)*c.InW + w }
func (c *Conv2D) outIdx(ch, h, w int) int { return (ch*c.OutH+h)*c.OutW + w }

// colLen is the length of the column scratch forwardInto needs: one
// sample's OutH·OutW rows of InC·K·K taps.
func (c *Conv2D) colLen() int { return c.OutH * c.OutW * c.W.Cols }

// Forward convolves every sample in the batch.
func (c *Conv2D) Forward(x *tensor.Matrix) *tensor.Matrix {
	c.lastX = x
	if len(c.col) < c.colLen() {
		c.col = make([]float32, c.colLen())
	}
	y := tensor.NewMatrix(x.Rows, c.OutC*c.OutH*c.OutW)
	c.forwardInto(y, x, c.col)
	return y
}

// forwardInto convolves x into y (x.Rows × OutC·OutH·OutW, every cell
// overwritten) without touching training state — shared by Forward and
// the gradient-free Predictor path. col is the caller's scratch of at
// least colLen floats; it must not be shared with a concurrent call.
func (c *Conv2D) forwardInto(y, x *tensor.Matrix, col []float32) {
	col = col[:c.colLen()]
	for s := 0; s < x.Rows; s++ {
		c.im2col(col, x.Row(s))
		c.gemm(y.Row(s), col)
	}
}

// im2col writes one sample's patches into col: row p = oh·OutW+ow holds
// the InC·K·K taps that output position p reads, in the order
// (ic·K+kh)·K+kw. Taps that fall in the padding are exact zeros.
func (c *Conv2D) im2col(col, in []float32) {
	i := 0
	for oh := 0; oh < c.OutH; oh++ {
		for ow := 0; ow < c.OutW; ow++ {
			iw0 := ow*c.Stride - c.Pad
			for ic := 0; ic < c.InC; ic++ {
				for kh := 0; kh < c.K; kh++ {
					dst := col[i : i+c.K]
					i += c.K
					ih := oh*c.Stride + kh - c.Pad
					if ih < 0 || ih >= c.InH {
						clear(dst)
						continue
					}
					row := in[c.inIdx(ic, ih, 0) : c.inIdx(ic, ih, 0)+c.InW]
					for kw := range dst {
						if iw := iw0 + kw; uint(iw) < uint(len(row)) {
							dst[kw] = row[iw]
						} else {
							dst[kw] = 0
						}
					}
				}
			}
		}
	}
}

// gemm computes out[oc·P+p] = B[oc] + Σk W[oc][k]·col[p][k] for one
// sample, P = OutH·OutW, adding the products one at a time in ascending
// k with no reassociation. A padded tap adds w·0, which for finite w
// changes no sum but an exact -0, so the result equals the direct
// convolution's, which skips those taps. Four output channels share
// each pass over a column row, their sums held in registers; leftover
// channels take dot.
func (c *Conv2D) gemm(out, col []float32) {
	kk, np := c.W.Cols, c.OutH*c.OutW
	oc := 0
	for ; oc+4 <= c.OutC; oc += 4 {
		w0, w1, w2, w3 := c.W.Row(oc), c.W.Row(oc+1), c.W.Row(oc+2), c.W.Row(oc+3)
		b0, b1, b2, b3 := c.B.Data[oc], c.B.Data[oc+1], c.B.Data[oc+2], c.B.Data[oc+3]
		for p := 0; p < np; p++ {
			x := col[p*kk : (p+1)*kk]
			w0, w1, w2, w3 = w0[:len(x)], w1[:len(x)], w2[:len(x)], w3[:len(x)]
			s0, s1, s2, s3 := b0, b1, b2, b3
			for k, v := range x {
				s0 += w0[k] * v
				s1 += w1[k] * v
				s2 += w2[k] * v
				s3 += w3[k] * v
			}
			out[oc*np+p], out[(oc+1)*np+p], out[(oc+2)*np+p], out[(oc+3)*np+p] = s0, s1, s2, s3
		}
	}
	for ; oc < c.OutC; oc++ {
		w, b := c.W.Row(oc), c.B.Data[oc]
		for p := 0; p < np; p++ {
			out[oc*np+p] = dot(b, w, col[p*kk:(p+1)*kk])
		}
	}
}

// dot returns b + Σk w[k]·x[k], summed in ascending k.
func dot(b float32, w, x []float32) float32 {
	x = x[:len(w)]
	for k, v := range w {
		b += v * x[k]
	}
	return b
}

// Backward accumulates weight/bias gradients and returns dx.
func (c *Conv2D) Backward(dout *tensor.Matrix) *tensor.Matrix {
	dx := tensor.NewMatrix(dout.Rows, c.InC*c.InH*c.InW)
	for s := 0; s < dout.Rows; s++ {
		dOut := dout.Row(s)
		in := c.lastX.Row(s)
		dIn := dx.Row(s)
		for oc := 0; oc < c.OutC; oc++ {
			wrow := c.W.Row(oc)
			gwrow := c.GW.Row(oc)
			for oh := 0; oh < c.OutH; oh++ {
				for ow := 0; ow < c.OutW; ow++ {
					g := dOut[c.outIdx(oc, oh, ow)]
					if g == 0 {
						continue
					}
					c.GB.Data[oc] += g
					for ic := 0; ic < c.InC; ic++ {
						for kh := 0; kh < c.K; kh++ {
							ih := oh*c.Stride + kh - c.Pad
							if ih < 0 || ih >= c.InH {
								continue
							}
							for kw := 0; kw < c.K; kw++ {
								iw := ow*c.Stride + kw - c.Pad
								if iw < 0 || iw >= c.InW {
									continue
								}
								widx := (ic*c.K+kh)*c.K + kw
								iidx := c.inIdx(ic, ih, iw)
								gwrow[widx] += g * in[iidx]
								dIn[iidx] += g * wrow[widx]
							}
						}
					}
				}
			}
		}
	}
	return dx
}

// Params returns [W, B].
func (c *Conv2D) Params() []*tensor.Matrix { return []*tensor.Matrix{c.W, c.B} }

// Grads returns [GW, GB].
func (c *Conv2D) Grads() []*tensor.Matrix { return []*tensor.Matrix{c.GW, c.GB} }

// ZeroGrads clears the accumulated gradients.
func (c *Conv2D) ZeroGrads() {
	c.GW.Zero()
	c.GB.Zero()
}

// ---- ReLU -------------------------------------------------------------------

// ReLU is an elementwise max(0, x).
type ReLU struct {
	LayerName string
	mask      []bool
}

// NewReLU creates a ReLU layer.
func NewReLU(name string) *ReLU { return &ReLU{LayerName: name} }

// Name returns the layer name.
func (r *ReLU) Name() string { return r.LayerName }

// Forward zeroes negatives.
func (r *ReLU) Forward(x *tensor.Matrix) *tensor.Matrix {
	y := x.Clone()
	r.mask = make([]bool, len(y.Data))
	for i, v := range y.Data {
		if v <= 0 {
			y.Data[i] = 0
		} else {
			r.mask[i] = true
		}
	}
	return y
}

// Backward gates the upstream gradient by the activation mask.
func (r *ReLU) Backward(dout *tensor.Matrix) *tensor.Matrix {
	dx := dout.Clone()
	for i := range dx.Data {
		if !r.mask[i] {
			dx.Data[i] = 0
		}
	}
	return dx
}

// Params returns no parameters.
func (r *ReLU) Params() []*tensor.Matrix { return nil }

// Grads returns no gradients.
func (r *ReLU) Grads() []*tensor.Matrix { return nil }

// ZeroGrads is a no-op.
func (r *ReLU) ZeroGrads() {}

// ---- Max pooling -------------------------------------------------------------

// MaxPool2 is 2×2 max pooling with stride 2 over C×H×W volumes.
type MaxPool2 struct {
	LayerName string
	C, H, W   int
	argmax    []int
}

// NewMaxPool2 creates the pool; H and W must be even.
func NewMaxPool2(name string, c, h, w int) *MaxPool2 {
	if h%2 != 0 || w%2 != 0 {
		panic("autodiff: MaxPool2 needs even spatial dims")
	}
	return &MaxPool2{LayerName: name, C: c, H: h, W: w}
}

// Name returns the layer name.
func (p *MaxPool2) Name() string { return p.LayerName }

// Forward keeps each 2×2 window's maximum.
func (p *MaxPool2) Forward(x *tensor.Matrix) *tensor.Matrix {
	oh, ow := p.H/2, p.W/2
	y := tensor.NewMatrix(x.Rows, p.C*oh*ow)
	p.argmax = make([]int, x.Rows*p.C*oh*ow)
	p.forwardInto(y, x, p.argmax)
	return y
}

// forwardInto pools into dst; argmax, when non-nil, records each
// window's winning index for Backward. The nil-argmax form is the
// gradient-free Predictor path.
func (p *MaxPool2) forwardInto(y, x *tensor.Matrix, argmax []int) {
	oh, ow := p.H/2, p.W/2
	for s := 0; s < x.Rows; s++ {
		in := x.Row(s)
		out := y.Row(s)
		for c := 0; c < p.C; c++ {
			for i := 0; i < oh; i++ {
				for j := 0; j < ow; j++ {
					best := float32(math.Inf(-1))
					bestIdx := 0
					for di := 0; di < 2; di++ {
						for dj := 0; dj < 2; dj++ {
							idx := (c*p.H+2*i+di)*p.W + 2*j + dj
							if in[idx] > best {
								best = in[idx]
								bestIdx = idx
							}
						}
					}
					oIdx := (c*oh+i)*ow + j
					out[oIdx] = best
					if argmax != nil {
						argmax[s*p.C*oh*ow+oIdx] = bestIdx
					}
				}
			}
		}
	}
}

// Backward routes each gradient to the window's argmax.
func (p *MaxPool2) Backward(dout *tensor.Matrix) *tensor.Matrix {
	oh, ow := p.H/2, p.W/2
	dx := tensor.NewMatrix(dout.Rows, p.C*p.H*p.W)
	for s := 0; s < dout.Rows; s++ {
		dOut := dout.Row(s)
		dIn := dx.Row(s)
		for k, g := range dOut {
			dIn[p.argmax[s*p.C*oh*ow+k]] += g
		}
	}
	return dx
}

// Params returns no parameters.
func (p *MaxPool2) Params() []*tensor.Matrix { return nil }

// Grads returns no gradients.
func (p *MaxPool2) Grads() []*tensor.Matrix { return nil }

// ZeroGrads is a no-op.
func (p *MaxPool2) ZeroGrads() {}
