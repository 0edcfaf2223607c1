package autodiff

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// numericGrad estimates dLoss/dparam[i] by central differences.
func numericGrad(net *Network, x *tensor.Matrix, labels []int, p *tensor.Matrix, i int) float64 {
	const eps = 1e-3
	orig := p.Data[i]
	p.Data[i] = orig + eps
	lp, _ := net.Eval(x, labels)
	p.Data[i] = orig - eps
	lm, _ := net.Eval(x, labels)
	p.Data[i] = orig
	return (lp - lm) / (2 * eps)
}

func checkGradients(t *testing.T, net *Network, in int, batch int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := tensor.NewMatrix(batch, in)
	x.Randn(rng, 1)
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = rng.Intn(net.Classes)
	}
	net.ZeroGrads()
	net.LossAndGrad(x, labels)
	params, grads := net.Params(), net.Grads()
	for pi, p := range params {
		// Spot-check a few entries per tensor.
		for _, idx := range []int{0, p.NumParams() / 2, p.NumParams() - 1} {
			want := numericGrad(net, x, labels, p, idx)
			got := float64(grads[pi].Data[idx])
			if math.Abs(got-want) > 1e-2*(1+math.Abs(want)) {
				t.Errorf("param %d[%d]: analytic %.5f vs numeric %.5f", pi, idx, got, want)
			}
		}
	}
}

// The definitive autodiff test: analytic gradients match numeric ones.
func TestMLPGradientsNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := MLPNet(6, []int{5}, 3, rng)
	checkGradients(t, net, 6, 4, 2)
}

func TestConvNetGradientsNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net, c, h, w := CIFARQuickNet(4, 4, rng) // 8×8 inputs for speed
	checkGradients(t, net, c*h*w, 3, 4)
}

func TestSoftmaxCrossEntropyBasics(t *testing.T) {
	logits := tensor.FromSlice(2, 3, []float32{10, 0, 0, 0, 10, 0})
	probs, loss, errs := SoftmaxCrossEntropy(logits, []int{0, 1})
	if errs != 0 {
		t.Fatalf("errs = %d", errs)
	}
	if loss > 0.01 {
		t.Fatalf("confident correct predictions should have tiny loss: %v", loss)
	}
	if probs.At(0, 0) < 0.99 {
		t.Fatalf("prob = %v", probs.At(0, 0))
	}
	_, _, errs = SoftmaxCrossEntropy(logits, []int{1, 0})
	if errs != 2 {
		t.Fatalf("errs = %d, want 2", errs)
	}
	// Row sums to 1.
	var sum float32
	for _, v := range probs.Row(0) {
		sum += v
	}
	if math.Abs(float64(sum)-1) > 1e-5 {
		t.Fatalf("probs don't sum to 1: %v", sum)
	}
}

// FC sufficient factors must reconstruct the exact weight gradient.
func TestFCSufficientFactorMatchesGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fc := NewFC("fc", 7, 4, rng)
	x := tensor.NewMatrix(5, 7)
	x.Randn(rng, 1)
	y := fc.Forward(x)
	dout := tensor.NewMatrix(y.Rows, y.Cols)
	dout.Randn(rng, 1)
	fc.ZeroGrads()
	fc.Backward(dout)
	sf := fc.SufficientFactor()
	if !sf.Reconstruct().ApproxEqual(fc.GW, 1e-4) {
		t.Fatal("SF reconstruction != GW")
	}
}

func TestReLUForwardBackward(t *testing.T) {
	r := NewReLU("r")
	x := tensor.FromSlice(1, 4, []float32{-1, 2, 0, 3})
	y := r.Forward(x)
	want := []float32{0, 2, 0, 3}
	for i, v := range y.Data {
		if v != want[i] {
			t.Fatalf("forward[%d] = %v", i, v)
		}
	}
	dx := r.Backward(tensor.FromSlice(1, 4, []float32{1, 1, 1, 1}))
	wantDx := []float32{0, 1, 0, 1}
	for i, v := range dx.Data {
		if v != wantDx[i] {
			t.Fatalf("backward[%d] = %v", i, v)
		}
	}
}

func TestMaxPoolForwardBackward(t *testing.T) {
	p := NewMaxPool2("p", 1, 2, 2)
	x := tensor.FromSlice(1, 4, []float32{1, 5, 3, 2})
	y := p.Forward(x)
	if y.Cols != 1 || y.Data[0] != 5 {
		t.Fatalf("pool forward = %v", y.Data)
	}
	dx := p.Backward(tensor.FromSlice(1, 1, []float32{7}))
	want := []float32{0, 7, 0, 0}
	for i, v := range dx.Data {
		if v != want[i] {
			t.Fatalf("pool backward[%d] = %v", i, v)
		}
	}
}

// Training on a trivially separable problem must drive the loss down —
// the end-to-end sanity check for the whole runtime.
func TestTrainingReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := MLPNet(4, []int{16}, 2, rng)
	x := tensor.NewMatrix(32, 4)
	labels := make([]int, 32)
	for i := 0; i < 32; i++ {
		cls := i % 2
		labels[i] = cls
		for j := 0; j < 4; j++ {
			x.Set(i, j, float32(rng.NormFloat64())*0.1+float32(cls)*2-1)
		}
	}
	first, _ := net.Eval(x, labels)
	for it := 0; it < 200; it++ {
		net.ZeroGrads()
		net.LossAndGrad(x, labels)
		net.SGDStep(0.1)
	}
	last, errRate := net.Eval(x, labels)
	if last > first/4 {
		t.Fatalf("loss %0.4f → %0.4f: did not train", first, last)
	}
	if errRate > 0.05 {
		t.Fatalf("error rate %.2f after training", errRate)
	}
}

func TestNumParamsAndNames(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net := MLPNet(4, []int{8}, 2, rng)
	want := 4*8 + 8 + 8*2 + 2
	if got := net.NumParams(); got != want {
		t.Fatalf("NumParams = %d, want %d", got, want)
	}
	for _, l := range net.Layers {
		if l.Name() == "" {
			t.Fatal("unnamed layer")
		}
	}
}

func TestConvOutputShapePanic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewConv2D("bad", 1, 2, 2, 1, 5, 1, 0, rng)
}

// directConvForward is the direct convolution Conv2D.forwardInto
// replaced, kept as its oracle: each output starts from its bias and
// adds w·x over the in-bounds taps in ascending (ic·K+kh)·K+kw order.
func directConvForward(c *Conv2D, y, x *tensor.Matrix) {
	for s := 0; s < x.Rows; s++ {
		in := x.Row(s)
		out := y.Row(s)
		for oc := 0; oc < c.OutC; oc++ {
			wrow := c.W.Row(oc)
			bias := c.B.Data[oc]
			for oh := 0; oh < c.OutH; oh++ {
				for ow := 0; ow < c.OutW; ow++ {
					sum := bias
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
								sum += wrow[(ic*c.K+kh)*c.K+kw] * in[c.inIdx(ic, ih, iw)]
							}
						}
					}
					out[c.outIdx(oc, oh, ow)] = sum
				}
			}
		}
	}
}

// TestConvForwardMatchesDirect demands that the im2col + GEMM forward
// pass reproduces the direct convolution bit for bit, on the reference
// layers and on shapes that reach every edge of the blocking: strides,
// no padding, odd output-channel and position counts, a 1×1 output.
func TestConvForwardMatchesDirect(t *testing.T) {
	cases := []struct {
		name                           string
		inC, inH, inW, outC, k, st, pd int
	}{
		{"conv1", 3, 8, 8, 16, 5, 1, 2},
		{"conv2", 16, 4, 4, 16, 5, 1, 2},
		{"stride2", 3, 9, 9, 8, 3, 2, 1},
		{"pad0", 4, 7, 7, 8, 3, 1, 0},
		{"k3", 5, 6, 6, 8, 3, 1, 1},
		{"outc6", 3, 6, 5, 6, 3, 1, 1},
		{"outc3", 2, 5, 5, 3, 5, 1, 2},
		{"out1x1", 3, 5, 5, 7, 5, 1, 0},
	}
	rng := rand.New(rand.NewSource(11))
	for _, tc := range cases {
		c := NewConv2D(tc.name, tc.inC, tc.inH, tc.inW, tc.outC, tc.k, tc.st, tc.pd, rng)
		c.B.Randn(rng, 1)
		for _, rows := range []int{1, 8, 256} {
			x := randBatch(rng, rows, tc.inC*tc.inH*tc.inW)
			want := tensor.NewMatrix(rows, c.OutC*c.OutH*c.OutW)
			directConvForward(c, want, x)
			got := c.Forward(x)
			for i, v := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(v) {
					t.Fatalf("%s rows=%d: out[%d] = %g, direct %g", tc.name, rows, i, got.Data[i], v)
				}
			}
		}
	}
}
