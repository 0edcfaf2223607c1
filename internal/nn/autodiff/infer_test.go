package autodiff

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func randBatch(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	x := tensor.NewMatrix(rows, cols)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	return x
}

// TestPredictorMatchesForward demands bit-identical logits between the
// training Forward chain and the gradient-free Predictor, across both
// reference architectures (with non-zero biases) and shrinking/growing
// batch sizes (the scratch-reuse path).
func TestPredictorMatchesForward(t *testing.T) {
	nets := map[string]*Network{}
	{
		rng := rand.New(rand.NewSource(7))
		net, _, _, _ := CIFARQuickNet(4, 10, rng)
		nets["cifarquick"] = net
	}
	nets["mlp"] = MLPNet(16, []int{32, 8}, 4, rand.New(rand.NewSource(8)))

	for name, net := range nets {
		p := NewPredictor(net)
		rng := rand.New(rand.NewSource(99))
		for _, l := range net.Layers {
			if ps := l.Params(); len(ps) == 2 {
				ps[1].Randn(rng, 1)
			}
		}
		for _, rows := range []int{4, 1, 16, 3, 256} {
			x := randBatch(rng, rows, net.InputDims())
			want := net.Forward(x)
			got := p.Forward(x)
			if got.Rows != want.Rows || got.Cols != want.Cols {
				t.Fatalf("%s rows=%d: predictor shape %dx%d, want %dx%d",
					name, rows, got.Rows, got.Cols, want.Rows, want.Cols)
			}
			for i, v := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(v) {
					t.Fatalf("%s rows=%d: logit[%d] = %g, want %g", name, rows, i, got.Data[i], v)
				}
			}
		}
	}
}

// TestPredictorLeavesTrainingStateAlone interleaves Predictor passes
// with a LossAndGrad step and checks the training trajectory is
// unchanged — inference must not perturb saved activations, masks, or
// gradients.
func TestPredictorLeavesTrainingStateAlone(t *testing.T) {
	build := func() *Network { return MLPNet(12, []int{24}, 3, rand.New(rand.NewSource(3))) }
	labels := []int{0, 2, 1, 0}

	rng := rand.New(rand.NewSource(42))
	x := randBatch(rng, 4, 12)
	probe := randBatch(rng, 8, 12)

	clean := build()
	clean.ZeroGrads()
	wantLoss, _ := clean.LossAndGrad(x, labels)
	clean.SGDStep(0.1)

	noisy := build()
	p := NewPredictor(noisy)
	p.Forward(probe)
	noisy.ZeroGrads()
	gotLoss, _ := noisy.LossAndGrad(x, labels)
	p.Forward(probe) // between backward and the step
	noisy.SGDStep(0.1)

	if gotLoss != wantLoss {
		t.Fatalf("loss with interleaved inference %g, want %g", gotLoss, wantLoss)
	}
	wantPs, gotPs := clean.Params(), noisy.Params()
	for i := range wantPs {
		for j, v := range wantPs[i].Data {
			if gotPs[i].Data[j] != v {
				t.Fatalf("param[%d][%d] = %g after interleaved inference, want %g",
					i, j, gotPs[i].Data[j], v)
			}
		}
	}
}

// TestPredictorSteadyStateAllocs pins the zero-allocation property the
// serving plane's latency budget rests on.
func TestPredictorSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net, _, _, _ := CIFARQuickNet(4, 10, rng)
	p := NewPredictor(net)
	x := randBatch(rng, 16, net.InputDims())
	p.Forward(x) // warm the scratch
	if allocs := testing.AllocsPerRun(20, func() { p.Forward(x) }); allocs > 0 {
		t.Fatalf("steady-state Predictor.Forward allocates %.1f times per op, want 0", allocs)
	}
}
