package autodiff

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// refNet builds the reference CIFAR-quick network: width 4, 8×8
// inputs, 10 classes.
func refNet() *Network {
	net, _, _, _ := CIFARQuickNet(4, 10, rand.New(rand.NewSource(1)))
	return net
}

var benchSink *tensor.Matrix

// benchLayers runs one sub-benchmark per named layer at batch 8: the
// forward pass, or with bwd the backward pass behind one forward.
func benchLayers(b *testing.B, bwd bool, names ...string) {
	net := refNet()
	layers, inputs := map[string]Layer{}, map[string]*tensor.Matrix{}
	x := randBatch(rand.New(rand.NewSource(2)), 8, net.InputDims())
	for _, l := range net.Layers {
		layers[l.Name()], inputs[l.Name()] = l, x
		x = l.Forward(x)
	}
	for _, name := range names {
		l, x := layers[name], inputs[name]
		b.Run(name, func(b *testing.B) {
			y := l.Forward(x)
			dout := randBatch(rand.New(rand.NewSource(3)), y.Rows, y.Cols)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bwd {
					benchSink = l.Backward(dout)
				} else {
					benchSink = l.Forward(x)
				}
			}
		})
	}
}

func BenchmarkConv2DFwd(b *testing.B)  { benchLayers(b, false, "conv1", "conv2") }
func BenchmarkConv2DBwd(b *testing.B)  { benchLayers(b, true, "conv1", "conv2") }
func BenchmarkFCFwd(b *testing.B)      { benchLayers(b, false, "ip1", "ip2") }
func BenchmarkFCBwd(b *testing.B)      { benchLayers(b, true, "ip1", "ip2") }
func BenchmarkMaxPoolFwd(b *testing.B) { benchLayers(b, false, "pool1", "pool2") }
func BenchmarkMaxPoolBwd(b *testing.B) { benchLayers(b, true, "pool1", "pool2") }

// BenchmarkEval is rank 0's periodic evaluation: the training-side
// forward pass and loss over a 256-row test set.
func BenchmarkEval(b *testing.B) {
	net := refNet()
	rng := rand.New(rand.NewSource(4))
	x := randBatch(rng, 256, net.InputDims())
	labels := make([]int, x.Rows)
	for i := range labels {
		labels[i] = rng.Intn(net.Classes)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Eval(x, labels)
	}
}

// BenchmarkPredictorForward is the serving path's forward pass over an
// 8-row batch, conv layers included. Its steady state allocates
// nothing; CI gates its allocs/op.
func BenchmarkPredictorForward(b *testing.B) {
	net := refNet()
	x := randBatch(rand.New(rand.NewSource(5)), 8, net.InputDims())
	p := NewPredictor(net)
	p.Forward(x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = p.Forward(x)
	}
}
