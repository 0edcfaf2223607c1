package main

import "repro/internal/nn/autodiff"

// kernelCount is the work one layer call does, computed from the layer
// shapes: floating-point operations and the bytes the kernel reads and
// writes (float32 tensors; ints for pooling's argmax). These are counts
// from the shapes, not hardware measurements.
type kernelCount struct {
	kind               string // "conv", "fc" or "other"
	flopFwd, flopBwd   float64
	bytesFwd, bytesBwd float64
}

// kernelCounts returns one count per layer of net for a batch of b
// rows, whose per-sample input size is in.
func kernelCounts(net *autodiff.Network, b, in int) []kernelCount {
	const f32 = 4
	B := float64(b)
	out := make([]kernelCount, len(net.Layers))
	for i, l := range net.Layers {
		kc := kernelCount{kind: "other"}
		outElems, weights, bias := in, 0, 0
		switch l := l.(type) {
		case *autodiff.Conv2D:
			kc.kind = "conv"
			outElems, weights, bias = l.OutC*l.OutH*l.OutW, len(l.W.Data), l.OutC
			macs := B * float64(outElems*l.InC*l.K*l.K)
			kc.flopFwd = 2*macs + B*float64(outElems)
			kc.flopBwd = 4*macs + B*float64(outElems)
		case *autodiff.FC:
			kc.kind = "fc"
			outElems, weights, bias = l.W.Rows, len(l.W.Data), l.W.Rows
			macs := B * float64(l.W.Rows*l.W.Cols)
			kc.flopFwd = 2*macs + B*float64(outElems)
			kc.flopBwd = 4*macs + B*float64(outElems)
		case *autodiff.MaxPool2:
			outElems = in / 4
			kc.flopFwd = B * float64(in) // three compares and a store per window
			kc.flopBwd = B * float64(outElems)
		default: // ReLU
			kc.flopFwd = B * float64(in)
			kc.flopBwd = B * float64(in)
		}
		x, y := B*float64(in), B*float64(outElems)
		w, bs := float64(weights), float64(bias)
		switch l.(type) {
		case *autodiff.Conv2D, *autodiff.FC:
			// Forward reads x, W, b and writes y; backward reads dy, x, W
			// and the accumulated gradients, writes dx, dW, db.
			kc.bytesFwd = f32 * (x + w + bs + y)
			kc.bytesBwd = f32 * (y + x + w + 2*w + 2*bs + x)
		case *autodiff.MaxPool2:
			kc.bytesFwd = f32*(x+y) + 8*y // argmax indices
			kc.bytesBwd = f32*(y+x) + 8*y
		default:
			kc.bytesFwd = f32*(x+y) + x // one mask byte per element
			kc.bytesBwd = f32*(y+x) + x
		}
		out[i] = kc
		in = outElems
	}
	return out
}
