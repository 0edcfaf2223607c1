package autodiff

import (
	"math"

	"repro/internal/tensor"
)

// Predictor runs forward passes over a network without touching
// training state: no saved activations, no ReLU masks, no pooling
// argmax — and no per-call allocations once its per-layer scratch has
// warmed up to the largest batch seen. That makes it the serving-plane
// counterpart of Forward, whose layers both allocate their outputs and
// record backward state on every call.
//
// A Predictor is not safe for concurrent use; callers that serve
// concurrently pool one per in-flight forward pass.
type Predictor struct {
	net  *Network
	bufs []*tensor.Matrix
	col  []float32 // conv column scratch, sized to the largest layer's
}

// NewPredictor wraps net for inference. The network's parameters stay
// shared with net — loading new values into net.Params() changes what
// the predictor serves.
func NewPredictor(net *Network) *Predictor {
	p := &Predictor{net: net, bufs: make([]*tensor.Matrix, len(net.Layers))}
	for i := range p.bufs {
		p.bufs[i] = tensor.NewMatrix(0, 0)
	}
	return p
}

// Net exposes the predictor's replica so snapshot parameters can be
// loaded into it.
func (p *Predictor) Net() *Network { return p.net }

// SoftmaxInto writes the row-wise softmax of logits into dst, resized
// to match. The per-element arithmetic (float64 exp and division,
// truncated to float32 per term) is exactly SoftmaxCrossEntropy's, so
// served probabilities are bit-identical to what training-side
// evaluation computes from the same logits.
func SoftmaxInto(dst, logits *tensor.Matrix) {
	dst.Resize(logits.Rows, logits.Cols)
	for i := 0; i < logits.Rows; i++ {
		row := logits.Row(i)
		max := row[0]
		for _, v := range row {
			if v > max {
				max = v
			}
		}
		var sum float64
		out := dst.Row(i)
		for j, v := range row {
			e := math.Exp(float64(v - max))
			out[j] = float32(e)
			sum += e
		}
		for j := range out {
			out[j] = float32(float64(out[j]) / sum)
		}
	}
}

// Forward returns the logits for a batch. The result is the
// predictor's own scratch, valid only until the next Forward.
func (p *Predictor) Forward(x *tensor.Matrix) *tensor.Matrix {
	for i, l := range p.net.Layers {
		dst := p.bufs[i]
		switch l := l.(type) {
		case *FC:
			dst.Resize(x.Rows, l.W.Rows)
			tensor.MulTransBInto(dst, x, l.W)
			for r := 0; r < dst.Rows; r++ {
				row := dst.Row(r)
				for j, b := range l.B.Row(0) {
					row[j] += b
				}
			}
		case *Conv2D:
			dst.Resize(x.Rows, l.OutC*l.OutH*l.OutW)
			if len(p.col) < l.colLen() {
				p.col = make([]float32, l.colLen())
			}
			l.forwardInto(dst, x, p.col)
		case *ReLU:
			dst.Resize(x.Rows, x.Cols)
			for k, v := range x.Data {
				if v > 0 {
					dst.Data[k] = v
				} else {
					dst.Data[k] = 0
				}
			}
		case *MaxPool2:
			dst.Resize(x.Rows, l.C*(l.H/2)*(l.W/2))
			l.forwardInto(dst, x, nil)
		default:
			// Unknown layer kinds fall back to the training path, which
			// allocates and records state — correct, just not thrifty.
			dst = l.Forward(x)
		}
		x = dst
	}
	return x
}
