package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cliflags"
	"repro/internal/comm"
	"repro/internal/metrics"
	"repro/internal/nn/autodiff"
	"repro/internal/tensor"
	"repro/internal/train"
	"repro/internal/transport"
	"repro/poseidon"
)

// task is the training set-up of one training workload: what the
// shipped binaries (or the benchmark's Session child) train, restated
// so the traced replay can make the same calls.
type task struct {
	model     string // "cnn" or "mlp"
	batch     int
	evalEvery int
	// linkBPS and linkLatency model every link with transport.DelayMesh;
	// zero means the real transport (TCP loopback).
	linkBPS     float64
	linkLatency time.Duration
}

const learningRate = 0.1

func taskFor(model string) (task, error) {
	switch model {
	case "cnn":
		// cliflags' reference workload: CIFAR-quick at width 4, batch 8,
		// rank-0 eval every 10 iterations.
		return task{model: "cnn", batch: 8, evalEvery: 10}, nil
	case "mlp":
		// funcscale's link: 20 MB/s and 100 µs one way.
		return task{model: "mlp", batch: 16, linkBPS: 20e6, linkLatency: 100 * time.Microsecond}, nil
	}
	return task{}, fmt.Errorf("unknown model %q", model)
}

func (t task) builder() poseidon.ModelBuilder {
	if t.model == "cnn" {
		return cliflags.ReferenceModel()
	}
	return func(rng *rand.Rand) *autodiff.Network {
		return autodiff.MLPNet(192, []int{512, 512}, 10, rng)
	}
}

// config is the train.Config the Session builds for this task: the
// planner and the router are derived from it exactly as train does.
func (t task) config(workers, iters int, seed int64) train.Config {
	trainSet, testSet := cliflags.ReferenceData(seed)
	return train.Config{
		Workers: workers, Iters: iters, Batch: t.batch, LR: learningRate,
		Mode: train.Hybrid, Seed: seed, Overlap: true,
		BuildNet: t.builder(), EvalEvery: t.evalEvery,
		TrainSet: trainSet, TestSet: testSet,
	}
}

// layerNames gives each layer a unique metric name: a repeated name
// (the MLP's ReLUs are all "relu") is qualified by the layer before it.
func layerNames(net *autodiff.Network) []string {
	count := map[string]int{}
	for _, l := range net.Layers {
		count[l.Name()]++
	}
	names := make([]string, len(net.Layers))
	for i, l := range net.Layers {
		names[i] = l.Name()
		if count[l.Name()] > 1 && i > 0 {
			names[i] = net.Layers[i-1].Name() + "_" + l.Name()
		}
	}
	return names
}

// paramDigest is FNV-1a over the bit patterns of every parameter value,
// in order: the same digest poseidon-worker prints as PARAMS.
func paramDigest(params []*tensor.Matrix) string {
	h := fnv.New64a()
	var b [4]byte
	for _, p := range params {
		for _, v := range p.Data {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// countingMesh times and counts every non-loopback send of the mesh it
// wraps; for a modeled link it also sums the wire time the model
// charges.
type countingMesh struct {
	transport.Mesh
	linkBPS     float64
	linkLatency time.Duration

	frames, bytes, sendNS, modelNS atomic.Int64
}

func (m *countingMesh) note(start time.Time, msgs ...transport.Message) {
	m.sendNS.Add(int64(time.Since(start)))
	total := 0
	for _, msg := range msgs {
		total += transport.WireBytes(msg)
	}
	m.frames.Add(int64(len(msgs)))
	m.bytes.Add(int64(total))
	if m.linkBPS > 0 {
		// DelayMesh charges one latency per Send or SendBatch call.
		m.modelNS.Add(int64(m.linkLatency) + int64(float64(total)/m.linkBPS*1e9))
	}
}

func (m *countingMesh) Send(to int, msg transport.Message) error {
	if to == m.Self() {
		return m.Mesh.Send(to, msg)
	}
	start := time.Now()
	err := m.Mesh.Send(to, msg)
	m.note(start, msg)
	return err
}

func (m *countingMesh) SendBatch(to int, msgs []transport.Message) error {
	if to == m.Self() {
		return m.Mesh.SendBatch(to, msgs)
	}
	start := time.Now()
	err := m.Mesh.SendBatch(to, msgs)
	m.note(start, msgs...)
	return err
}

// rankSummary is what one traced rank reports besides its spans.
type rankSummary struct {
	Rank    int                  `json:"rank"`
	Layers  []string             `json:"layers"`
	Losses  []float64            `json:"losses"`
	Digest  string               `json:"digest"`
	Frames  int64                `json:"frames"`
	Bytes   int64                `json:"bytes"`
	SendNS  int64                `json:"send_ns"`
	ModelNS int64                `json:"model_ns"`
	Comm    metrics.CommSnapshot `json:"comm"`
}

// replayRank runs one worker of the fixed-membership training loop with
// a span around every call into a layer. The calls and their order are
// those of train's worker loop (WaitFor, Adopt, forward, loss,
// backward, LaunchAll, Eval), so the loss curve must match the
// untraced run bit for bit.
func replayRank(cfg train.Config, mesh *countingMesh, tr *tracer) (*rankSummary, error) {
	rank, n := mesh.Self(), mesh.N()
	net := cfg.BuildNet(rand.New(rand.NewSource(cfg.Seed)))
	local := cfg.TrainSet.Shard(rank, n)
	params, grads := net.Params(), net.Grads()

	planner := train.PlannerFor(cfg)
	plans, err := planner.ParamPlans(train.ParamSpecs(net))
	if err != nil {
		return nil, err
	}
	sf := sfExtractors(net)
	for i := range plans {
		if plans[i].Route == comm.RouteSFB {
			plans[i].SF = sf[i]
		}
	}
	mtr := metrics.NewComm()
	router, err := comm.NewRouter(comm.Config{
		Mesh: mesh, Plans: plans, Params: params,
		Scale:    -cfg.LR / float32(n),
		Overlap:  cfg.Overlap,
		Metrics:  mtr,
		SFSource: func(i int) func() *tensor.SufficientFactor { return sf[i] },
	})
	if err != nil {
		return nil, err
	}
	router.Start()
	defer router.Stop()

	names := layerNames(net)
	sum := &rankSummary{Rank: rank, Layers: names}
	for iter := 0; ; iter++ {
		root := 0
		if iter < cfg.Iters {
			root = tr.open(iter, 0, "iter")
			tr.do(iter, root, "comm.wait", func() { router.WaitFor(iter) })
		} else {
			tr.do(iter, 0, "comm.wait", func() { router.WaitFor(cfg.Iters) })
		}
		if err := router.Err(); err != nil {
			return nil, err
		}
		if iter >= cfg.Iters {
			break
		}
		tr.do(iter, root, "comm.adopt", func() { router.Adopt(params) })

		x, labels := local.Batch(iter*cfg.Batch, cfg.Batch)
		net.ZeroGrads()
		for i, l := range net.Layers {
			tr.do(iter, root, "fwd."+names[i], func() { x = l.Forward(x) })
		}
		var loss float64
		var dout *tensor.Matrix
		tr.do(iter, root, "loss", func() {
			// Network.LossAndGrad's head: dL/dlogits = (probs − onehot)/K.
			dout, loss, _ = autodiff.SoftmaxCrossEntropy(x, labels)
			k := float32(cfg.Batch)
			for r := 0; r < dout.Rows; r++ {
				row := dout.Row(r)
				row[labels[r]] -= 1
				for j := range row {
					row[j] /= k
				}
			}
		})
		for i := len(net.Layers) - 1; i >= 0; i-- {
			l := net.Layers[i]
			tr.do(iter, root, "bwd."+names[i], func() { dout = l.Backward(dout) })
		}
		var lerr error
		tr.do(iter, root, "comm.launch", func() { lerr = router.LaunchAll(iter, grads) })
		if lerr != nil {
			return nil, lerr
		}
		if cfg.EvalEvery > 0 && rank == 0 && (iter+1)%cfg.EvalEvery == 0 {
			tr.do(iter, root, "eval", func() { net.Eval(cfg.TestSet.X, cfg.TestSet.Labels) })
		}
		tr.close(root)
		sum.Losses = append(sum.Losses, loss)
	}
	router.Adopt(params)
	if err := router.Err(); err != nil {
		return nil, err
	}
	sum.Digest = paramDigest(params)
	sum.Frames, sum.Bytes = mesh.frames.Load(), mesh.bytes.Load()
	sum.SendNS, sum.ModelNS = mesh.sendNS.Load(), mesh.modelNS.Load()
	sum.Comm = mtr.Snapshot()
	return sum, nil
}

// sfExtractors maps every FC weight's parameter index to its
// sufficient-factor extractor, as train does for the SFB route.
func sfExtractors(net *autodiff.Network) map[int]func() *tensor.SufficientFactor {
	out := map[int]func() *tensor.SufficientFactor{}
	idx := 0
	for _, layer := range net.Layers {
		fc, isFC := layer.(*autodiff.FC)
		for pi, p := range layer.Params() {
			if isFC && pi == 0 && fc.W == p {
				out[idx] = fc.BorrowSufficientFactor
			}
			idx++
		}
	}
	return out
}

// runReplayChild is `perfbench child replay`: the traced training replay.
// With -peers it is one TCP rank of a multi-process run; otherwise it
// runs -workers ranks in this process over a channel mesh.
func runReplayChild(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	model := fs.String("model", "cnn", "cnn or mlp")
	seed := fs.Int64("seed", 1, "data and model seed")
	iters := fs.Int("iters", 60, "training iterations")
	workers := fs.Int("workers", 2, "in-process ranks (without -peers)")
	rank := fs.Int("rank", 0, "this rank (with -peers)")
	peers := fs.String("peers", "", "comma-separated TCP addresses of every rank")
	out := fs.String("out", "", "directory for the span and summary files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	t, err := taskFor(*model)
	if err != nil {
		return err
	}
	var meshes []transport.Mesh
	if *peers != "" {
		addrs := strings.Split(*peers, ",")
		// Session.Build's TCP set-up with metrics attached.
		wire := metrics.NewComm().Wire()
		tcp, err := transport.NewTCPMeshOpts(*rank, addrs, transport.TCPOptions{OnCopy: wire.CountCopied})
		if err != nil {
			return err
		}
		meshes = []transport.Mesh{transport.NewMeteredMesh(tcp, wire)}
	} else {
		for _, m := range transport.NewChanCluster(*workers) {
			meshes = append(meshes, m)
		}
	}
	cfg := t.config(meshes[0].N(), *iters, *seed)
	errs := make([]error, len(meshes))
	var wg sync.WaitGroup
	for i, m := range meshes {
		inner := m
		if t.linkBPS > 0 {
			inner = transport.NewDelayMesh(m, t.linkBPS, t.linkLatency)
		}
		cm := &countingMesh{Mesh: inner, linkBPS: t.linkBPS, linkLatency: t.linkLatency}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr := newTracer()
			sum, err := replayRank(cfg, cm, tr)
			if err == nil {
				err = writeRank(*out, sum, tr)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for _, m := range meshes {
		m.Close()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func writeRank(dir string, sum *rankSummary, tr *tracer) error {
	base := filepath.Join(dir, fmt.Sprintf("rank%d", sum.Rank))
	if err := tr.write(base + ".spans"); err != nil {
		return err
	}
	b, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	return os.WriteFile(base+".json", b, 0o644)
}
