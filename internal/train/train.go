// Package train is the functional plane of the Poseidon reproduction:
// real data-parallel SGD over real tensors, synchronized through the
// paper's protocol. The communication itself — per-parameter syncers
// (PS / SFB / 1-bit), the sharded bulk-synchronous KV store, chunked
// overlapped pushes — lives in internal/comm; this package only builds
// the model, shards the data, derives the per-parameter routing plan
// from the cost model, and drives the compute loop against the
// synchronization runtime.
//
// The trainer is transport-agnostic: hand each worker a
// transport.Mesh endpoint (in-process channels or real TCP) and it
// speaks the same wire protocol.
package train

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/metrics"
	"repro/internal/nn/autodiff"
	"repro/internal/poseidon"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// SyncMode selects the communication strategy for the functional plane.
type SyncMode int

// Supported strategies.
const (
	// PSOnly routes every parameter through the sharded KV store.
	PSOnly SyncMode = iota
	// Hybrid routes FC weight matrices through SFB when the paper's
	// cost model prefers it, everything else through the KV store.
	Hybrid
	// OneBit quantizes FC weight-gradient pushes to 1 bit with residual
	// feedback (CNTK baseline); other tensors use the KV store.
	OneBit
)

// String names the mode.
func (m SyncMode) String() string {
	switch m {
	case PSOnly:
		return "PS"
	case Hybrid:
		return "Hybrid"
	case OneBit:
		return "1bit"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Config parameterizes a functional training run.
type Config struct {
	Workers int
	Iters   int
	Batch   int // per-worker batch size
	LR      float32
	Mode    SyncMode
	Seed    int64

	// Staleness bounds how many iterations a fast worker may run ahead
	// of the slowest layer synchronization (stale synchronous parallel;
	// Ho et al., cited by the paper as the consistency relaxation
	// Poseidon's design extends to). 0 is BSP.
	Staleness int

	// Overlap streams pushes through the comm runtime's bounded send
	// pool, so a layer's chunks are on the wire while later layers are
	// still being launched (wait-free backpropagation). Off, every send
	// completes before the next launch — the serialized baseline.
	Overlap bool
	// ChunkElems caps the float32 count per KV chunk on the PS route
	// (0 = whole tensors). Chunking spreads one large layer across all
	// shards so its pushes overlap each other.
	ChunkElems int
	// PoolWorkers sizes the send pool when Overlap is on (0 = default).
	PoolWorkers int

	// BuildNet constructs the model; it is called once per worker with
	// an identically seeded RNG so all replicas start identical.
	BuildNet func(rng *rand.Rand) *autodiff.Network

	// EvalEvery > 0 makes worker 0 evaluate on the test set every that
	// many iterations.
	EvalEvery int
	TrainSet  *data.Dataset // sharded across workers
	TestSet   *data.Dataset // evaluated by worker 0

	// Progress, when set, is called with every recorded Point as the
	// run produces it — the streaming hook multi-process workers use to
	// report liveness before the curve is complete. Called from the
	// worker's compute goroutine; keep it fast.
	Progress func(Point)

	// RouteOverrides pins parameter index → scheme, trumping the
	// planner's policy for those tensors (the worker's -route flag and
	// ablations). Overriding a non-FC tensor onto SFB or 1-bit fails at
	// plan time.
	RouteOverrides map[int]poseidon.Scheme

	// Bandwidth seeds the planner's link-speed estimate in bytes/second
	// (the worker's -bw flag). A positive value makes Algorithm 1
	// bandwidth-aware — scheme choice by modeled seconds, including the
	// per-frame overhead — instead of byte-count-only. 0 keeps the
	// classic byte-count rule.
	Bandwidth float64

	// Replan enables measured-bandwidth re-planning: every Replan.Every
	// iterations the cluster runs a planned view change that keeps its
	// members — every worker drains to the barrier, the barrier leader
	// (the lowest live rank) folds the wire rate it actually measured
	// into the planner's EWMA estimate, re-runs Algorithm 1 under it, and
	// broadcasts the (possibly unchanged) routes in the view frame that
	// every worker applies deterministically — so a cluster started with
	// a mis-set Bandwidth converges onto the plan its real network
	// deserves, with replicas staying byte-identical. Composes with
	// Elastic: a membership change landing near a planned barrier merges
	// into it.
	Replan ReplanSpec

	// Metrics, when set, receives this worker's live communication
	// counters (per-parameter wire traffic, sync-stall time, KV
	// rounds); snapshot it after the run for the -metrics-dump report.
	Metrics *metrics.Comm

	// Elastic enables membership epochs: a peer failure or voluntary
	// departure no longer aborts the run — the survivors drain to a
	// membership barrier, agree on a successor view, re-shard data and
	// parameter state, and continue at the barrier's restart iteration.
	// Workers and PS shards contract and expand together (shards are
	// colocated with workers, as in the paper's deployments). Membership
	// barriers and Replan's planned barriers are one protocol, so the two
	// combine freely.
	Elastic bool
	// View is the initial membership (zero value: all mesh ranks,
	// cluster.Initial(mesh.N())). In an elastic run the mesh is sized
	// for cluster *capacity*; View names the ranks actually serving.
	View cluster.View
	// Joining marks this worker as a late joiner: it is not in View,
	// contributes no halt, and adopts everything — view, routes,
	// parameters — from its first membership barrier.
	Joining bool
	// StartIter, when > 0, resumes training at that iteration instead
	// of 0 — the continuation point of a run seeded from a snapshot
	// (InitialParams then carry the snapshot replica). Used by the
	// churn parity harness to replay a post-crash epoch from the state
	// the survivors adopted.
	StartIter int
	// InitialParams, when set, overwrite the built network's parameters
	// before training starts (row-major float32, Params() order) — the
	// snapshot companion of StartIter.
	InitialParams [][]float32
	// LeaveAt > 0 makes this worker announce a voluntary departure at
	// that iteration: it calls Leave, participates in the membership
	// barrier, and returns with Result.Left set once excluded.
	LeaveAt int
	// OnViewChange, when set, is called from the compute goroutine
	// after each barrier commits (membership transitions and planned
	// replan barriers alike), with the successor view
	// and a deep copy of the adopted replica — the snapshot a parity
	// reference run continues from.
	OnViewChange func(ViewEvent)
	// ViewTimeout bounds each membership barrier (0 = comm default).
	ViewTimeout time.Duration

	// SnapshotEvery > 0 fires OnSnapshot every that many iterations at
	// the round barrier — right after the synchronized replica is
	// adopted, so the captured bytes are identical across workers — plus
	// once more with the final replica when the run drains.
	SnapshotEvery int
	// OnSnapshot receives each barrier capture on the worker whose
	// transport rank is SnapshotRank. Params are the live tensors,
	// valid only for the duration of the call: copy what you keep.
	OnSnapshot func(SnapshotEvent)
	// SnapshotRank is the transport rank that feeds OnSnapshot (in a
	// shared-Config in-process run, exactly one worker must capture).
	SnapshotRank int
	// Stop, when non-nil, aborts the run when it becomes receivable:
	// the router is poisoned with ErrCanceled and the compute loop
	// surfaces it at its next synchronization point. This is the
	// cancellation hook Session.RunContext wires to ctx.Done().
	Stop <-chan struct{}
}

// ErrCanceled is the error a run aborts with when Config.Stop fires.
var ErrCanceled = errors.New("train: run canceled")

// SnapshotEvent is one barrier capture of the synchronized replica.
type SnapshotEvent struct {
	// Iter is the round barrier the capture was taken at: the replica
	// has folded exactly Iter iterations.
	Iter int
	// Epoch is the membership epoch the capture was taken under.
	Epoch int
	// Params are the live parameter tensors in Params() order, borrowed
	// for the duration of the OnSnapshot call only.
	Params []*tensor.Matrix
}

// ViewEvent describes one committed membership transition, as observed
// by a worker's compute loop.
type ViewEvent struct {
	// View is the successor membership.
	View cluster.View
	// RestartIter is the iteration training resumed at. Iterations in
	// flight when the trigger hit are skipped, not recomputed: every
	// surviving replica adopted the leader's bytes, so the run stays
	// consistent — it just loses the fenced-out rounds.
	RestartIter int
	// Params is a deep copy of the adopted replica (Params() order),
	// taken before the first post-barrier iteration.
	Params [][]float32
}

// ReplanSpec configures measured-bandwidth re-planning (Config.Replan).
type ReplanSpec struct {
	// Every is the epoch length in iterations: each multiple of it is a
	// planned barrier. 0 disables replanning.
	Every int
	// Alpha is the EWMA weight of the newest bandwidth observation
	// (0 = poseidon.DefaultReplanAlpha).
	Alpha float64
	// Hysteresis is the fractional modeled-time advantage required to
	// flip a route (0 = poseidon.DefaultReplanHysteresis).
	Hysteresis float64
	// FrameOverhead is the modeled fixed cost per wire frame in seconds
	// (0 = poseidon.DefaultFrameOverheadSec whenever the planner is
	// bandwidth-aware).
	FrameOverhead float64
}

// Point is one recorded training measurement.
type Point struct {
	Iter      int
	TrainLoss float64
	TestErr   float64 // test error rate on eval points, -1 everywhere else
}

// Result aggregates a run's curves and final state.
type Result struct {
	Curve []Point
	Final *autodiff.Network // worker 0's final replica
	Mode  SyncMode
	// Left is true when this worker departed voluntarily at a
	// membership barrier (Config.LeaveAt); Final then holds the replica
	// as of the departure, not the run's end.
	Left bool
}

// Run executes a full data-parallel training run over an in-process
// channel mesh and returns worker 0's result. All replicas are verified
// to agree at the end (BSP invariant).
func Run(cfg Config) (*Result, error) {
	meshes := transport.NewChanCluster(cfg.Workers)
	endpoints := make([]transport.Mesh, cfg.Workers)
	for i, m := range meshes {
		endpoints[i] = m
	}
	return RunOver(cfg, endpoints)
}

// RunOver executes one worker per provided mesh endpoint and returns
// endpoint 0's result — the injection point for custom transports
// (bandwidth-modeled DelayMesh wrappers, instrumented meshes).
func RunOver(cfg Config, meshes []transport.Mesh) (*Result, error) {
	results, err := RunOverAll(cfg, meshes)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// RunOverAll is RunOver keeping every worker's result (each worker
// records loss on its own data shard — what parity tests and reference
// runs need). Every endpoint is closed when all workers finish:
// per-endpoint transports (one TCPMesh per worker) each own real
// sockets, and for cluster-scoped transports (ChanCluster) the extra
// Closes are idempotent no-ops.
func RunOverAll(cfg Config, meshes []transport.Mesh) ([]*Result, error) {
	if len(meshes) != cfg.Workers {
		return nil, fmt.Errorf("train: %d mesh endpoints for %d workers", len(meshes), cfg.Workers)
	}
	results := make([]*Result, cfg.Workers)
	errs := make([]error, cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[w], errs[w] = RunWorker(cfg, meshes[w])
		}()
	}
	wg.Wait()
	for _, m := range meshes {
		m.Close()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// RunWorker executes one worker of a data-parallel run over the given
// mesh endpoint. Every participant must call it with an identical
// Config.
func RunWorker(cfg Config, mesh transport.Mesh) (*Result, error) {
	w := &worker{cfg: cfg, mesh: mesh, rank: mesh.Self(), id: mesh.Self(), n: mesh.N()}
	res, err := w.run()
	if err != nil && cfg.Stop != nil && !errors.Is(err, ErrCanceled) {
		// A fired Stop races the cluster-wide abort it triggers: a peer
		// that observed the cancellation first aborts the mesh, and this
		// worker can surface that peer's abort before its own stop
		// watcher poisons the router. Once Stop is receivable, any abort
		// is the cancellation propagating — report it as such.
		select {
		case <-cfg.Stop:
			err = fmt.Errorf("%w (via cluster abort: %v)", ErrCanceled, err)
		default:
		}
	}
	return res, err
}

type worker struct {
	cfg  Config
	mesh transport.Mesh
	// rank is the immutable transport endpoint id; id and n are the
	// dense index and size within the current membership view, which an
	// elastic run rebinds at every membership barrier.
	rank int
	id   int
	n    int
	// epoch tracks the membership epoch of the view the worker is
	// currently seated in (versioning for barrier snapshots).
	epoch int

	net    *autodiff.Network
	router *comm.Router
	local  *data.Dataset
}

// snapshots reports whether this worker feeds Config.OnSnapshot.
func (w *worker) snapshots() bool {
	return w.cfg.SnapshotEvery > 0 && w.cfg.OnSnapshot != nil && w.rank == w.cfg.SnapshotRank
}

// snapshotBarrier hands the freshly adopted replica to the snapshot
// hook. Called only at round barriers, where params are synchronized.
func (w *worker) snapshotBarrier(iter int, params []*tensor.Matrix) {
	w.cfg.OnSnapshot(SnapshotEvent{Iter: iter, Epoch: w.epoch, Params: params})
}

func (w *worker) run() (*Result, error) {
	cfg := w.cfg
	if !cfg.Elastic {
		if cfg.Joining {
			return nil, fmt.Errorf("train: Joining requires Elastic")
		}
		if cfg.View.Size() > 0 {
			return nil, fmt.Errorf("train: View requires Elastic")
		}
	}
	if cfg.StartIter < 0 || (cfg.StartIter > 0 && cfg.StartIter >= cfg.Iters) {
		return nil, fmt.Errorf("train: start iteration %d outside [0,%d)", cfg.StartIter, cfg.Iters)
	}
	if cfg.LeaveAt > 0 {
		if !cfg.Elastic {
			return nil, fmt.Errorf("train: LeaveAt requires Elastic")
		}
		if cfg.LeaveAt <= cfg.StartIter || cfg.LeaveAt >= cfg.Iters {
			return nil, fmt.Errorf("train: LeaveAt %d outside (%d,%d)", cfg.LeaveAt, cfg.StartIter, cfg.Iters)
		}
	}
	view := cfg.View.Clone()
	if cfg.Elastic {
		if view.Size() == 0 {
			view = cluster.Initial(w.mesh.N())
		}
		w.n = view.Size()
		w.epoch = view.Epoch
		if cfg.Joining {
			// A joiner has no dense index until its first membership
			// barrier seats it; it adopts view, routes, parameters, and
			// data shard from the barrier.
			w.id = -1
		} else {
			w.id = view.Index(w.rank)
			if w.id < 0 {
				return nil, fmt.Errorf("train: rank %d not in initial view %v", w.rank, view.Members)
			}
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	w.net = cfg.BuildNet(rng)
	if !cfg.Joining {
		w.local = cfg.TrainSet.Shard(w.id, w.n)
	}

	mtr := cfg.Metrics
	if cfg.Replan.Every > 0 && mtr == nil {
		// The bandwidth estimator differences the router's egress
		// counters, which exist only with metrics attached.
		mtr = metrics.NewComm()
	}

	params := w.net.Params()
	grads := w.net.Grads()
	if cfg.InitialParams != nil {
		if len(cfg.InitialParams) != len(params) {
			return nil, fmt.Errorf("train: %d initial parameter tensors for a %d-parameter net", len(cfg.InitialParams), len(params))
		}
		for i, p := range params {
			if len(cfg.InitialParams[i]) != len(p.Data) {
				return nil, fmt.Errorf("train: initial parameter %d has %d elems, want %d", i, len(cfg.InitialParams[i]), len(p.Data))
			}
			copy(p.Data, cfg.InitialParams[i])
		}
	}
	planner := plannerFor(cfg, w.n)
	plans, sfFor, err := plansFor(planner, w.net)
	if err != nil {
		return nil, err
	}
	// The measurement window a planned barrier's bandwidth observation
	// covers: egress bytes and wall time from the previous barrier to
	// this worker's arrival at the next one, before its drain, so time
	// spent waiting at the barrier does not read as a slow wire.
	var winStart, winEnd time.Time
	var winBytes, winEndBytes int64
	rcfg := comm.Config{
		Mesh:   w.mesh,
		Plans:  plans,
		Params: params,
		// The cluster-wide update is −LR · mean over all P·K samples, so
		// each worker contributes −LR/P of its local mean gradient.
		Scale:       -cfg.LR / float32(w.n),
		Staleness:   cfg.Staleness,
		Overlap:     cfg.Overlap,
		ChunkElems:  cfg.ChunkElems,
		PoolWorkers: cfg.PoolWorkers,
		StartIter:   cfg.StartIter,
		Metrics:     mtr,
		// A barrier can move a parameter onto SFB after construction; the
		// router re-attaches the extractor through this source.
		SFSource: func(index int) func() *tensor.SufficientFactor { return sfFor[index] },
		// The barrier leader re-runs Algorithm 1 and broadcasts the routes
		// with the view, so replicas stay byte-identical through the
		// transition: for a new member count, under the new shape; for
		// the same count (a planned barrier), under the bandwidth this
		// worker measured since the previous barrier.
		PlanShape: func(workers int) ([]comm.ParamPlan, error) {
			if workers != w.n {
				return planner.ReplanShape(poseidon.ClusterShape{Workers: workers, Servers: workers, Batch: cfg.Batch})
			}
			end, bytes := winEnd, winEndBytes
			if end.IsZero() { // an unplanned barrier: the window ends now
				end, bytes = time.Now(), w.router.EgressBytes()
			}
			elapsed := end.Sub(winStart).Seconds()
			if cfg.Replan.Every == 0 || elapsed <= 0 {
				return nil, nil
			}
			plans := planner.Replan(poseidon.BandwidthObservation{
				BytesPerSec: float64(bytes-winBytes) / elapsed,
			})
			mtr.SetBandwidthEstimate(planner.BandwidthEstimate())
			return plans, nil
		},
	}
	if cfg.Elastic {
		rcfg.Elastic = true
		rcfg.View = view
		rcfg.Joining = cfg.Joining
		rcfg.ViewTimeout = cfg.ViewTimeout
		// Contraction and expansion rescale each worker's contribution so
		// the cluster-wide update stays −LR · mean over all live samples.
		rcfg.ScaleFor = func(workers int) float32 { return -cfg.LR / float32(workers) }
	}
	router, err := comm.NewRouter(rcfg)
	if err != nil {
		return nil, err
	}
	w.router = router
	router.Start()
	defer router.Stop()

	// Cancellation: poison the router when Stop fires, so the compute
	// loop surfaces ErrCanceled at its next WaitFor/Err instead of
	// blocking on peers that may have stopped too.
	if cfg.Stop != nil {
		watcherDone := make(chan struct{})
		defer close(watcherDone)
		go func() {
			select {
			case <-cfg.Stop:
				router.Abort(ErrCanceled)
			case <-watcherDone:
			}
		}()
	}

	// Planned barriers fall on the multiples of Replan.Every past the
	// iteration the run (or its last view change) started at — a rule
	// every member evaluates identically, restart iterations included.
	barrierAfter := func(iter int) int {
		if cfg.Replan.Every <= 0 {
			return -1
		}
		return (iter/cfg.Replan.Every + 1) * cfg.Replan.Every
	}
	barrier := barrierAfter(cfg.StartIter)
	winStart = time.Now()
	winBytes = router.EgressBytes()

	res := &Result{Mode: cfg.Mode}
	leaveSent := false
	for iter := cfg.StartIter; ; {
		if iter == barrier && iter < cfg.Iters {
			winEnd, winEndBytes = time.Now(), router.EgressBytes()
			if err := router.PlanView(iter); err != nil {
				return nil, err
			}
		}
		if cfg.LeaveAt > 0 && iter >= cfg.LeaveAt && !leaveSent {
			leaveSent = true
			if err := router.Leave(); err != nil {
				return nil, err
			}
		}
		// Gate on the consistency model (BSP when Staleness is 0); once
		// every iteration is launched, wait instead for the final round
		// to be fully synchronized everywhere (drain).
		if iter < cfg.Iters {
			router.WaitFor(iter)
		} else {
			router.WaitFor(cfg.Iters + cfg.Staleness)
		}
		// A fixed-size router only ever has the planned barrier opened
		// just above pending, so the check stays off its per-iteration
		// path.
		if (cfg.Elastic || iter == barrier) && router.ViewPending() {
			vc, err := router.AwaitView(iter)
			if err != nil {
				return nil, err
			}
			if vc.Left {
				res.Left = true
				break
			}
			if err := w.applyView(vc, planner, params); err != nil {
				return nil, err
			}
			iter = vc.RestartIter
			barrier = barrierAfter(iter)
			winStart, winEnd = time.Now(), time.Time{}
			winBytes = router.EgressBytes()
			continue
		}
		if err := router.Err(); err != nil {
			return nil, err
		}
		if iter >= cfg.Iters {
			break
		}
		// Adopt the freshest synchronized replica, then compute.
		router.Adopt(params)
		if w.snapshots() && iter > cfg.StartIter && iter%cfg.SnapshotEvery == 0 {
			w.snapshotBarrier(iter, params)
		}

		x, labels := w.local.Batch(iter*cfg.Batch, cfg.Batch)
		w.net.ZeroGrads()
		loss, _ := w.net.LossAndGrad(x, labels)

		// Launch every syncer (the paper's Algorithm 2 sync() calls).
		if err := router.LaunchAll(iter, grads); err != nil {
			return nil, err
		}

		p := Point{Iter: iter, TrainLoss: loss, TestErr: -1}
		if cfg.EvalEvery > 0 && w.id == 0 && (iter+1)%cfg.EvalEvery == 0 && cfg.TestSet != nil {
			_, errRate := w.net.Eval(cfg.TestSet.X, cfg.TestSet.Labels)
			p.TestErr = errRate
		}
		res.Curve = append(res.Curve, p)
		if cfg.Progress != nil {
			cfg.Progress(p)
		}
		iter++
	}
	// Adopt the final synchronized replica — for a leaver, the replica
	// as of its departure barrier.
	router.Adopt(params)
	if !res.Left {
		if err := router.Err(); err != nil {
			return nil, err
		}
		if w.snapshots() {
			// The drain capture: the fully synchronized final replica.
			w.snapshotBarrier(cfg.Iters, params)
		}
	}
	res.Final = w.net
	return res, nil
}

// applyView rebinds the worker to a committed view: dense index, member
// count, data shard, and — when the count changed — the planner's
// cluster shape. The local reshape keeps this member's planner
// consistent with the one the barrier leader consulted, so any member
// can lead the next barrier; the routes themselves were already adopted
// from the leader's broadcast inside the router.
func (w *worker) applyView(vc comm.ViewChange, planner *poseidon.Planner, params []*tensor.Matrix) error {
	resized := vc.View.Size() != w.n
	w.id = vc.View.Index(w.rank)
	w.n = vc.View.Size()
	w.epoch = vc.View.Epoch
	if w.id < 0 {
		return fmt.Errorf("train: rank %d missing from committed view %v", w.rank, vc.View.Members)
	}
	w.local = w.cfg.TrainSet.Shard(w.id, w.n)
	if resized {
		if _, err := planner.ReplanShape(poseidon.ClusterShape{Workers: w.n, Servers: w.n, Batch: w.cfg.Batch}); err != nil {
			return err
		}
	}
	if w.cfg.OnViewChange != nil {
		// Snapshot the adopted replica for the hook — the state a parity
		// reference run continues from (StartIter + InitialParams).
		w.router.Adopt(params)
		ev := ViewEvent{View: vc.View.Clone(), RestartIter: vc.RestartIter}
		ev.Params = make([][]float32, len(params))
		for i, p := range params {
			ev.Params[i] = append([]float32(nil), p.Data...)
		}
		w.cfg.OnViewChange(ev)
	}
	return nil
}

// policyFor maps a SyncMode to its planner policy — the modes differ
// only in what Algorithm 1 may choose, not in bespoke routing code.
func policyFor(mode SyncMode) poseidon.Policy {
	switch mode {
	case PSOnly:
		return poseidon.PolicyPS
	case OneBit:
		return poseidon.PolicyOneBit
	default:
		return poseidon.PolicyHybrid
	}
}

// plannerFor builds the routing planner for a run with the given
// worker count (PS shards are colocated with workers, as in the
// paper's deployments). A configured bandwidth makes it
// bandwidth-aware — with the default per-frame overhead unless the
// Replan spec pins one — so the initial plan already reflects the link
// the caller claimed, and Replan corrects it from measurement.
func plannerFor(cfg Config, workers int) *poseidon.Planner {
	p := poseidon.NewPlanner(policyFor(cfg.Mode),
		poseidon.ClusterShape{Workers: workers, Servers: workers, Batch: cfg.Batch})
	p.BytesPerSec = cfg.Bandwidth
	p.FrameOverhead = cfg.Replan.FrameOverhead
	if p.FrameOverhead == 0 && (cfg.Bandwidth > 0 || cfg.Replan.Every > 0) {
		// Replanning without an initial -bw still needs the per-frame
		// term: the first measured observation makes the planner
		// bandwidth-aware, and a zero overhead would leave every Replan
		// a no-op.
		p.FrameOverhead = poseidon.DefaultFrameOverheadSec
	}
	p.Alpha = cfg.Replan.Alpha
	p.Hysteresis = cfg.Replan.Hysteresis
	for idx, s := range cfg.RouteOverrides {
		p.Override(idx, s)
	}
	return p
}

// PlannerFor returns the cost-model planner the trainer will consult
// for cfg — exported so tools (the worker's -autoplan dump) and tests
// can inspect routing decisions without running the cluster.
func PlannerFor(cfg Config) *poseidon.Planner { return plannerFor(cfg, cfg.Workers) }

// ParamSpecs derives the planner's tensor specs from a live network:
// one spec per trainable tensor in Params() order. FC weight matrices
// are the SF-capable tensors, located through the layer structure
// rather than by shape guessing.
func ParamSpecs(net *autodiff.Network) []poseidon.TensorSpec {
	var specs []poseidon.TensorSpec
	idx := 0
	for _, layer := range net.Layers {
		fc, isFC := layer.(*autodiff.FC)
		for pi, p := range layer.Params() {
			suffix := fmt.Sprintf(".p%d", pi)
			switch pi {
			case 0:
				suffix = ".W"
			case 1:
				suffix = ".b"
			}
			specs = append(specs, poseidon.TensorSpec{
				Index:     idx,
				Name:      layer.Name() + suffix,
				Rows:      p.Rows,
				Cols:      p.Cols,
				SFCapable: isFC && pi == 0 && fc.W == p,
			})
			idx++
		}
	}
	return specs
}

// Decisions previews the per-tensor routing for cfg with the cost
// numbers behind each choice (the worker's -autoplan report): it
// builds a throwaway replica from cfg.BuildNet and plans it. The
// preview validates like the run — an infeasible or unknown-parameter
// override errors here instead of mid-training.
func Decisions(cfg Config) ([]poseidon.Decision, error) {
	net := cfg.BuildNet(rand.New(rand.NewSource(cfg.Seed)))
	planner := PlannerFor(cfg)
	specs := ParamSpecs(net)
	if _, err := planner.ParamPlans(specs); err != nil {
		return nil, err
	}
	return planner.Plan(specs), nil
}

// buildPlans routes every parameter through poseidon.Planner — the
// single owner of the Algorithm 1 decision rule shared with the
// performance plane — then attaches the sufficient-factor extractors
// the SFB route needs (closures over live FC layer state the planner
// never sees).
func buildPlans(cfg Config, net *autodiff.Network, workers int) ([]comm.ParamPlan, error) {
	plans, _, err := plansFor(plannerFor(cfg, workers), net)
	return plans, err
}

// sfExtractors locates every tensor with a sufficient-factor
// decomposition (FC weight matrices) and returns parameter index →
// borrow extractor. Borrowed factors reference the layer's live
// backward buffers — the syncer encodes and copies them before the
// compute loop can overwrite, so the SFB route ships gradients without
// a per-iteration clone.
func sfExtractors(net *autodiff.Network) map[int]func() *tensor.SufficientFactor {
	out := make(map[int]func() *tensor.SufficientFactor)
	idx := 0
	for _, layer := range net.Layers {
		fc, isFC := layer.(*autodiff.FC)
		for pi, p := range layer.Params() {
			if isFC && pi == 0 && fc.W == p {
				fc := fc
				out[idx] = func() *tensor.SufficientFactor { return fc.BorrowSufficientFactor() }
			}
			idx++
		}
	}
	return out
}

// plansFor plans net's parameters on the given (retained) planner and
// attaches SF extractors; it also returns the extractor map so the
// router can re-attach extractors when a replan barrier moves a
// parameter onto SFB later.
func plansFor(planner *poseidon.Planner, net *autodiff.Network) ([]comm.ParamPlan, map[int]func() *tensor.SufficientFactor, error) {
	plans, err := planner.ParamPlans(ParamSpecs(net))
	if err != nil {
		return nil, nil, err
	}
	sfFor := sfExtractors(net)
	for i := range plans {
		if plans[i].Route == comm.RouteSFB {
			ext := sfFor[i]
			if ext == nil {
				return nil, nil, fmt.Errorf("train: param %d (%s) routed to SFB but has no sufficient factor", i, plans[i].Name)
			}
			plans[i].SF = ext
		}
	}
	return plans, sfFor, nil
}
