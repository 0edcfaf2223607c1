package poseidon

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/metrics"
	"repro/internal/snapshot"
	"repro/internal/train"
	"repro/internal/transport"
)

// Builder assembles a Session. Construct with NewSession, chain the
// configuration calls, finish with Build — which validates everything
// (model, data, plan feasibility, route overrides) *before* touching
// any transport, so a typo'd override fails in milliseconds instead of
// after a 30-second mesh formation.
type Builder struct {
	cfg       train.Config
	tcp       *tcpSpec
	shm       *shmSpec
	mesh      transport.Mesh
	collect   bool
	snapEvery int
	onSnap    func(*Snapshot)
	onView    func(MembershipEvent)
	err       error
}

type tcpSpec struct {
	id    int
	peers []string
	opts  transport.TCPOptions
}

type shmSpec struct {
	id      int
	workers int
	opts    transport.SHMOptions
}

// NewSession starts a session builder with the trainer's defaults:
// in-process transport, hybrid policy, BSP consistency.
func NewSession() *Builder {
	return &Builder{cfg: train.Config{Workers: 1, Mode: train.Hybrid}}
}

func (b *Builder) fail(err error) *Builder {
	if b.err == nil {
		b.err = err
	}
	return b
}

// InProcess runs the whole cluster in this process over a channel
// mesh, one goroutine per worker.
func (b *Builder) InProcess(workers int) *Builder {
	if workers < 1 {
		return b.fail(fmt.Errorf("poseidon: need at least 1 worker, got %d", workers))
	}
	b.cfg.Workers = workers
	b.tcp, b.shm, b.mesh = nil, nil, nil
	return b
}

// TCP makes this session one node of a multi-process cluster: Build
// dials the full mesh (after validation) and Run drives this worker
// only. peers lists every worker's host:port in id order.
func (b *Builder) TCP(id int, peers []string, opts transport.TCPOptions) *Builder {
	if len(peers) < 1 || id < 0 || id >= len(peers) {
		return b.fail(fmt.Errorf("poseidon: TCP id %d out of range for %d peers", id, len(peers)))
	}
	b.tcp = &tcpSpec{id: id, peers: peers, opts: opts}
	b.cfg.Workers = len(peers)
	b.shm, b.mesh = nil, nil
	return b
}

// SHM makes this session one node of a multi-process cluster of
// co-located workers connected over shared-memory rings (Linux only;
// see transport.SHMMesh). opts.Dir is the rendezvous directory every
// node of the run must share.
func (b *Builder) SHM(id, workers int, opts transport.SHMOptions) *Builder {
	if workers < 1 || id < 0 || id >= workers {
		return b.fail(fmt.Errorf("poseidon: SHM id %d out of range for %d workers", id, workers))
	}
	b.shm = &shmSpec{id: id, workers: workers, opts: opts}
	b.cfg.Workers = workers
	b.tcp, b.mesh = nil, nil
	return b
}

// Mesh injects a custom transport endpoint (bandwidth-modeled wrappers,
// instrumented meshes); the session drives one worker over it and the
// cluster size comes from the mesh.
func (b *Builder) Mesh(mesh transport.Mesh) *Builder {
	if mesh == nil {
		return b.fail(fmt.Errorf("poseidon: nil mesh"))
	}
	b.mesh = mesh
	b.cfg.Workers = mesh.N()
	b.tcp, b.shm = nil, nil
	return b
}

// Iterations sets the training length.
func (b *Builder) Iterations(n int) *Builder { b.cfg.Iters = n; return b }

// Batch sets the per-worker batch size (Table 1's K).
func (b *Builder) Batch(n int) *Builder { b.cfg.Batch = n; return b }

// LearningRate sets the SGD step size.
func (b *Builder) LearningRate(lr float64) *Builder { b.cfg.LR = float32(lr); return b }

// Seed sets the shared model/data seed; every worker must use the same
// one (replicas start identical).
func (b *Builder) Seed(s int64) *Builder { b.cfg.Seed = s; return b }

// Mode constrains what Algorithm 1 may choose: Hybrid (HybComm per
// tensor), PSOnly, or the OneBit baseline.
func (b *Builder) Mode(m SyncMode) *Builder { b.cfg.Mode = m; return b }

// Staleness bounds how many iterations a fast worker may run ahead
// (stale synchronous parallel; 0 = BSP).
func (b *Builder) Staleness(s int) *Builder { b.cfg.Staleness = s; return b }

// Overlap streams pushes through the comm runtime's send pool —
// wait-free backpropagation with real bytes.
func (b *Builder) Overlap(on bool) *Builder { b.cfg.Overlap = on; return b }

// ChunkElems caps the float32 count per KV chunk on the PS route
// (0 = whole tensors).
func (b *Builder) ChunkElems(n int) *Builder { b.cfg.ChunkElems = n; return b }

// PoolWorkers sizes the send pool when Overlap is on (0 = default).
func (b *Builder) PoolWorkers(n int) *Builder { b.cfg.PoolWorkers = n; return b }

// Model sets the network builder, called once per worker with an
// identically seeded RNG.
func (b *Builder) Model(build ModelBuilder) *Builder { b.cfg.BuildNet = build; return b }

// Data sets the training set (sharded across workers) and optional
// test set (evaluated by worker 0 when EvalEvery is set).
func (b *Builder) Data(trainSet, testSet *data.Dataset) *Builder {
	b.cfg.TrainSet, b.cfg.TestSet = trainSet, testSet
	return b
}

// EvalEvery makes worker 0 evaluate on the test set every n iterations.
func (b *Builder) EvalEvery(n int) *Builder { b.cfg.EvalEvery = n; return b }

// RouteOverride pins one parameter index to a scheme, trumping the
// policy. Build rejects overrides naming unknown parameters or schemes
// the tensor cannot ride.
func (b *Builder) RouteOverride(index int, s Scheme) *Builder {
	if b.cfg.RouteOverrides == nil {
		b.cfg.RouteOverrides = make(map[int]Scheme)
	}
	b.cfg.RouteOverrides[index] = s
	return b
}

// RouteOverrides merges a full override map (the worker's parsed
// -route flag).
func (b *Builder) RouteOverrides(m map[int]Scheme) *Builder {
	for idx, s := range m {
		b.RouteOverride(idx, s)
	}
	return b
}

// Bandwidth seeds the planner's link-speed estimate (bytes/second),
// making Algorithm 1 bandwidth-aware. Replanning corrects it from
// measurement.
func (b *Builder) Bandwidth(bps float64) *Builder { b.cfg.Bandwidth = bps; return b }

// Replan enables measured-bandwidth re-planning at the given epoch
// spec; see ReplanSpec.
func (b *Builder) Replan(spec ReplanSpec) *Builder { b.cfg.Replan = spec; return b }

// Elastic enables membership epochs: a peer failure or voluntary
// departure no longer aborts the run — the members drain to a
// membership barrier, agree on a successor view, re-shard state, and
// continue. Combines with Replan: a replan is a planned view change that
// keeps its members, so both run through the same barrier.
func (b *Builder) Elastic(on bool) *Builder { b.cfg.Elastic = on; return b }

// Members names the ranks actually serving at epoch 0 of an elastic
// session — the transport is sized for cluster capacity, the view for
// current membership. Unset, every transport rank is a member.
func (b *Builder) Members(ranks []int) *Builder {
	if len(ranks) == 0 {
		return b.fail(fmt.Errorf("poseidon: empty member list"))
	}
	members := append([]int(nil), ranks...)
	sort.Ints(members)
	for i := 1; i < len(members); i++ {
		if members[i] == members[i-1] {
			return b.fail(fmt.Errorf("poseidon: duplicate member rank %d", members[i]))
		}
	}
	b.cfg.View = cluster.View{Members: members}
	return b
}

// Joining marks this node a late joiner: it is not in the initial view
// and adopts everything — view, routes, parameters, data shard — from
// its first membership barrier.
func (b *Builder) Joining() *Builder { b.cfg.Joining = true; return b }

// LeaveAt schedules a graceful departure: at that iteration this worker
// announces it is leaving, participates in the membership barrier, and
// returns with Result.Left set once the successor view excludes it.
func (b *Builder) LeaveAt(iter int) *Builder { b.cfg.LeaveAt = iter; return b }

// ResumeFrom continues a run from a snapshot: training starts at iter
// with the given parameters (row-major float32, Params() order) instead
// of iteration 0 with the seeded model.
func (b *Builder) ResumeFrom(iter int, params [][]float32) *Builder {
	b.cfg.StartIter = iter
	b.cfg.InitialParams = params
	return b
}

// OnMembershipChange streams every committed barrier — membership
// transitions and the planned barriers of measured-bandwidth
// replanning, which keep the members but advance the epoch — with the
// successor view, restart iteration, and a deep copy of the adopted
// replica, as the run produces it (called from the worker's compute
// goroutine; keep it fast).
func (b *Builder) OnMembershipChange(fn func(MembershipEvent)) *Builder {
	b.onView = fn
	return b
}

// MembershipTimeout bounds each membership barrier (0 = default).
func (b *Builder) MembershipTimeout(d time.Duration) *Builder {
	b.cfg.ViewTimeout = d
	return b
}

// SnapshotEvery captures the synchronized replica every n iterations
// at the round barrier (plus once more when the run drains) into the
// session's snapshot store, feeding Session.Latest and
// Session.Snapshots. Each capture is an immutable Snapshot versioned by
// iteration and membership epoch; 0 disables capture.
func (b *Builder) SnapshotEvery(n int) *Builder {
	if n < 0 {
		return b.fail(fmt.Errorf("poseidon: negative snapshot interval %d", n))
	}
	b.snapEvery = n
	return b
}

// OnSnapshot streams every barrier capture as the run publishes it —
// the push-style sibling of the Snapshots channel, with no conflation:
// the serving plane hooks this to trigger fan-out the instant a
// capture lands rather than on its next poll. The callback runs on the
// worker's compute goroutine at the round barrier; keep it fast (hand
// the snapshot to another goroutine for anything slow). Requires
// SnapshotEvery.
func (b *Builder) OnSnapshot(fn func(*Snapshot)) *Builder {
	b.onSnap = fn
	return b
}

// CollectMetrics attaches a runtime metrics registry: per-parameter
// wire traffic, sync stalls, KV rounds, replan events, membership
// epoch. TCP sessions additionally meter frame-level wire totals.
func (b *Builder) CollectMetrics() *Builder { b.collect = true; return b }

// OnProgress streams every recorded point as the run produces it
// (called from the worker's compute goroutine; keep it fast).
func (b *Builder) OnProgress(fn func(Point)) *Builder { b.cfg.Progress = fn; return b }

// Build validates the configuration — including full plan feasibility,
// so route overrides naming unknown parameters or impossible schemes
// fail here, before any socket is dialed — then establishes the
// transport and returns the runnable Session.
func (b *Builder) Build() (*Session, error) {
	if b.err != nil {
		return nil, b.err
	}
	cfg := b.cfg
	if cfg.BuildNet == nil {
		return nil, fmt.Errorf("poseidon: no model (Builder.Model)")
	}
	if cfg.Iters <= 0 {
		return nil, fmt.Errorf("poseidon: no iterations (Builder.Iterations)")
	}
	if cfg.Batch <= 0 {
		return nil, fmt.Errorf("poseidon: no batch size (Builder.Batch)")
	}
	if cfg.TrainSet == nil {
		return nil, fmt.Errorf("poseidon: no training data (Builder.Data)")
	}
	if !cfg.Elastic && (cfg.Joining || cfg.LeaveAt > 0 || cfg.View.Size() > 0) {
		return nil, fmt.Errorf("poseidon: Members/Joining/LeaveAt need Builder.Elastic")
	}
	// Plan feasibility up front: Decisions builds a throwaway replica
	// and validates exactly like the run will.
	if _, err := train.Decisions(cfg); err != nil {
		return nil, err
	}

	if b.onSnap != nil && b.snapEvery <= 0 {
		return nil, fmt.Errorf("poseidon: OnSnapshot needs SnapshotEvery")
	}

	s := &Session{cfg: cfg}
	if b.snapEvery > 0 {
		// The store captures off the training barrier; Latest/Snapshots
		// read from it without touching the run.
		st := snapshot.NewStore(cfg.BuildNet, cfg.Seed)
		s.store = st
		s.cfg.SnapshotEvery = b.snapEvery
		onSnap := b.onSnap
		s.cfg.OnSnapshot = func(ev train.SnapshotEvent) {
			m := st.Capture(ev.Iter, ev.Epoch, ev.Params)
			if onSnap != nil {
				onSnap(m)
			}
		}
	}
	if cfg.View.Size() > 0 {
		s.view = cfg.View.Clone()
	} else {
		s.view = cluster.Initial(cfg.Workers)
	}
	// The session tracks the committed view so View() stays truthful
	// across barriers, planned ones included; the user's hook runs after
	// the update.
	userFn := b.onView
	s.cfg.OnViewChange = func(ev MembershipEvent) {
		s.viewMu.Lock()
		s.view = ev.View.Clone()
		s.viewMu.Unlock()
		if userFn != nil {
			userFn(ev)
		}
	}
	if b.collect {
		s.metrics = metrics.NewComm()
		s.cfg.Metrics = s.metrics
	}
	switch {
	case b.mesh != nil:
		s.mesh = b.mesh
		s.cfg.SnapshotRank = b.mesh.Self()
	case b.tcp != nil:
		s.cfg.SnapshotRank = b.tcp.id
		opts := b.tcp.opts
		if s.metrics != nil && opts.OnCopy == nil {
			opts.OnCopy = s.metrics.Wire().CountCopied
		}
		if cfg.Elastic {
			opts.Elastic = true
			if !cfg.Joining && cfg.View.Size() > 0 {
				opts.Members = append([]int(nil), cfg.View.Members...)
			}
		}
		var tcp *transport.TCPMesh
		var err error
		if cfg.Joining {
			if cfg.View.Size() == 0 {
				return nil, fmt.Errorf("poseidon: a TCP joiner needs the live membership (Builder.Members)")
			}
			tcp, err = transport.JoinTCPMesh(b.tcp.id, b.tcp.peers, cfg.View.Members, opts)
		} else {
			tcp, err = transport.NewTCPMeshOpts(b.tcp.id, b.tcp.peers, opts)
		}
		if err != nil {
			return nil, fmt.Errorf("poseidon: mesh: %w", err)
		}
		s.mesh = tcp
		s.ownsMesh = true
		if s.metrics != nil {
			s.mesh = transport.NewMeteredMesh(tcp, s.metrics.Wire())
		}
	case b.shm != nil:
		s.cfg.SnapshotRank = b.shm.id
		opts := b.shm.opts
		if s.metrics != nil && opts.OnCopy == nil {
			opts.OnCopy = s.metrics.Wire().CountCopied
		}
		if cfg.Elastic {
			if cfg.Joining || cfg.View.Size() > 0 {
				// Ring files rendezvous at setup; shm clusters can only
				// shrink.
				return nil, fmt.Errorf("poseidon: the shm transport cannot form a partial mesh or admit late joiners")
			}
			opts.Elastic = true
		}
		shm, err := transport.NewSHMMesh(b.shm.id, b.shm.workers, opts)
		if err != nil {
			return nil, fmt.Errorf("poseidon: mesh: %w", err)
		}
		s.mesh = shm
		s.ownsMesh = true
		if s.metrics != nil {
			s.mesh = transport.NewMeteredMesh(shm, s.metrics.Wire())
		}
	}
	return s, nil
}

// Session is a configured, transport-connected training run. In-process
// sessions own the whole cluster; TCP sessions drive one worker of a
// multi-process one.
type Session struct {
	cfg      train.Config
	mesh     transport.Mesh // nil for in-process sessions
	ownsMesh bool
	metrics  *metrics.Comm
	store    *snapshot.Store // nil unless SnapshotEvery was set

	viewMu sync.Mutex
	view   cluster.View

	closeOnce sync.Once
	closeErr  error
}

// View returns the current membership view: the initial one before the
// run starts, then each committed successor as barriers resolve. A
// planned replan barrier keeps the members and advances the epoch, so
// a fixed-size session reports the full mesh, at epoch 0 unless it
// replans.
func (s *Session) View() View {
	if s == nil {
		return View{}
	}
	s.viewMu.Lock()
	defer s.viewMu.Unlock()
	return s.view.Clone()
}

// Plan previews the per-tensor Algorithm 1 decisions this session will
// execute (the -autoplan dump), with the cost numbers behind each
// choice.
func (s *Session) Plan() ([]Decision, error) { return train.Decisions(s.cfg) }

// Workers returns the cluster size.
func (s *Session) Workers() int { return s.cfg.Workers }

// Run executes the session and returns this node's result (worker 0's
// for in-process sessions). On error in a TCP session, skip Close so
// surviving peers see the link die rather than a clean goodbye they
// could mistake for normal shutdown.
func (s *Session) Run() (*Result, error) { return s.RunContext(context.Background()) }

// RunContext executes the session like Run but stops early — cleanly,
// through the round barrier's abort path — when ctx is canceled, so a
// server can keep training in a goroutine and still shut it down. A
// canceled run returns ctx.Err(). When the run ends for any reason the
// snapshot store stops publishing; Latest keeps serving the final
// capture.
func (s *Session) RunContext(ctx context.Context) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg := s.cfg
	cfg.Stop = ctx.Done()
	res, err := s.runOne(cfg)
	if err != nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	return res, err
}

func (s *Session) runOne(cfg train.Config) (*Result, error) {
	if s.store != nil {
		defer s.store.Close()
	}
	if s.mesh == nil {
		results, err := train.RunOverAll(cfg, s.inProcessMeshes())
		if err != nil {
			return nil, err
		}
		return results[0], nil
	}
	return train.RunWorker(cfg, s.mesh)
}

// inProcessMeshes builds the channel cluster an in-process session
// trains over — the elastic variant when membership epochs are on, so
// Leave and view changes work without real sockets.
func (s *Session) inProcessMeshes() []transport.Mesh {
	endpoints := make([]transport.Mesh, s.cfg.Workers)
	if s.cfg.Elastic {
		cl := transport.NewElasticChanCluster(s.cfg.Workers)
		for i := range endpoints {
			endpoints[i] = cl.Endpoint(i)
		}
		return endpoints
	}
	for i, m := range transport.NewChanCluster(s.cfg.Workers) {
		endpoints[i] = m
	}
	return endpoints
}

// RunAll executes an in-process session and returns every worker's
// result (each worker records loss on its own shard) — what parity
// tests and reference runs need. TCP sessions hold only their own
// worker and reject it.
func (s *Session) RunAll() ([]*Result, error) {
	if s.mesh != nil {
		return nil, fmt.Errorf("poseidon: RunAll needs an in-process session")
	}
	if s.store != nil {
		defer s.store.Close()
	}
	return train.RunOverAll(s.cfg, s.inProcessMeshes())
}

// Latest returns the most recent snapshot the run has captured, or nil
// before the first barrier capture (or when SnapshotEvery was never
// set). Safe to call concurrently with the run and after it ends; no
// retain discipline is needed to predict from the result.
func (s *Session) Latest() *Snapshot {
	if s == nil || s.store == nil {
		return nil
	}
	return s.store.Latest()
}

// closedSnapshots serves Snapshots() on sessions that never capture:
// ranging over it ends immediately instead of blocking forever.
var closedSnapshots = func() chan *Snapshot {
	ch := make(chan *Snapshot)
	close(ch)
	return ch
}()

// Snapshots returns the capture subscription: every barrier capture in
// order, conflating to the newest when the consumer lags, closed when
// the run ends. Without SnapshotEvery the channel is already closed.
func (s *Session) Snapshots() <-chan *Snapshot {
	if s == nil || s.store == nil {
		return closedSnapshots
	}
	return s.store.Snapshots()
}

// Metrics returns the session's live metrics registry (nil unless
// CollectMetrics was set) — SnapshotIter for progress lines, Snapshot
// for the final report.
func (s *Session) Metrics() *metrics.Comm {
	if s == nil {
		return nil
	}
	return s.metrics
}

// MetricsSnapshot freezes the runtime counters; ok is false when the
// session collects none.
func (s *Session) MetricsSnapshot() (metrics.CommSnapshot, bool) {
	if s == nil || s.metrics == nil {
		return metrics.CommSnapshot{}, false
	}
	return s.metrics.Snapshot(), true
}

// Close releases the session's transport (the graceful TCP goodbye)
// and ends the snapshot subscription. In-process sessions hold no
// transport. Idempotent, and a safe no-op on a nil session — so
//
//	sess, err := b.Build()
//	defer sess.Close()
//
// is correct even when Build failed.
func (s *Session) Close() error {
	if s == nil {
		return nil
	}
	s.closeOnce.Do(func() {
		if s.store != nil {
			s.store.Close()
		}
		if s.mesh != nil && s.ownsMesh {
			s.closeErr = s.mesh.Close()
		}
	})
	return s.closeErr
}

// ParseRouteOverrides parses the worker's -route flag syntax:
// comma-separated index=scheme pairs with schemes named as in the
// paper (ps, sfb, 1bit) plus the collective routes (ring, treering).
// Feasibility against a concrete model is Build's job; this only
// rejects syntax.
func ParseRouteOverrides(s string) (map[int]Scheme, error) {
	if s == "" {
		return nil, nil
	}
	schemes := map[string]Scheme{
		"ps": SchemePS, "sfb": SchemeSFB, "1bit": SchemeOneBit,
		"ring": SchemeRing, "treering": SchemeTreeRing,
	}
	out := make(map[int]Scheme)
	for _, pair := range strings.Split(s, ",") {
		idxStr, schemeStr, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return nil, fmt.Errorf("route override %q is not index=scheme", pair)
		}
		idx, err := strconv.Atoi(idxStr)
		if err != nil || idx < 0 {
			return nil, fmt.Errorf("route override: bad parameter index %q", idxStr)
		}
		scheme, ok := schemes[schemeStr]
		if !ok {
			return nil, fmt.Errorf("route override: unknown scheme %q (want ps|sfb|1bit|ring|treering)", schemeStr)
		}
		out[idx] = scheme
	}
	return out, nil
}
