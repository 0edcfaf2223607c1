package comm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/consistency"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/sfb"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// Config parameterizes a Router.
type Config struct {
	Mesh transport.Mesh
	// Plans describes every synchronized parameter, in index order.
	Plans []ParamPlan
	// Params are the initial parameter values (identical on every
	// node); the router clones them into its staged replica and seeds
	// the KV shards it owns.
	Params []*tensor.Matrix
	// Scale is folded into every update before it hits the wire
	// (typically −LR/P, making reconstructions additive).
	Scale float32
	// Staleness bounds how far the compute loop may run ahead of
	// synchronization (0 = BSP).
	Staleness int
	// StartIter, when > 0, starts the consistency clock at that
	// iteration instead of 0 — the continuation point of a run resuming
	// from a snapshot (Params then carry the snapshot replica). Rounds
	// below it never existed, so WaitFor(StartIter) passes immediately.
	StartIter int

	// Overlap dispatches sends through the send pool so pushes for
	// later parameters (and later chunks) stream while earlier ones are
	// still in flight. Off, every send completes before Launch returns —
	// the serialized baseline.
	Overlap bool
	// PoolWorkers fixes the send pool's worker count (default 8).
	PoolWorkers int
	// ChunkElems caps the number of float32 values per KV chunk on the
	// PS route; 0 keeps each tensor whole.
	ChunkElems int

	// Metrics, when set, receives live communication counters: wire
	// traffic attributed per parameter and route (loopback excluded),
	// KV-round accounting, and the compute loop's per-iteration
	// sync-stall time.
	Metrics *metrics.Comm

	// SFSource returns the sufficient-factor extractor for a parameter
	// index (nil if the parameter has none) — consulted when a barrier
	// moves a parameter onto RouteSFB after construction, where the
	// initial plan carried no extractor for it. Optional; without it a
	// flip onto SFB fails.
	SFSource func(index int) func() *tensor.SufficientFactor

	// Elastic enables membership epochs: the mesh's synthetic lifecycle
	// events (MsgPeerGone/MsgPeerUp) open a membership barrier instead
	// of failing the run, syncers address peers through a dense view of
	// the live members, and Leave/Joining become available. Requires a
	// transport running in its own elastic mode. Planned barriers
	// (PlanView + AwaitView) work on fixed-size routers too.
	Elastic bool
	// View is the initial membership (must contain Mesh.Self()); the
	// zero value means cluster.Initial(Mesh.N()). Ranks are transport
	// ids; the router maps them to dense 0..P−1 worker ids internally.
	View cluster.View
	// Joining marks this router as a late joiner: it is not a member of
	// View yet, sends no halt, and waits in AwaitView to be adopted by
	// the leader's MsgView (which overwrites its parameters wholesale).
	Joining bool
	// PlanShape, when set, is consulted by the barrier leader to re-run
	// the route planner for the successor member count — the current
	// count at a planned barrier that keeps its members; returning nil
	// plans keeps the current routes. Every node applies the leader's decision
	// byte-for-byte, so only the leader's answer matters.
	PlanShape func(workers int) ([]ParamPlan, error)
	// ScaleFor recomputes the update scale for a new member count
	// (typically −LR/P). It must be identical on every node; without it
	// the router rescales the configured Scale by oldP/newP.
	ScaleFor func(workers int) float32
	// OnViewChange, when set, runs on the compute goroutine after every
	// committed view transition this node is part of.
	OnViewChange func(cluster.View)
	// ViewTimeout bounds a membership barrier (default 30s): if the
	// halts or the leader's MsgView do not arrive in time, the run fails
	// rather than hanging on a peer that will never answer.
	ViewTimeout time.Duration
}

// Router multiplexes the mesh between per-parameter syncers: outbound,
// it fans each iteration's gradients out to the planned strategies;
// inbound, it drives every syncer's protocol from a single receive
// loop. It owns the staged replica (the authoritative synchronized
// state) and the consistency clock that gates the compute loop.
type Router struct {
	mesh      transport.Mesh
	id, n     int
	scale     float32
	staleness int

	// View state. raw is the real mesh in transport-rank space (mesh
	// wraps it in a dense view when elastic); rank is this node's
	// immutable transport rank. view, id, and n are guarded by viewMu
	// for readers outside the compute/receive pair (pool workers
	// resolving queued sends); the barrier holds routeMu while writing,
	// which orders the compute and receive goroutines by itself.
	// deferred holds halts that cannot fold yet (see foldHaltLocked).
	raw      transport.Mesh
	rank     int
	elastic  bool
	joining  bool
	viewMu   sync.RWMutex
	view     cluster.View
	pendingV *pendingView
	deferred []haltFrame
	// viewFence is the restart iteration of the last committed view;
	// data frames stamped below it are dead old-epoch traffic (their
	// rounds were recomputed from the adopted replica) and are dropped
	// on receive. Guarded by routeMu. Monotonic: each barrier's restart
	// is at least the previous one, since members resume there.
	viewFence   int
	planShape   func(workers int) ([]ParamPlan, error)
	scaleFor    func(workers int) float32
	onView      func(cluster.View)
	viewTimeout time.Duration

	plans      []ParamPlan
	syncers    []Syncer
	shard      *kvstore.Shard
	clock      *consistency.StalenessClock
	pool       *sendPool
	chunkElems int
	bank       *sfb.Bank
	sfSource   func(index int) func() *tensor.SufficientFactor

	// Barrier state. routeMu serializes the receive loop's
	// syncer-dispatch against the compute goroutine's view change: while
	// a barrier is open (pendingV), inbound data frames are parked with
	// their leases and replayed — in arrival order — through the
	// successor syncers once the leader's MsgView is applied. routeCond
	// wakes the barrier waiter when a halt or the decision arrives or the
	// router fails.
	routeMu   sync.Mutex
	routeCond *sync.Cond

	// metrics and the per-parameter counter blocks are nil unless the
	// owner asked for live accounting (Config.Metrics).
	metrics *metrics.Comm
	pstats  []*metrics.ParamStats

	// staged is the replica the receive goroutine synchronizes into;
	// the compute loop copies it out at iteration boundaries via Adopt,
	// so inbound traffic never races a forward/backward pass.
	staged  []*tensor.Matrix
	stageMu sync.Mutex

	// updRing holds the scaled-update scratch for dense routes, one
	// slot per admissible in-flight iteration (staleness+1): slot
	// iter%depth is reused only once the launch that last used it has
	// fully synchronized, so dispatched encode tasks never read a
	// buffer the compute loop is refilling. SFB entries are nil (that
	// route derives its own payload).
	updRing [][]*tensor.Matrix

	errMu     sync.Mutex
	asyncEr   error
	abortSent atomic.Bool
	started   atomic.Bool
}

// fail records the first asynchronous error, poisons the clock so
// compute loops blocked in WaitFor wake up and observe it instead of
// hanging on synchronization that will never complete, and tells every
// peer to do the same — a failed worker stops pushing, so without the
// abort broadcast the healthy peers would deadlock waiting for rounds
// that can never complete.
func (r *Router) fail(err error) { r.failWith(err, true) }

// Abort poisons the router with err from outside the synchronization
// machinery: compute loops blocked in WaitFor wake and observe it, and
// peers receive the abort broadcast so the cluster stops together. It
// is the cancellation entry point (Config.Stop / Session.RunContext);
// the first error wins, so aborting an already-failed router is a
// no-op.
func (r *Router) Abort(err error) { r.fail(err) }

func (r *Router) failWith(err error, broadcast bool) {
	r.errMu.Lock()
	if r.asyncEr == nil {
		r.asyncEr = err
	}
	r.errMu.Unlock()
	r.clock.Abort()
	// A compute loop parked at a view-change barrier must
	// observe the failure instead of waiting for a frame that will never
	// arrive. The wakeup takes routeMu so it cannot slip into the
	// window between a waiter's condition check and its Wait (the error
	// above is visible before the lock is granted); it runs on its own
	// goroutine because failWith is reachable from paths that already
	// hold routeMu — an inline send failing during parked-frame replay.
	// The abort broadcast rides the same goroutine, snapshotting the
	// dense size under routeMu so it never races a view swap.
	doBroadcast := broadcast && !r.abortSent.Swap(true)
	go func() {
		r.routeMu.Lock()
		r.routeCond.Broadcast()
		n, id := r.n, r.id
		r.routeMu.Unlock()
		if !doBroadcast {
			return
		}
		// Best-effort: peers' receive loops are still draining, but a
		// dead peer must not block the rest.
		for p := 0; p < n; p++ {
			if p == id {
				continue
			}
			_ = r.mesh.Send(p, transport.Message{Type: transport.MsgControl, Layer: -1})
		}
	}()
}

// NewRouter validates the plan set, builds one syncer per parameter,
// seeds the local KV shard, and clones the staged replica.
func NewRouter(cfg Config) (*Router, error) {
	if cfg.Mesh == nil {
		return nil, fmt.Errorf("comm: nil mesh")
	}
	if len(cfg.Plans) != len(cfg.Params) {
		return nil, fmt.Errorf("comm: %d plans for %d params", len(cfg.Plans), len(cfg.Params))
	}
	if cfg.Joining && !cfg.Elastic {
		return nil, fmt.Errorf("comm: Joining requires Elastic")
	}
	view := cfg.View
	if view.Size() == 0 {
		view = cluster.Initial(cfg.Mesh.N())
	}
	rank := cfg.Mesh.Self()
	if !view.Contains(rank) && !cfg.Joining {
		return nil, fmt.Errorf("comm: self rank %d not in %v", rank, view)
	}
	timeout := cfg.ViewTimeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	r := &Router{
		mesh:        cfg.Mesh,
		id:          view.Index(rank),
		n:           view.Size(),
		rank:        rank,
		view:        view,
		elastic:     cfg.Elastic,
		joining:     cfg.Joining,
		planShape:   cfg.PlanShape,
		scaleFor:    cfg.ScaleFor,
		onView:      cfg.OnViewChange,
		viewTimeout: timeout,
		scale:       cfg.Scale,
		staleness:   cfg.Staleness,
		plans:       cfg.Plans,
		shard:       kvstore.NewShard(view.Size()),
		clock:       consistency.NewStalenessClock(len(cfg.Plans), cfg.Staleness),
		chunkElems:  cfg.ChunkElems,
		bank:        sfb.NewBank(),
		sfSource:    cfg.SFSource,
		metrics:     cfg.Metrics,
	}
	if r.joining {
		// A joiner parks every data frame from the moment the receive
		// loop starts; the barrier resolves when the leader's MsgView
		// adopts it (applyViewLocked rebuilds everything below anyway).
		r.pendingV = newPendingView()
	}
	r.routeCond = sync.NewCond(&r.routeMu)
	if cfg.StartIter < 0 {
		return nil, fmt.Errorf("comm: negative start iteration %d", cfg.StartIter)
	}
	if cfg.StartIter > 0 {
		r.clock.Reset(cfg.StartIter)
		r.viewFence = cfg.StartIter
	}
	if r.metrics != nil {
		r.shard.SetMetrics(r.metrics.KV())
	}
	depth := cfg.Staleness + 1
	if depth < 1 {
		depth = 1
	}
	r.updRing = make([][]*tensor.Matrix, depth)
	for d := range r.updRing {
		r.updRing[d] = make([]*tensor.Matrix, len(cfg.Plans))
	}
	for i, plan := range cfg.Plans {
		if plan.Index != i {
			return nil, fmt.Errorf("comm: plan %d has index %d", i, plan.Index)
		}
		if got, want := len(cfg.Params[i].Data), plan.Rows*plan.Cols; got != want {
			return nil, fmt.Errorf("comm: param %d has %d values, plan says %d", i, got, want)
		}
		s, err := r.buildSyncer(plan, cfg.Params[i])
		if err != nil {
			return nil, err
		}
		r.syncers = append(r.syncers, s)
		r.staged = append(r.staged, cfg.Params[i].Clone())
		r.initRingSlot(i, plan)
		if r.metrics != nil {
			r.pstats = append(r.pstats,
				r.metrics.RegisterParam(i, plan.Name, plan.Route.String(), plan.Rows*plan.Cols, plan.PSEquivBytes))
		}
	}
	if r.metrics != nil {
		// Every syncer send and the receive loop go through r.mesh, so
		// one observing wrapper (transport's, which owns the loopback
		// exclusion) attributes all wire traffic to the parameter named
		// by each frame's Layer field; control frames (Layer −1) carry
		// no parameter and are skipped.
		r.mesh = transport.NewObservedMesh(r.mesh,
			func(msg transport.Message, wireBytes int) {
				if i := int(msg.Layer); i >= 0 && i < len(r.pstats) {
					r.pstats[i].CountSent(wireBytes)
				}
			},
			func(msg transport.Message, wireBytes int) {
				if i := int(msg.Layer); i >= 0 && i < len(r.pstats) {
					r.pstats[i].CountRecv(wireBytes)
				}
			})
	}
	// The raw mesh speaks transport ranks; in elastic mode the syncers
	// instead address the dense 0..P−1 ids of the live view through a
	// translating wrapper, so a shrunken or grown membership never
	// changes syncer logic — only the table underneath it.
	r.raw = r.mesh
	if r.elastic {
		r.mesh = &viewMesh{r: r}
	}
	if cfg.Overlap {
		// Created last, after every validation error return, so a
		// rejected config never leaks the pool's worker goroutines. It
		// sends through whatever mesh the router settled on (metrics
		// may have wrapped it above).
		workers := cfg.PoolWorkers
		if workers <= 0 {
			workers = 8
		}
		r.pool = newSendPool(workers, r.fail)
		r.pool.send = r.mesh.Send
	}
	return r, nil
}

// buildSyncer constructs the syncer executing plan, seeding any
// server-side state from initial — the construction path shared by
// NewRouter (initial parameters) and view changes (the staged replica,
// which at a barrier is the authoritative synchronized value on every
// node).
func (r *Router) buildSyncer(plan ParamPlan, initial *tensor.Matrix) (Syncer, error) {
	switch plan.Route {
	case RoutePS:
		s := newPSSyncer(r, plan)
		s.initShard(initial)
		return s, nil
	case RouteSFB:
		return newSFBSyncer(r, plan, r.bank)
	case RouteOneBit:
		return newOneBitSyncer(r, plan, initial), nil
	case RouteRing:
		// No server-side state to seed: the collective reduces into the
		// staged replica directly, which already holds initial.
		return newRingSyncer(r, plan), nil
	case RouteTreeRing:
		return newTreeRingSyncer(r, plan), nil
	default:
		return nil, fmt.Errorf("comm: param %d: unknown route %v", plan.Index, plan.Route)
	}
}

// initRingSlot (re)provisions the update ring's scratch for parameter i
// according to its route: dense PS updates need one buffer per
// admissible in-flight iteration (encode tasks read them
// asynchronously), the ring collectives fold chain hops against the
// update for the whole round (so they too need one buffer per in-flight
// iteration), the 1-bit quantizer consumes its update synchronously
// inside Launch so one shared buffer serves every slot, and SFB derives
// its own payload (no buffer).
func (r *Router) initRingSlot(i int, plan ParamPlan) {
	switch plan.Route {
	case RoutePS, RouteRing, RouteTreeRing:
		for d := range r.updRing {
			r.updRing[d][i] = tensor.NewMatrix(plan.Rows, plan.Cols)
		}
	case RouteOneBit:
		m := tensor.NewMatrix(plan.Rows, plan.Cols)
		for d := range r.updRing {
			r.updRing[d][i] = m
		}
	default:
		for d := range r.updRing {
			r.updRing[d][i] = nil
		}
	}
}

// dispatch runs fn through the send pool when overlap is on, inline
// otherwise. Inline errors surface like pool errors, through Err.
func (r *Router) dispatch(stripe uint32, fn func() error) {
	if r.pool == nil {
		if err := fn(); err != nil {
			r.fail(err)
		}
		return
	}
	r.pool.submit(stripe, fn)
}

// dispatchSend ships a prepared message through the pool (or inline),
// consuming one reference on its payload lease after the write — the
// allocation-free form of dispatch for sends whose payload is already
// encoded. Callers fanning one message out to several destinations
// retain once per dispatchSend.
func (r *Router) dispatchSend(stripe uint32, to int, msg transport.Message) {
	if r.pool == nil {
		err := r.mesh.Send(to, msg)
		msg.ReleasePayload()
		if err != nil {
			r.fail(err)
		}
		return
	}
	r.pool.submitSend(stripe, to, msg)
}

// Start spawns the receive loop. Call exactly once, before the first
// Launch.
func (r *Router) Start() {
	if r.started.Swap(true) {
		panic("comm: Router started twice")
	}
	go r.receiveLoop()
}

func (r *Router) receiveLoop() {
	for {
		msg, err := r.mesh.Recv()
		if err != nil {
			if !errors.Is(err, transport.ErrClosed) {
				// A transport-level failure (dead peer, corrupt frame
				// stream): abort the clock so compute loops blocked in
				// WaitFor observe the error promptly. Every healthy
				// node holds its own link to the dead peer and detects
				// this independently — no broadcast needed, and none
				// would reach a crashed peer anyway.
				r.failWith(err, false)
			}
			return
		}
		if msg.Type == transport.MsgControl {
			// A peer aborted; don't re-broadcast (the originator already
			// told everyone), just wake our own waiters.
			msg.ReleasePayload()
			r.failWith(fmt.Errorf("comm: peer %d aborted", msg.From), false)
			return
		}
		if msg.Type == transport.MsgPeerGone || msg.Type == transport.MsgPeerUp {
			msg.ReleasePayload()
			if !r.elastic {
				r.failWith(fmt.Errorf("comm: lifecycle event %#x for peer %d on a fixed-size router", byte(msg.Type), msg.From), false)
				return
			}
			r.noteLifecycle(msg)
			continue
		}
		if msg.Type == transport.MsgViewHalt {
			if err := r.handleViewHalt(msg); err != nil {
				r.fail(err)
				return
			}
			continue
		}
		if msg.Type == transport.MsgView {
			if err := r.handleViewFrame(msg); err != nil {
				r.fail(err)
				return
			}
			continue
		}
		index := int(msg.Layer)
		if index < 0 || index >= len(r.syncers) {
			msg.ReleasePayload()
			r.fail(fmt.Errorf("comm: message for unknown param %d", index))
			return
		}
		r.routeMu.Lock()
		if r.elastic && int(msg.Iter) < r.viewFence {
			// Stale traffic from an epoch this node already left: a
			// peer's pooled data sends can trail its halt and the
			// leader's MsgView (control frames bypass the send pool), so
			// a frame below the committed restart iteration may arrive
			// after the barrier resolved. Its round was fenced out and
			// recomputed from the adopted replica — drop it.
			r.routeMu.Unlock()
			msg.ReleasePayload()
			continue
		}
		if r.pendingV != nil {
			// A barrier is open: hold every data frame (lease retained,
			// transport rank preserved) until the successor view decides
			// which survive the fence and under which dense ids they
			// replay, so post-barrier traffic never reaches a pre-barrier
			// syncer.
			r.pendingV.held = append(r.pendingV.held, msg)
			r.routeMu.Unlock()
			continue
		}
		if r.elastic {
			// Translate the sender's transport rank to its dense worker
			// id under the live view; frames from non-members (a removed
			// rank's stragglers) drop here.
			dense := r.view.Index(int(msg.From))
			if dense < 0 {
				r.routeMu.Unlock()
				msg.ReleasePayload()
				continue
			}
			msg.From = int32(dense)
		}
		s := r.syncers[index]
		r.routeMu.Unlock()
		err = s.Handle(msg)
		// Syncers decode into their own scratch and never retain the
		// frame, so its pooled lease (if any) goes back now.
		msg.ReleasePayload()
		if err != nil {
			r.fail(err)
			return
		}
	}
}

// LaunchAll starts synchronization of every parameter for this
// iteration — the per-layer sync() calls of the paper's Algorithm 2.
// Dense routes receive their gradient scaled into the update ring's
// slot for this iteration (no per-iteration allocation), so the
// caller's grad buffers are free for the next backward pass immediately.
//
// Precondition: the caller must have returned from WaitFor(iter) before
// LaunchAll(iter) — the training loop's natural gate. That is what lets
// slot iter%(staleness+1) be reused: the launch that last wrote it
// (iteration iter−staleness−1) has fully synchronized, so no dispatched
// encode task can still be reading the buffer being refilled.
func (r *Router) LaunchAll(iter int, grads []*tensor.Matrix) error {
	if len(grads) != len(r.syncers) {
		return fmt.Errorf("comm: %d grads for %d syncers", len(grads), len(r.syncers))
	}
	slot := r.updRing[iter%len(r.updRing)]
	for i, s := range r.syncers {
		var update *tensor.Matrix
		if r.plans[i].Route != RouteSFB {
			update = slot[i]
			update.CopyFrom(grads[i])
			update.Scale(r.scale)
		}
		if err := s.Launch(iter, update); err != nil {
			return err
		}
		if r.pstats != nil {
			r.pstats[i].CountRound()
		}
	}
	return r.Err()
}

// WaitFor blocks until iteration iter may begin under the staleness
// bound (every parameter synchronized through iter−1−staleness). With
// metrics attached, the blocked time is recorded as sync stall.
func (r *Router) WaitFor(iter int) {
	if r.metrics == nil {
		r.clock.WaitFor(iter)
		return
	}
	start := time.Now()
	r.clock.WaitFor(iter)
	r.metrics.RecordStall(time.Since(start))
}

// Adopt copies the staged replica into the live parameters.
func (r *Router) Adopt(params []*tensor.Matrix) {
	r.stageMu.Lock()
	defer r.stageMu.Unlock()
	for i, p := range params {
		p.CopyFrom(r.staged[i])
	}
}

// Err reports the first asynchronous failure (receive loop or pooled
// send), if any.
func (r *Router) Err() error {
	r.errMu.Lock()
	err := r.asyncEr
	r.errMu.Unlock()
	if err != nil {
		return err
	}
	if r.pool != nil {
		return r.pool.firstErr()
	}
	return nil
}

// Stop drains the send pool and returns any leases still parked at an
// unresolved barrier (an aborted run can leave them behind).
// Call after the final WaitFor, when the protocol has quiesced; the
// receive loop exits when the mesh closes.
func (r *Router) Stop() {
	if r.pool != nil {
		r.pool.close()
	}
	r.routeMu.Lock()
	pv := r.pendingV
	r.pendingV = nil
	r.deferred = nil
	r.routeMu.Unlock()
	if pv != nil {
		if pv.timer != nil {
			pv.timer.Stop()
		}
		for _, m := range pv.held {
			m.ReleasePayload()
		}
	}
}

// Routes summarizes the live route of every parameter (for logging and
// tests); after a barrier it reflects the successor plan.
func (r *Router) Routes() []Route {
	r.routeMu.Lock()
	defer r.routeMu.Unlock()
	routes := make([]Route, len(r.plans))
	for i, p := range r.plans {
		routes[i] = p.Route
	}
	return routes
}

// EgressBytes sums the wire bytes this router's parameters have sent —
// the reading the trainer's bandwidth estimator differences between
// planned barriers. Zero without metrics attached.
func (r *Router) EgressBytes() int64 {
	var total int64
	for _, ps := range r.pstats {
		total += ps.SentBytes()
	}
	return total
}
