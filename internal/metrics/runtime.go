// Runtime communication metrics — live atomic counters maintained by
// the functional plane while it trains, as opposed to the offline
// series/table renderers in figure.go-style code above. The comm
// runtime attributes wire traffic per parameter and route, the
// transport layer counts raw frames, the KV store counts folded
// rounds, and the trainer's compute loop records how long it stalls at
// each synchronization barrier. Snapshot() freezes everything into a
// JSON-serializable report (the schema behind poseidon-worker's
// -metrics-dump flag) so a real cluster run can prove the paper's
// claim — hybrid routing moves fewer bytes than pure PS — with
// measured numbers rather than the analytic model.
package metrics

import (
	"sync"
	"sync/atomic"
	"time"
)

// WireStats counts frame-level traffic at the transport boundary.
// Loopback frames are excluded by the instrumenting wrapper — a
// self-send never touches the wire.
type WireStats struct {
	framesSent, framesRecv atomic.Int64
	bytesSent, bytesRecv   atomic.Int64
	bytesCopied            atomic.Int64
}

// CountSent records one outbound frame of the given on-wire size.
func (w *WireStats) CountSent(bytes int) {
	w.framesSent.Add(1)
	w.bytesSent.Add(int64(bytes))
}

// CountRecv records one inbound frame of the given on-wire size.
func (w *WireStats) CountRecv(bytes int) {
	w.framesRecv.Add(1)
	w.bytesRecv.Add(int64(bytes))
}

// CountCopied records bytes the transport itself copied into scratch
// memory on the egress path (loopback excluded) — the transport
// options' OnCopy hooks feed it. The vectored TCP path copies only the
// length prefix + header per frame (21 bytes), so bytes_copied_per_frame
// near that constant is the signature of zero-copy egress working; the
// shared-memory ring copies the whole record once by design.
func (w *WireStats) CountCopied(bytes int) { w.bytesCopied.Add(int64(bytes)) }

// WireSnapshot is the frozen form of WireStats.
type WireSnapshot struct {
	FramesSent int64 `json:"frames_sent"`
	FramesRecv int64 `json:"frames_recv"`
	BytesSent  int64 `json:"bytes_sent"`
	BytesRecv  int64 `json:"bytes_recv"`
	// BytesCopied is the cumulative transport scratch-copy volume on
	// the egress path; BytesCopiedPerFrame divides it by FramesSent
	// (0 when nothing was sent). Header-only (~21) on the vectored TCP
	// path; ~the mean frame size on the shm ring.
	BytesCopied         int64   `json:"bytes_copied"`
	BytesCopiedPerFrame float64 `json:"bytes_copied_per_frame"`
}

// Snapshot freezes the counters.
func (w *WireStats) Snapshot() WireSnapshot {
	s := WireSnapshot{
		FramesSent:  w.framesSent.Load(),
		FramesRecv:  w.framesRecv.Load(),
		BytesSent:   w.bytesSent.Load(),
		BytesRecv:   w.bytesRecv.Load(),
		BytesCopied: w.bytesCopied.Load(),
	}
	if s.FramesSent > 0 {
		s.BytesCopiedPerFrame = float64(s.BytesCopied) / float64(s.FramesSent)
	}
	return s
}

// KVStats counts parameter-server shard activity.
type KVStats struct {
	pushesBuffered, roundsFolded, valuesFolded atomic.Int64
}

// CountPush records one buffered worker contribution.
func (k *KVStats) CountPush() { k.pushesBuffered.Add(1) }

// CountRound records one completed fold of `values` float32 elements.
func (k *KVStats) CountRound(values int) {
	k.roundsFolded.Add(1)
	k.valuesFolded.Add(int64(values))
}

// KVSnapshot is the frozen form of KVStats.
type KVSnapshot struct {
	PushesBuffered int64 `json:"pushes_buffered"`
	RoundsFolded   int64 `json:"rounds_folded"`
	ValuesFolded   int64 `json:"values_folded"`
}

// Snapshot freezes the counters.
func (k *KVStats) Snapshot() KVSnapshot {
	return KVSnapshot{
		PushesBuffered: k.pushesBuffered.Load(),
		RoundsFolded:   k.roundsFolded.Load(),
		ValuesFolded:   k.valuesFolded.Load(),
	}
}

// stallBucketBounds are the upper bounds (exclusive, nanoseconds) of
// the stall histogram's buckets; the last bucket is unbounded.
var stallBucketBounds = []int64{
	int64(10 * time.Microsecond),
	int64(100 * time.Microsecond),
	int64(time.Millisecond),
	int64(10 * time.Millisecond),
	int64(100 * time.Millisecond),
	int64(time.Second),
}

// stallBucketLabels name the histogram buckets in the JSON snapshot.
var stallBucketLabels = []string{
	"<10us", "<100us", "<1ms", "<10ms", "<100ms", "<1s", ">=1s",
}

// stallHist is a fixed-bucket histogram of per-iteration sync-stall
// durations (time the compute loop spent blocked in WaitFor).
type stallHist struct {
	count, sumNanos, maxNanos atomic.Int64
	buckets                   [7]atomic.Int64
	// epochMax tracks the largest stall since the last SnapshotIter —
	// the straggler signal needs a per-window max, which the cumulative
	// maxNanos cannot provide.
	epochMax atomic.Int64
}

func (h *stallHist) record(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sumNanos.Add(ns)
	atomicMax(&h.maxNanos, ns)
	atomicMax(&h.epochMax, ns)
	b := len(stallBucketBounds)
	for i, bound := range stallBucketBounds {
		if ns < bound {
			b = i
			break
		}
	}
	h.buckets[b].Add(1)
}

func atomicMax(a *atomic.Int64, v int64) {
	for {
		old := a.Load()
		if v <= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

// StallSnapshot is the frozen stall histogram.
type StallSnapshot struct {
	Count   int64            `json:"count"`
	TotalMS float64          `json:"total_ms"`
	MeanMS  float64          `json:"mean_ms"`
	MaxMS   float64          `json:"max_ms"`
	Buckets map[string]int64 `json:"buckets"`
}

func (h *stallHist) snapshot() StallSnapshot {
	s := StallSnapshot{
		Count:   h.count.Load(),
		TotalMS: float64(h.sumNanos.Load()) / 1e6,
		MaxMS:   float64(h.maxNanos.Load()) / 1e6,
		Buckets: make(map[string]int64, len(stallBucketLabels)),
	}
	if s.Count > 0 {
		s.MeanMS = s.TotalMS / float64(s.Count)
	}
	for i, label := range stallBucketLabels {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets[label] = n
		}
	}
	return s
}

// ParamStats holds the per-parameter traffic counters. The comm router
// registers one per synchronized tensor and attributes every non-loopback
// frame whose Layer field names it.
type ParamStats struct {
	index int
	name  string
	// route is mutable: a replan barrier can move a live parameter onto
	// another wire strategy mid-run (SetRoute), so reads and writes are
	// guarded. The snapshot reports the route at snapshot time.
	routeMu sync.Mutex
	route   string
	elems   int64
	// psEquivPerRound is the cost model's pure-PS per-node wire bytes
	// per iteration for this tensor (the caller computes it — Table 1's
	// colocated cost × 4 — so this package stays cost-model-agnostic).
	psEquivPerRound int64
	rounds          atomic.Int64
	bytesSent       atomic.Int64
	framesSent      atomic.Int64
	bytesRecv       atomic.Int64
	framesRecv      atomic.Int64
}

// CountSent records one outbound frame carrying this parameter.
func (p *ParamStats) CountSent(bytes int) {
	p.framesSent.Add(1)
	p.bytesSent.Add(int64(bytes))
}

// CountRecv records one inbound frame carrying this parameter.
func (p *ParamStats) CountRecv(bytes int) {
	p.framesRecv.Add(1)
	p.bytesRecv.Add(int64(bytes))
}

// CountRound records one synchronization launch (≙ one iteration).
func (p *ParamStats) CountRound() { p.rounds.Add(1) }

// SetRoute renames the parameter's wire strategy after a replan barrier
// moved it onto another syncer.
func (p *ParamStats) SetRoute(route string) {
	p.routeMu.Lock()
	p.route = route
	p.routeMu.Unlock()
}

// Route returns the parameter's current wire strategy name.
func (p *ParamStats) Route() string {
	p.routeMu.Lock()
	defer p.routeMu.Unlock()
	return p.route
}

// SentBytes returns the cumulative egress byte count attributed to this
// parameter — the reading the trainer's bandwidth estimator differences
// between replan windows.
func (p *ParamStats) SentBytes() int64 { return p.bytesSent.Load() }

// ParamSnapshot is the frozen per-parameter report.
type ParamSnapshot struct {
	Index  int    `json:"index"`
	Name   string `json:"name,omitempty"`
	Route  string `json:"route"`
	Elems  int64  `json:"elems"`
	Rounds int64  `json:"rounds"`

	BytesSent  int64 `json:"bytes_sent"`
	FramesSent int64 `json:"frames_sent"`
	BytesRecv  int64 `json:"bytes_recv"`
	FramesRecv int64 `json:"frames_recv"`

	// PSEquivBytes is the cost model's pure-PS per-node traffic for the
	// same number of rounds — the analytic reference the measured bytes
	// are compared against to compute SFB savings. Zero when the
	// registering caller supplied no baseline.
	PSEquivBytes int64 `json:"ps_equiv_bytes"`
}

func (p *ParamStats) snapshot() ParamSnapshot {
	return ParamSnapshot{
		Index:        p.index,
		Name:         p.name,
		Route:        p.Route(),
		Elems:        p.elems,
		Rounds:       p.rounds.Load(),
		BytesSent:    p.bytesSent.Load(),
		FramesSent:   p.framesSent.Load(),
		BytesRecv:    p.bytesRecv.Load(),
		FramesRecv:   p.framesRecv.Load(),
		PSEquivBytes: p.rounds.Load() * p.psEquivPerRound,
	}
}

// Comm is the registry of one node's live communication metrics: wire
// frames, KV rounds, per-parameter traffic, and sync-stall time.
// Every method — counters and RegisterParam alike — is safe for
// concurrent use, so several in-process routers may share one
// registry (each registers its own ParamStats blocks; Snapshot then
// reports cluster-wide totals, as examples/quickstart does).
type Comm struct {
	wire  WireStats
	kv    KVStats
	stall stallHist
	serve ServeStats

	mu     sync.Mutex
	params []*ParamStats

	// iterMu guards the SnapshotIter baseline (last window's cumulative
	// stall counters).
	iterMu   sync.Mutex
	iterBase StallSnapshot

	// replanMu guards the replan event log and the live bandwidth
	// estimate (written at replan barriers, read by Snapshot).
	replanMu sync.Mutex
	replans  []ReplanEvent
	bwEstBPS float64

	// viewMu guards the membership log: the current epoch and the
	// committed view transitions (written at membership barriers, read
	// by Snapshot).
	viewMu      sync.Mutex
	epoch       int
	viewChanges []ViewChangeEvent
}

// ReplanEvent records one route flip applied at a barrier (a planned
// replan or a membership change): from iteration Iter on, parameter
// Param synchronizes over To instead of From.
type ReplanEvent struct {
	Iter  int    `json:"iter"`
	Param int    `json:"param"`
	Name  string `json:"name,omitempty"`
	From  string `json:"from"`
	To    string `json:"to"`
}

// NewComm creates an empty metrics registry.
func NewComm() *Comm { return &Comm{} }

// Wire returns the transport-level frame counters.
func (c *Comm) Wire() *WireStats { return &c.wire }

// KV returns the parameter-server shard counters.
func (c *Comm) KV() *KVStats { return &c.kv }

// Serve returns the serving-plane counters (the poseidon-serve
// gateway's request/batch/latency block).
func (c *Comm) Serve() *ServeStats { return &c.serve }

// RecordStall adds one compute-loop stall measurement.
func (c *Comm) RecordStall(d time.Duration) { c.stall.record(d) }

// SnapshotIter returns the stall histogram's delta since the previous
// SnapshotIter call (the full history on the first call): stall count,
// total/mean milliseconds, the largest single stall of the window, and
// per-bucket deltas. Called once per iteration (or per progress tick)
// it surfaces the live straggler signal — a worker whose windows grow a
// fat >=100ms bucket is waiting on a slow peer — without resetting the
// cumulative histogram that Snapshot reports.
func (c *Comm) SnapshotIter() StallSnapshot {
	c.iterMu.Lock()
	defer c.iterMu.Unlock()
	cur := c.stall.snapshot()
	d := StallSnapshot{
		Count:   cur.Count - c.iterBase.Count,
		TotalMS: cur.TotalMS - c.iterBase.TotalMS,
		MaxMS:   float64(c.stall.epochMax.Swap(0)) / 1e6,
		Buckets: make(map[string]int64, len(cur.Buckets)),
	}
	if d.Count > 0 {
		d.MeanMS = d.TotalMS / float64(d.Count)
	}
	for label, n := range cur.Buckets {
		if delta := n - c.iterBase.Buckets[label]; delta > 0 {
			d.Buckets[label] = delta
		}
	}
	c.iterBase = cur
	return d
}

// RecordReplan logs one route flip applied at a barrier.
func (c *Comm) RecordReplan(e ReplanEvent) {
	c.replanMu.Lock()
	c.replans = append(c.replans, e)
	c.replanMu.Unlock()
}

// ViewChangeEvent records one committed view-change barrier: from
// RestartIter on, the cluster is Members (epoch Epoch), after removing
// the crashed (Dead) and departing (Left) ranks and admitting Joined. A
// planned replan barrier keeps its members and lists none of the three.
type ViewChangeEvent struct {
	Epoch       int   `json:"epoch"`
	RestartIter int   `json:"restart_iter"`
	Members     []int `json:"members"`
	Dead        []int `json:"dead,omitempty"`
	Joined      []int `json:"joined,omitempty"`
	Left        []int `json:"left,omitempty"`
}

// RecordViewChange logs one committed view transition and advances the
// epoch counter.
func (c *Comm) RecordViewChange(e ViewChangeEvent) {
	c.viewMu.Lock()
	c.epoch = e.Epoch
	c.viewChanges = append(c.viewChanges, e)
	c.viewMu.Unlock()
}

// MembershipEpoch returns the epoch of the last committed view change
// (0 before any membership transition).
func (c *Comm) MembershipEpoch() int {
	c.viewMu.Lock()
	defer c.viewMu.Unlock()
	return c.epoch
}

// SetBandwidthEstimate publishes the planner's current EWMA wire-rate
// estimate (bytes/second) so the snapshot can report what Algorithm 1
// was actually deciding against. Zero means no estimator ran on this
// node (only the replan leader folds observations).
func (c *Comm) SetBandwidthEstimate(bps float64) {
	c.replanMu.Lock()
	c.bwEstBPS = bps
	c.replanMu.Unlock()
}

// RegisterParam adds (and returns) the counter block for one
// synchronized parameter tensor. psEquivPerRound is the cost model's
// pure-PS per-node bytes per iteration (0 when unknown — savings then
// read as zero rather than wrong).
func (c *Comm) RegisterParam(index int, name, route string, elems int, psEquivPerRound int64) *ParamStats {
	p := &ParamStats{index: index, name: name, route: route, elems: int64(elems), psEquivPerRound: psEquivPerRound}
	c.mu.Lock()
	c.params = append(c.params, p)
	c.mu.Unlock()
	return p
}

// TotalsSnapshot aggregates the per-parameter counters.
type TotalsSnapshot struct {
	BytesSent int64 `json:"bytes_sent"`
	BytesRecv int64 `json:"bytes_recv"`
	// SFBParams counts parameters routed over sufficient-factor
	// broadcasting.
	SFBParams int `json:"sfb_params"`
	// SFBSavingsBytes sums, over SFB-routed parameters with a known
	// PS baseline (ps_equiv_bytes > 0), the baseline traffic minus the
	// measured SFB traffic (sent+received) — the byte savings HybComm's
	// Algorithm 1 predicted. Negative when pinned SFB routes lose to
	// the PS (an override ablation), so losing routes are visible
	// rather than clamped away.
	SFBSavingsBytes int64 `json:"sfb_savings_bytes"`
}

// CommSnapshot is the full frozen report, JSON-encoded by the worker's
// -metrics-dump flag.
type CommSnapshot struct {
	Wire   WireSnapshot    `json:"wire"`
	KV     KVSnapshot      `json:"kvstore"`
	Stall  StallSnapshot   `json:"stall"`
	Params []ParamSnapshot `json:"params"`
	Totals TotalsSnapshot  `json:"totals"`
	// ReplanEvents lists every route flip applied at a barrier, in
	// application order; empty when no route ever changed.
	ReplanEvents []ReplanEvent `json:"replan_events"`
	// BWEstimateBPS is the planner's final EWMA wire-rate estimate
	// (bytes/second); 0 on nodes that never folded an observation.
	BWEstimateBPS float64 `json:"bw_estimate_bps"`
	// MembershipEpoch is the cluster view epoch this node last
	// committed (0 for a run that never passed a barrier);
	// ViewChanges lists every committed barrier in order, planned ones
	// included.
	MembershipEpoch int               `json:"membership_epoch"`
	ViewChanges     []ViewChangeEvent `json:"view_changes,omitempty"`
	// Serve is the serving-plane block, present only on nodes that
	// handled at least one /v1/predict request.
	Serve *ServeSnapshot `json:"serve,omitempty"`
}

// Snapshot freezes every counter into a serializable report.
func (c *Comm) Snapshot() CommSnapshot {
	c.mu.Lock()
	params := make([]*ParamStats, len(c.params))
	copy(params, c.params)
	c.mu.Unlock()

	snap := CommSnapshot{
		Wire:  c.wire.Snapshot(),
		KV:    c.kv.Snapshot(),
		Stall: c.stall.snapshot(),
	}
	c.replanMu.Lock()
	snap.ReplanEvents = append([]ReplanEvent(nil), c.replans...)
	snap.BWEstimateBPS = c.bwEstBPS
	c.replanMu.Unlock()
	c.viewMu.Lock()
	snap.MembershipEpoch = c.epoch
	snap.ViewChanges = append([]ViewChangeEvent(nil), c.viewChanges...)
	c.viewMu.Unlock()
	if c.serve.active() {
		serve := c.serve.Snapshot()
		snap.Serve = &serve
	}
	for _, p := range params {
		ps := p.snapshot()
		snap.Params = append(snap.Params, ps)
		snap.Totals.BytesSent += ps.BytesSent
		snap.Totals.BytesRecv += ps.BytesRecv
		if ps.Route == "SFB" {
			snap.Totals.SFBParams++
			if ps.PSEquivBytes > 0 {
				snap.Totals.SFBSavingsBytes += ps.PSEquivBytes - (ps.BytesSent + ps.BytesRecv)
			}
		}
	}
	return snap
}
