package comm

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/sfb"
	"repro/internal/transport"
)

// One barrier protocol serves every change to the round structure: a
// change in WHO is training (a crash, a departure, a joiner) and a change
// in HOW parameters route (a measured-bandwidth replan, which is a view
// change that keeps its members). The protocol, end to end:
//
//  1. Trigger. The transport injects MsgPeerGone (a peer crashed) or
//     MsgPeerUp (a joiner attached), a peer's unplanned MsgViewHalt
//     arrives, or the local node calls Leave. The receive loop opens a
//     pendingView, parks every subsequent data frame (leases retained),
//     and interrupts the consistency clock so the compute loop unblocks.
//
//     Planned trigger. At an iteration B every member agreed on in
//     advance (a multiple of the replan interval), each member calls
//     PlanView(B): it drains every round below B, then opens the
//     barrier itself — no interrupt, since nothing is in flight. Its
//     halt carries the planned bit: a peer that has not reached B yet
//     defers the halt and keeps training up to B (opening the barrier
//     early would park the frames it still needs), folding it in when
//     it opens its own barrier there.
//
//  2. Halt. Each live member of the old view reaches AwaitView with the
//     iteration it would have launched next and broadcasts that halt
//     iteration — plus everything it has observed (dead set, join set,
//     its own leave intent) — to every live old member, then waits.
//     Halts go to everyone so any surviving rank can lead.
//
//  3. Decide. The leader (minimum live rank of the old view) collects
//     a halt from every live old member, computes the successor view
//     (old − dead − leavers + joiners, always at epoch+1) and the
//     restart iteration (max of the halt iterations — no member launched
//     past it, so every old-epoch frame is stamped below it), asks
//     PlanShape for the successor's routes, and broadcasts MsgView
//     carrying the view, the restart iteration, the route vector, and —
//     when the member set changed — its staged replica, the bytes every
//     survivor and joiner adopts. At a planned barrier that nothing else
//     joined the replicas already agree (every round below B drained),
//     so no replica rides along.
//
//  4. Apply. On MsgView each member drains the send pool, adopts the
//     leader's parameters if they were shipped, and rebuilds what the
//     decision changed: with a new member set, the shard, the bank and
//     every syncer (dense ids moved, updates rescale); otherwise only
//     the syncers whose route flipped, so 1-bit residuals and KV state
//     survive a barrier that flips nothing. Every flip is logged. It
//     then resets the clock to the restart iteration and replays parked
//     frames — dropping those fenced below the restart iteration (their
//     rounds are recomputed) and those from ranks outside the new view.
//     A member absent from the view (a leaver, by request) returns Left
//     instead of rebuilding.
//
// The fence needs no per-peer bookkeeping: a member only emits data
// frames for iterations it launched, all below its own halt, so every
// old-epoch frame satisfies Iter < restartIter; and a peer can only
// emit new-epoch frames (Iter >= restartIter) after applying MsgView,
// which the leader sends only after collecting this node's halt — by
// then this node is parked, so the frame is held and replayed, never
// misdispatched.
//
// Fixed-size routers run planned barriers only: there are no lifecycle
// events, Leave, or joiners, and the mesh is not wrapped in a dense
// view (ranks already are the dense ids).

// ViewChange reports one committed membership barrier to the caller.
type ViewChange struct {
	// View is the successor membership.
	View cluster.View
	// RestartIter is the iteration training resumes at; the clock is
	// reset so WaitFor(RestartIter) passes immediately.
	RestartIter int
	// Left is true when this node was excluded from the successor view
	// (it asked to Leave): the router did not rebuild, and the caller
	// should wind down gracefully.
	Left bool
}

// pendingView accumulates one in-progress membership transition.
type pendingView struct {
	dead    map[int]bool // ranks whose links failed (union of local + halted observations)
	joined  map[int]bool // ranks attached but not yet members
	leavers map[int]bool // ranks that announced voluntary departure
	halts   map[int]int  // live old member rank → halt iteration
	leave   bool         // this node wants out
	planned bool         // opened by PlanView: the halt carries the planned bit

	haltSent bool // this node broadcast its halt
	composed bool // this node (as leader) broadcast MsgView
	view     *viewPayload
	held     []transport.Message
	expired  bool
	timer    *time.Timer
}

// viewPayload is the decoded MsgView frame.
type viewPayload struct {
	view    cluster.View
	restart int
	routes  []byte
	params  [][]float32
}

func sortedRanks(set map[int]bool) []int {
	ranks := make([]int, 0, len(set))
	for r := range set {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	return ranks
}

// viewMesh presents the current view to the syncers as a dense 0..P−1
// mesh: sends translate dense indices to transport ranks under the live
// view, so syncer logic is untouched by membership changes. Reads take
// viewMu because pool workers execute queued sends concurrently with
// everything except the barrier itself (which drains the pool before
// swapping the view).
type viewMesh struct{ r *Router }

func (v *viewMesh) Self() int {
	v.r.viewMu.RLock()
	defer v.r.viewMu.RUnlock()
	return v.r.id
}

func (v *viewMesh) N() int {
	v.r.viewMu.RLock()
	defer v.r.viewMu.RUnlock()
	return v.r.n
}

func (v *viewMesh) rankOf(dense int) (int, error) {
	v.r.viewMu.RLock()
	defer v.r.viewMu.RUnlock()
	if dense < 0 || dense >= len(v.r.view.Members) {
		return 0, fmt.Errorf("comm: send to dense id %d outside %v", dense, v.r.view)
	}
	return v.r.view.Members[dense], nil
}

func (v *viewMesh) Send(to int, msg transport.Message) error {
	rank, err := v.rankOf(to)
	if err != nil {
		return err
	}
	return v.r.raw.Send(rank, msg)
}

func (v *viewMesh) SendBatch(to int, msgs []transport.Message) error {
	rank, err := v.rankOf(to)
	if err != nil {
		return err
	}
	return v.r.raw.SendBatch(rank, msgs)
}

func (v *viewMesh) Recv() (transport.Message, error) { return v.r.raw.Recv() }
func (v *viewMesh) Detach(peer int) error            { return v.r.raw.Detach(peer) }
func (v *viewMesh) Close() error                     { return v.r.raw.Close() }

// attachWaiter is the optional transport capability the barrier uses to
// make sure a joiner's link is up before new-epoch traffic targets it.
type attachWaiter interface {
	WaitAttached(rank int, timeout time.Duration) error
}

// View returns the live membership view (a copy).
func (r *Router) View() cluster.View {
	r.viewMu.RLock()
	defer r.viewMu.RUnlock()
	return r.view.Clone()
}

// ViewPending reports whether a membership transition is in progress —
// the compute loop's cue to call AwaitView.
func (r *Router) ViewPending() bool {
	r.routeMu.Lock()
	defer r.routeMu.Unlock()
	return r.pendingV != nil
}

// Leave announces this node's voluntary departure: it opens the
// membership barrier (peers learn of the intent from this node's halt
// broadcast) and interrupts the clock. The caller then runs AwaitView
// like any other member and receives Left=true once the successor view
// excludes it.
func (r *Router) Leave() error {
	if !r.elastic {
		return fmt.Errorf("comm: Leave on a fixed-size router")
	}
	r.routeMu.Lock()
	r.ensurePendingLocked().leave = true
	r.routeCond.Broadcast()
	r.routeMu.Unlock()
	r.clock.Interrupt()
	return nil
}

// PlanView opens the planned view change at iteration barrier: it
// drains every round below the barrier and then opens a same-members
// barrier whose halt carries the planned bit (a transition already
// pending absorbs it instead — the halt at barrier joins that one). The
// caller follows with AwaitView(barrier), as at any membership barrier;
// every member must plan the same barriers.
func (r *Router) PlanView(barrier int) error {
	r.clock.WaitFor(barrier + r.staleness)
	if err := r.Err(); err != nil {
		return err
	}
	r.routeMu.Lock()
	if r.pendingV == nil {
		r.ensurePendingLocked().planned = true
	}
	r.routeMu.Unlock()
	return nil
}

func newPendingView() *pendingView {
	return &pendingView{
		dead:    make(map[int]bool),
		joined:  make(map[int]bool),
		leavers: make(map[int]bool),
		halts:   make(map[int]int),
	}
}

// ensurePendingLocked returns the open barrier, opening one (with its
// timeout armed, and the halts deferred until it opened folded in) if
// none is. Caller holds routeMu.
func (r *Router) ensurePendingLocked() *pendingView {
	if r.pendingV == nil {
		r.pendingV = newPendingView()
		r.armViewTimerLocked(r.pendingV)
		r.refoldDeferredLocked()
	}
	return r.pendingV
}

func (r *Router) armViewTimerLocked(p *pendingView) {
	if p.timer != nil {
		return
	}
	p.timer = time.AfterFunc(r.viewTimeout, func() {
		r.routeMu.Lock()
		if r.pendingV == p {
			p.expired = true
			r.routeCond.Broadcast()
		}
		r.routeMu.Unlock()
	})
}

// noteLifecycle folds one synthetic transport event into the barrier.
// Runs on the receive goroutine.
func (r *Router) noteLifecycle(msg transport.Message) {
	rank := int(msg.From)
	r.routeMu.Lock()
	defer r.routeMu.Unlock()
	switch msg.Type {
	case transport.MsgPeerGone:
		if !r.view.Contains(rank) {
			return // already excluded (stale event for a removed rank)
		}
		r.ensurePendingLocked().dead[rank] = true
	case transport.MsgPeerUp:
		if r.view.Contains(rank) {
			return // re-attachment of a current member is not a join
		}
		r.ensurePendingLocked().joined[rank] = true
	}
	r.routeCond.Broadcast()
	r.clock.Interrupt()
}

// ---- MsgViewHalt -----------------------------------------------------------

// Halt flag bits.
const (
	haltLeave   = 1 << 0
	haltPlanned = 1 << 1
)

type haltPayload struct {
	epoch   int // the epoch being left
	leave   bool
	planned bool
	dead    []int
	joined  []int
}

// appendHaltPayload encodes a halt announcement:
// u32 epoch | u8 flags (bit 0 leave, bit 1 planned) | u32 ndead | ranks |
// u32 njoin | ranks.
func appendHaltPayload(buf []byte, h haltPayload) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.epoch))
	var flags byte
	if h.leave {
		flags |= haltLeave
	}
	if h.planned {
		flags |= haltPlanned
	}
	buf = append(buf, flags)
	for _, ranks := range [][]int{h.dead, h.joined} {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ranks)))
		for _, rank := range ranks {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(rank))
		}
	}
	return buf
}

// decodeHaltPayload is the exact inverse of appendHaltPayload: unknown
// flag bits and trailing bytes are rejected, so an accepted payload
// re-encodes to the same bytes.
func decodeHaltPayload(buf []byte) (haltPayload, error) {
	var h haltPayload
	short := fmt.Errorf("comm: short halt payload")
	readU32 := func() (int, bool) {
		if len(buf) < 4 {
			return 0, false
		}
		v := int(binary.LittleEndian.Uint32(buf))
		buf = buf[4:]
		return v, true
	}
	epoch, ok := readU32()
	if !ok || len(buf) < 1 {
		return h, short
	}
	if buf[0]&^(haltLeave|haltPlanned) != 0 {
		return h, fmt.Errorf("comm: unknown halt flags %#x", buf[0])
	}
	h.epoch = epoch
	h.leave = buf[0]&haltLeave != 0
	h.planned = buf[0]&haltPlanned != 0
	buf = buf[1:]
	for _, dst := range []*[]int{&h.dead, &h.joined} {
		n, ok := readU32()
		if !ok {
			return h, short
		}
		for i := 0; i < n; i++ {
			v, ok := readU32()
			if !ok {
				return h, short
			}
			*dst = append(*dst, v)
		}
	}
	if len(buf) != 0 {
		return h, fmt.Errorf("comm: %d trailing bytes after halt payload", len(buf))
	}
	return h, nil
}

// broadcastHalt announces this node's halt iteration and observations
// to every live member of the old view. Sends go over the raw mesh in
// rank space; elastic transports drop sends to already-dead ranks
// silently, so a racing crash cannot fail the halt.
func (r *Router) broadcastHalt(old cluster.View, nextIter int, h haltPayload) error {
	ref := transport.LeasePayload(13 + 4*(len(h.dead)+len(h.joined)))
	ref.SetBytes(appendHaltPayload(ref.Bytes(), h))
	msg := transport.Message{
		Type:    transport.MsgViewHalt,
		Layer:   -1,
		Iter:    int32(nextIter),
		Payload: ref.Bytes(),
	}
	msg.AttachLease(ref)
	var firstErr error
	for _, m := range old.Members {
		if m == r.rank || containsRank(h.dead, m) {
			continue
		}
		ref.Retain()
		cp := msg
		err := r.raw.Send(m, cp)
		cp.ReleasePayload()
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	ref.Release()
	return firstErr
}

func containsRank(ranks []int, r int) bool {
	for _, x := range ranks {
		if x == r {
			return true
		}
	}
	return false
}

// haltFrame is a decoded halt waiting in Router.deferred.
type haltFrame struct {
	from, iter int
	h          haltPayload
}

// handleViewHalt folds a peer's halt into the barrier. Runs on the
// receive goroutine. A halt that cannot fold yet (see foldHaltLocked)
// is deferred and refolded when a barrier opens or a view commits, so
// cascaded failures and early planned halts are not lost.
func (r *Router) handleViewHalt(msg transport.Message) error {
	h, err := decodeHaltPayload(msg.Payload)
	msg.ReleasePayload()
	if err != nil {
		return err
	}
	if !r.elastic && (!h.planned || h.leave || len(h.dead) != 0 || len(h.joined) != 0) {
		return fmt.Errorf("comm: membership halt from peer %d on a fixed-size router", msg.From)
	}
	r.routeMu.Lock()
	defer r.routeMu.Unlock()
	if f := (haltFrame{from: int(msg.From), iter: int(msg.Iter), h: h}); !r.foldHaltLocked(f) {
		r.deferred = append(r.deferred, f)
	}
	return nil
}

// foldHaltLocked folds one halt into the barrier, opening it if the
// halt is unplanned. It reports false when the halt must wait: it was
// sent from an epoch this node has not entered yet, or it is planned
// and this node has not reached the barrier — opening it now would park
// the data frames this node still needs to get there. Caller holds
// routeMu.
func (r *Router) foldHaltLocked(f haltFrame) bool {
	switch {
	case f.h.epoch < r.view.Epoch:
		return true // stale: that transition already committed here
	case f.h.epoch > r.view.Epoch, f.h.planned && r.pendingV == nil:
		return false
	case !r.view.Contains(f.from):
		return true
	}
	p := r.ensurePendingLocked()
	p.halts[f.from] = f.iter
	if f.h.leave {
		p.leavers[f.from] = true
	}
	for _, d := range f.h.dead {
		if r.view.Contains(d) {
			p.dead[d] = true
		}
	}
	for _, j := range f.h.joined {
		if !r.view.Contains(j) {
			p.joined[j] = true
		}
	}
	r.routeCond.Broadcast()
	r.clock.Interrupt()
	return true
}

// refoldDeferredLocked retries every deferred halt against the current
// epoch and barrier. Caller holds routeMu.
func (r *Router) refoldDeferredLocked() {
	deferred := r.deferred
	r.deferred = nil
	for _, f := range deferred {
		if !r.foldHaltLocked(f) {
			r.deferred = append(r.deferred, f)
		}
	}
}

// ---- MsgView ---------------------------------------------------------------

// composeViewLocked builds the successor view and its MsgView payload
// from the collected halts. Caller holds routeMu; the staged replica is
// frozen (receive loop parked, compute loop is here).
func (r *Router) composeViewLocked(p *pendingView) (*viewPayload, []int, error) {
	removed := sortedRanks(p.dead)
	for l := range p.leavers {
		if !containsRank(removed, l) {
			removed = append(removed, l)
		}
	}
	if p.leave && !containsRank(removed, r.rank) {
		removed = append(removed, r.rank)
	}
	sort.Ints(removed)
	next := r.view.Next(removed, sortedRanks(p.joined))
	if next.Size() == 0 {
		return nil, nil, fmt.Errorf("comm: membership change leaves an empty view")
	}
	restart := 0
	for _, h := range p.halts {
		if h > restart {
			restart = h
		}
	}
	routes := make([]byte, len(r.plans))
	for i, plan := range r.plans {
		routes[i] = byte(plan.Route)
	}
	if r.planShape != nil {
		plans, err := r.planShape(next.Size())
		if err != nil {
			return nil, nil, fmt.Errorf("comm: replanning for %v: %w", next, err)
		}
		if plans != nil {
			if len(plans) != len(r.plans) {
				return nil, nil, fmt.Errorf("comm: shape replan produced %d plans for %d params", len(plans), len(r.plans))
			}
			for i, plan := range plans {
				routes[i] = byte(plan.Route)
			}
		}
	}
	pv := &viewPayload{view: next, restart: restart, routes: routes}
	if !slices.Equal(next.Members, r.view.Members) {
		r.stageMu.Lock()
		for _, m := range r.staged {
			pv.params = append(pv.params, slices.Clone(m.Data))
		}
		r.stageMu.Unlock()
	}

	// Recipients: every live old member (leavers included — MsgView is
	// how they learn they are out) plus every joiner; not self.
	var to []int
	for _, m := range r.view.Members {
		if m != r.rank && !p.dead[m] {
			to = append(to, m)
		}
	}
	for j := range p.joined {
		if !containsRank(to, j) {
			to = append(to, j)
		}
	}
	sort.Ints(to)
	return pv, to, nil
}

// appendViewPayload encodes: view wire (epoch|count|members) |
// u32 restartIter | u32 nroutes | route bytes | u32 nparams |
// per param (index order): u32 nvals | float32 LE values.
func appendViewPayload(buf []byte, pv *viewPayload) []byte {
	buf = pv.view.AppendWire(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(pv.restart))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(pv.routes)))
	buf = append(buf, pv.routes...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(pv.params)))
	for _, vals := range pv.params {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(vals)))
		for _, v := range vals {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
		}
	}
	return buf
}

// decodeViewPayload is the exact inverse of appendViewPayload; trailing
// bytes are rejected.
func decodeViewPayload(buf []byte) (*viewPayload, error) {
	view, rest, err := cluster.DecodeWire(buf)
	if err != nil {
		return nil, err
	}
	buf = rest
	readU32 := func() (int, bool) {
		if len(buf) < 4 {
			return 0, false
		}
		v := int(binary.LittleEndian.Uint32(buf))
		buf = buf[4:]
		return v, true
	}
	pv := &viewPayload{view: view}
	var ok bool
	if pv.restart, ok = readU32(); !ok {
		return nil, fmt.Errorf("comm: short VIEW payload")
	}
	nroutes, ok := readU32()
	if !ok || len(buf) < nroutes {
		return nil, fmt.Errorf("comm: short VIEW payload")
	}
	pv.routes = append([]byte(nil), buf[:nroutes]...)
	buf = buf[nroutes:]
	nparams, ok := readU32()
	if !ok {
		return nil, fmt.Errorf("comm: short VIEW payload")
	}
	for i := 0; i < nparams; i++ {
		nvals, ok := readU32()
		if !ok || len(buf) < 4*nvals {
			return nil, fmt.Errorf("comm: short VIEW payload (param %d)", i)
		}
		vals := make([]float32, nvals)
		for j := range vals {
			vals[j] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*j:]))
		}
		buf = buf[4*nvals:]
		pv.params = append(pv.params, vals)
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("comm: %d trailing bytes after VIEW payload", len(buf))
	}
	return pv, nil
}

// sendView broadcasts the MsgView frame to the given ranks.
func (r *Router) sendView(pv *viewPayload, to []int) error {
	size := 12 + 4*len(pv.view.Members) + 8 + len(pv.routes) + 4
	for _, vals := range pv.params {
		size += 4 + 4*len(vals)
	}
	ref := transport.LeasePayload(size)
	ref.SetBytes(appendViewPayload(ref.Bytes(), pv))
	msg := transport.Message{
		Type:    transport.MsgView,
		Layer:   -1,
		Iter:    int32(pv.restart),
		Payload: ref.Bytes(),
	}
	msg.AttachLease(ref)
	var firstErr error
	for _, rank := range to {
		ref.Retain()
		cp := msg
		err := r.raw.Send(rank, cp)
		cp.ReleasePayload()
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	ref.Release()
	return firstErr
}

// handleViewFrame records the leader's decision. Runs on the receive
// goroutine. Frames for epochs beyond the immediate successor are
// rejected unless this node is joining (it adopts whatever epoch the
// cluster reached); duplicates and frames for already-committed epochs
// are dropped.
func (r *Router) handleViewFrame(msg transport.Message) error {
	pv, err := decodeViewPayload(msg.Payload)
	msg.ReleasePayload()
	if err != nil {
		return err
	}
	r.routeMu.Lock()
	defer r.routeMu.Unlock()
	switch {
	case pv.view.Epoch <= r.view.Epoch:
		return nil // duplicate leader or already committed
	case pv.view.Epoch > r.view.Epoch+1 && !r.joining:
		return fmt.Errorf("comm: VIEW for epoch %d skips epoch %d", pv.view.Epoch, r.view.Epoch+1)
	}
	if p := r.ensurePendingLocked(); p.view == nil {
		// First decision wins; a duplicate from a partitioned co-leader
		// is dropped (split-brain on link-only failures is out of scope).
		p.view = pv
	}
	r.routeCond.Broadcast()
	r.clock.Interrupt()
	return nil
}

// ---- The barrier -----------------------------------------------------------

// AwaitView runs the barrier from the compute goroutine. nextIter is the
// iteration this node would launch next — its halt iteration (every
// frame it has sent is stamped below it). The call broadcasts the halt,
// waits for the leader's MsgView (composing and broadcasting it itself
// when it is the minimum live rank), applies the successor view, and
// returns it. A joining router passes any value; it broadcasts nothing
// and simply waits to be adopted.
func (r *Router) AwaitView(nextIter int) (ViewChange, error) {
	r.routeMu.Lock()
	p := r.pendingV
	if p == nil {
		r.routeMu.Unlock()
		return ViewChange{}, fmt.Errorf("comm: AwaitView with no view change pending")
	}
	r.armViewTimerLocked(p)
	if !r.joining && !p.haltSent {
		p.haltSent = true
		p.halts[r.rank] = nextIter
		old := r.view.Clone()
		h := haltPayload{
			epoch:   old.Epoch,
			leave:   p.leave,
			planned: p.planned,
			dead:    sortedRanks(p.dead),
			joined:  sortedRanks(p.joined),
		}
		r.routeMu.Unlock()
		if err := r.broadcastHalt(old, nextIter, h); err != nil {
			r.fail(err)
			return ViewChange{}, r.Err()
		}
		r.routeMu.Lock()
	}
	for p.view == nil {
		if err := r.Err(); err != nil {
			r.routeMu.Unlock()
			return ViewChange{}, err
		}
		if p.expired {
			r.routeMu.Unlock()
			err := fmt.Errorf("comm: view-change barrier timed out after %v (halts from %v, dead %v)",
				r.viewTimeout, sortedRanks(boolKeys(p.halts)), sortedRanks(p.dead))
			r.fail(err)
			return ViewChange{}, err
		}
		if !r.joining && !p.composed && r.leaderLocked(p) && r.haveAllHaltsLocked(p) {
			p.composed = true
			pv, to, err := r.composeViewLocked(p)
			if err != nil {
				r.routeMu.Unlock()
				r.fail(err)
				return ViewChange{}, err
			}
			r.routeMu.Unlock()
			sendErr := r.sendView(pv, to)
			r.routeMu.Lock()
			if sendErr != nil {
				r.routeMu.Unlock()
				r.fail(sendErr)
				return ViewChange{}, sendErr
			}
			p.view = pv
			break
		}
		r.routeCond.Wait()
	}
	vc, err := r.applyViewLocked(p)
	r.routeMu.Unlock()
	if err != nil {
		r.fail(err)
		return ViewChange{}, err
	}
	if r.onView != nil && !vc.Left {
		r.onView(vc.View)
	}
	return vc, nil
}

func boolKeys(m map[int]int) map[int]bool {
	out := make(map[int]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}

// leaderLocked reports whether this node is the barrier leader: the
// minimum old-view rank not observed dead. Halts are broadcast to every
// live member, so leadership fails over with no extra round trips.
func (r *Router) leaderLocked(p *pendingView) bool {
	for _, m := range r.view.Members {
		if !p.dead[m] {
			return m == r.rank
		}
	}
	return false
}

// haveAllHaltsLocked reports whether every live old member has halted.
func (r *Router) haveAllHaltsLocked(p *pendingView) bool {
	for _, m := range r.view.Members {
		if p.dead[m] {
			continue
		}
		if _, ok := p.halts[m]; !ok {
			return false
		}
	}
	return true
}

// applyViewLocked commits the decided view. Caller holds routeMu (so
// the receive loop is excluded and the park set is frozen).
func (r *Router) applyViewLocked(p *pendingView) (ViewChange, error) {
	pv := p.view
	p.timer.Stop()
	if !pv.view.Contains(r.rank) {
		// Excluded: this node asked to leave (or the cluster moved on
		// without it). Nothing to rebuild — release the parked frames
		// and report the departure.
		for _, m := range p.held {
			m.ReleasePayload()
		}
		r.pendingV = nil
		return ViewChange{View: pv.view, RestartIter: pv.restart, Left: true}, nil
	}
	if len(pv.routes) != len(r.plans) {
		return ViewChange{}, fmt.Errorf("comm: VIEW names %d routes, router has %d params", len(pv.routes), len(r.plans))
	}
	// The leader's replica rides along exactly when the member set
	// changes (composeViewLocked); anything else is a leader that
	// disagrees about the old view, and accepting it would skip or
	// misapply the handoff silently.
	reshape := !slices.Equal(r.view.Members, pv.view.Members)
	if (reshape && len(pv.params) != len(r.plans)) || (!reshape && len(pv.params) != 0) {
		return ViewChange{}, fmt.Errorf("comm: VIEW carries %d params for %v -> %v, router has %d", len(pv.params), r.view.Members, pv.view.Members, len(r.plans))
	}
	// Drain the egress backlog before syncers close and the dense→rank
	// table changes: queued sends must resolve under the epoch that
	// produced them.
	if r.pool != nil {
		r.pool.flush()
	}
	// Adopt the leader's replica when the member set changed. At a crash
	// barrier local folds may have diverged (frames fenced out below
	// arrived on some nodes and not others); adopting one authority
	// keeps replicas byte-identical.
	r.stageMu.Lock()
	for i, vals := range pv.params {
		if len(vals) != len(r.staged[i].Data) {
			r.stageMu.Unlock()
			return ViewChange{}, fmt.Errorf("comm: VIEW param %d has %d values, want %d", i, len(vals), len(r.staged[i].Data))
		}
		copy(r.staged[i].Data, vals)
	}
	r.stageMu.Unlock()

	// Successor plans. A flipped route rebuilds its syncer; a new member
	// set rebuilds every syncer, since the shard, the bank, and the dense
	// ids they bind to all change. Outgoing syncers close under the old
	// ids, releasing the server state they registered.
	oldView := r.view
	next := slices.Clone(r.plans)
	rebuild := func(i int) bool { return reshape || next[i].Route != r.plans[i].Route }
	for i := range next {
		if route := Route(pv.routes[i]); route != next[i].Route {
			next[i].Route, next[i].SF = route, nil
			if route == RouteSFB && r.sfSource != nil {
				next[i].SF = r.sfSource(i)
			}
			if route == RouteSFB && next[i].SF == nil {
				return ViewChange{}, fmt.Errorf("comm: view moved param %d (%s) to SFB without an SF source", i, next[i].Name)
			}
		}
		if rebuild(i) {
			r.syncers[i].Close()
		}
	}

	r.viewMu.Lock()
	r.view = pv.view
	r.id = pv.view.Index(r.rank)
	r.n = pv.view.Size()
	r.viewMu.Unlock()
	if r.scaleFor != nil {
		r.scale = r.scaleFor(r.n)
	} else if oldView.Size() != r.n {
		r.scale = r.scale * float32(oldView.Size()) / float32(r.n)
	}
	if reshape {
		// Fresh server-side state for the new membership; the rebuilt
		// syncers re-seed KV pairs from the just-adopted replica, so every
		// node's shards agree byte-for-byte.
		r.shard = kvstore.NewShard(r.n)
		if r.metrics != nil {
			r.shard.SetMetrics(r.metrics.KV())
		}
		r.bank = sfb.NewBank()
	}
	r.stageMu.Lock()
	for i := range next {
		if !rebuild(i) {
			continue
		}
		s, err := r.buildSyncer(next[i], r.staged[i])
		if err != nil {
			r.stageMu.Unlock()
			return ViewChange{}, err
		}
		if from := r.plans[i].Route; from != next[i].Route && r.metrics != nil {
			r.pstats[i].SetRoute(next[i].Route.String())
			r.metrics.RecordReplan(metrics.ReplanEvent{
				Iter: pv.restart, Param: i, Name: next[i].Name,
				From: from.String(), To: next[i].Route.String(),
			})
		}
		r.syncers[i] = s
		r.plans[i] = next[i]
		r.initRingSlot(i, next[i])
	}
	r.stageMu.Unlock()
	r.clock.Reset(pv.restart)
	r.viewFence = pv.restart

	if r.metrics != nil {
		r.metrics.RecordViewChange(metrics.ViewChangeEvent{
			Epoch:       pv.view.Epoch,
			RestartIter: pv.restart,
			Members:     append([]int(nil), pv.view.Members...),
			Dead:        sortedRanks(p.dead),
			Joined:      sortedRanks(p.joined),
			Left:        sortedRanks(p.leavers),
		})
	}
	// Sever links to crashed ranks (idempotent — the transport usually
	// already did) so straggling sends drop silently. Leavers keep their
	// links until they close them; their goodbye detaches silently.
	for d := range p.dead {
		_ = r.raw.Detach(d)
	}
	// A joiner's link must be up before new-epoch traffic targets it; on
	// transports that can say so, wait (bounded by the barrier timeout).
	if aw, ok := r.raw.(attachWaiter); ok {
		for _, m := range pv.view.Members {
			if m != r.rank && !oldView.Contains(m) {
				if err := aw.WaitAttached(m, r.viewTimeout); err != nil {
					return ViewChange{}, fmt.Errorf("comm: joiner %d never attached: %w", m, err)
				}
			}
		}
	}

	// Replay the parked frames through the successor syncers, in arrival
	// order. The iteration fence drops old-epoch traffic (all of it is
	// stamped below the restart iteration — those rounds are recomputed
	// from the adopted replica); frames from outside the view drop too.
	held := p.held
	r.pendingV = nil
	r.joining = false
	var err error
	for _, m := range held {
		if err == nil && int(m.Iter) >= pv.restart {
			if dense := pv.view.Index(int(m.From)); dense >= 0 {
				if idx := int(m.Layer); idx < 0 || idx >= len(r.syncers) {
					err = fmt.Errorf("comm: parked message for unknown param %d", idx)
				} else {
					m.From = int32(dense)
					err = r.syncers[idx].Handle(m)
				}
			}
		}
		m.ReleasePayload()
	}
	if err != nil {
		return ViewChange{}, err
	}
	// Refold halts that raced ahead of this commit (a peer already
	// halting in the epoch just entered — a cascaded transition).
	r.refoldDeferredLocked()
	// Events observed after the leader composed but folded into the old
	// barrier: a member of the committed view that is already dead, or
	// an attached rank the view left out. Re-arm so the next barrier
	// picks them up instead of losing the (once-only) transport event.
	var carry bool
	for d := range p.dead {
		if r.view.Contains(d) {
			r.ensurePendingLocked().dead[d] = true
			carry = true
		}
	}
	for j := range p.joined {
		if !r.view.Contains(j) {
			r.ensurePendingLocked().joined[j] = true
			carry = true
		}
	}
	if carry {
		r.clock.Interrupt()
	}
	return ViewChange{View: pv.view.Clone(), RestartIter: pv.restart}, nil
}
