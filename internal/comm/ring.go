package comm

import (
	"fmt"
	"sync"

	"repro/internal/tensor"
	"repro/internal/transport"
)

// Ring all-reduce: the tensor is split into P segments; segment s is
// reduced along the chain s → s+1 → … → s−1 (mod P), each hop adding
// its own scaled update to the received partial sum, and the final
// value travels the same ring back (all-gather). Every worker sends
// exactly 2(P−1) frames of E/P values — the bandwidth-optimal, perfectly
// balanced collective — and every replica applies the identical fold
// (rank order s, s+1, …, s−1 per segment), so replicas stay
// bit-identical.
//
// The protocol is asynchronous: chains for different segments (and
// different in-flight iterations, under SSP staleness) interleave
// freely. The only ordering the state machine needs is per-chain
// causality, which the wire gives for free — a segment's gather cannot
// exist before its reduce chain passed every worker. A reduce hop that
// arrives before this worker's own Launch of that iteration is parked
// (at most P−1 per round) and replayed when the local addend appears.
//
// Locking: mu guards the round table and the fold scratch; stageMu
// nests inside it for the staged-replica writes. Encoding into leased
// payloads happens under mu (the scratch is reused immediately after),
// but sends are flushed only after mu is released — holding a lock the
// receive path needs across a potentially blocking Send would deadlock
// two mutually backpressured workers.

// ringOut is one prepared ring frame awaiting dispatch: the payload is
// already encoded into its lease, so flushing after the lock drop is a
// pure send.
type ringOut struct {
	msg  transport.Message
	to   int
	lane int
}

// ringRound is the per-iteration state of one ring all-reduce. Rounds
// recycle through a free list, so steady state allocates nothing.
type ringRound struct {
	update   *tensor.Matrix // router update-ring slot; valid until the clock advances
	launched bool
	applied  int // segments applied to the staged replica (done at P)
	// pend parks pre-launch reduce chains per segment; pendSet
	// disambiguates a parked zero-length segment from no parking.
	pend    [][]float32
	pendSet []bool
}

type ringSyncer struct {
	r     *Router
	plan  ParamPlan
	n, id int
	elems int

	mu     sync.Mutex
	rounds map[int]*ringRound
	free   []*ringRound

	// recvScratch is the receive goroutine's decode target;
	// chainScratch holds one fold result under mu (it is encoded into a
	// leased payload before mu is released, so one buffer serves both
	// goroutines). outLaunch/outHandle are per-goroutine flush queues.
	recvScratch  []float32
	chainScratch []float32
	outLaunch    []ringOut
	outHandle    []ringOut
}

func newRingSyncer(r *Router, plan ParamPlan) *ringSyncer {
	return &ringSyncer{
		r:      r,
		plan:   plan,
		n:      r.n,
		id:     r.id,
		elems:  plan.Rows * plan.Cols,
		rounds: make(map[int]*ringRound),
	}
}

// segRange returns segment seg's slice of the flattened tensor: the
// first elems%n segments absorb the remainder, so coverage is exact.
func segRange(seg, elems, n int) (off, ln int) {
	base, rem := elems/n, elems%n
	off = seg*base + min(seg, rem)
	ln = base
	if seg < rem {
		ln++
	}
	return off, ln
}

// round returns (creating if needed) the state for one iteration.
// Caller holds mu.
func (s *ringSyncer) round(iter int) *ringRound {
	rd := s.rounds[iter]
	if rd == nil {
		if k := len(s.free); k > 0 {
			rd, s.free = s.free[k-1], s.free[:k-1]
		} else {
			rd = &ringRound{pend: make([][]float32, s.n), pendSet: make([]bool, s.n)}
		}
		s.rounds[iter] = rd
	}
	return rd
}

// recycleLocked retires a completed round to the free list.
func (s *ringSyncer) recycleLocked(iter int, rd *ringRound) {
	delete(s.rounds, iter)
	rd.update = nil
	rd.launched = false
	rd.applied = 0
	s.free = append(s.free, rd)
}

// prepare encodes one segment into a leased payload and queues it for
// the in-ring successor. Caller holds mu; the queued lease is consumed
// by dispatchSend at flush time.
func (s *ringSyncer) prepare(out *[]ringOut, typ transport.MsgType, iter, seg, lane int, vals []float32) {
	ref := transport.LeasePayload(tensor.Float32sWireBytes(len(vals)))
	ref.SetBytes(tensor.AppendFloat32s(ref.Bytes(), vals))
	msg := transport.Message{
		Type:    typ,
		Layer:   int32(s.plan.Index),
		Chunk:   int32(seg),
		Iter:    int32(iter),
		Payload: ref.Bytes(),
	}
	msg.AttachLease(ref)
	*out = append(*out, ringOut{msg: msg, to: (s.id + 1) % s.n, lane: lane})
}

// flush dispatches the queued frames (mu released) and resets the queue.
func (s *ringSyncer) flush(out []ringOut) []ringOut {
	for i := range out {
		s.r.dispatchSend(stripeFor(s.plan.Index, out[i].lane), out[i].to, out[i].msg)
	}
	return out[:0]
}

// chainStep folds this worker's addend into an arriving reduce chain
// for seg and either forwards the partial sum or — as the segment's
// final reducer — applies it and starts the gather. Caller holds mu and
// guarantees rd.launched.
func (s *ringSyncer) chainStep(rd *ringRound, out *[]ringOut, iter, seg int, vals []float32) error {
	off, ln := segRange(seg, s.elems, s.n)
	if len(vals) != ln {
		return fmt.Errorf("comm: param %d ring segment %d: %d values, want %d", s.plan.Index, seg, len(vals), ln)
	}
	own := rd.update.Data[off : off+ln]
	if cap(s.chainScratch) < ln {
		s.chainScratch = make([]float32, ln)
	}
	sum := s.chainScratch[:ln]
	for j, v := range vals {
		sum[j] = v + own[j]
	}
	if s.id == (seg-1+s.n)%s.n {
		// Final reducer: sum folds all P updates in rank order seg,
		// seg+1, …, seg−1. Apply and redistribute.
		s.applySegmentLocked(seg, sum)
		rd.applied++
		s.prepare(out, transport.MsgRingGather, iter, seg, s.n+seg, sum)
	} else {
		s.prepare(out, transport.MsgRingReduce, iter, seg, seg, sum)
	}
	return nil
}

// applySegmentLocked adds a fully-reduced segment to the staged replica.
// Caller holds mu; stageMu nests inside.
func (s *ringSyncer) applySegmentLocked(seg int, vals []float32) {
	off, _ := segRange(seg, s.elems, s.n)
	s.r.stageMu.Lock()
	st := s.r.staged[s.plan.Index].Data[off : off+len(vals)]
	for j, v := range vals {
		st[j] += v
	}
	s.r.stageMu.Unlock()
}

// Launch starts this worker's chain (its own segment, un-folded) and
// replays any reduce hops that outran the launch. update is borrowed
// from the router's update ring; every read of it happens before this
// round's clock advance, per the Syncer contract.
func (s *ringSyncer) Launch(iter int, update *tensor.Matrix) error {
	if s.n == 1 {
		s.r.stageMu.Lock()
		s.r.staged[s.plan.Index].Add(update)
		s.r.stageMu.Unlock()
		s.r.clock.Advance(s.plan.Index, iter)
		return nil
	}
	s.mu.Lock()
	rd := s.round(iter)
	rd.update = update
	rd.launched = true
	off, ln := segRange(s.id, s.elems, s.n)
	s.prepare(&s.outLaunch, transport.MsgRingReduce, iter, s.id, s.id, update.Data[off:off+ln])
	var err error
	for seg := 0; seg < s.n && err == nil; seg++ {
		if rd.pendSet[seg] {
			rd.pendSet[seg] = false
			err = s.chainStep(rd, &s.outLaunch, iter, seg, rd.pend[seg])
		}
	}
	done := err == nil && rd.applied == s.n
	if done {
		s.recycleLocked(iter, rd)
	}
	s.mu.Unlock()
	s.outLaunch = s.flush(s.outLaunch)
	if done {
		s.r.clock.Advance(s.plan.Index, iter)
	}
	return err
}

// Handle drives the two wire phases. Reduce hops arriving before the
// local launch are parked; gathers can never precede it (a gather
// exists only after the chain passed every worker, this one included).
func (s *ringSyncer) Handle(msg transport.Message) error {
	seg := int(msg.Chunk)
	if seg < 0 || seg >= s.n {
		return fmt.Errorf("comm: param %d: bad ring segment %d", s.plan.Index, seg)
	}
	vals, _, err := tensor.DecodeFloat32sInto(s.recvScratch, msg.Payload)
	if err != nil {
		return err
	}
	s.recvScratch = vals
	iter := int(msg.Iter)
	switch msg.Type {
	case transport.MsgRingReduce:
		s.mu.Lock()
		rd := s.round(iter)
		if !rd.launched {
			rd.pend[seg] = append(rd.pend[seg][:0], vals...)
			rd.pendSet[seg] = true
			s.mu.Unlock()
			return nil
		}
		err := s.chainStep(rd, &s.outHandle, iter, seg, vals)
		done := err == nil && rd.applied == s.n
		if done {
			s.recycleLocked(iter, rd)
		}
		s.mu.Unlock()
		s.outHandle = s.flush(s.outHandle)
		if done {
			s.r.clock.Advance(s.plan.Index, iter)
		}
		return err
	case transport.MsgRingGather:
		_, ln := segRange(seg, s.elems, s.n)
		if len(vals) != ln {
			return fmt.Errorf("comm: param %d ring segment %d: gather %d values, want %d", s.plan.Index, seg, len(vals), ln)
		}
		s.mu.Lock()
		rd := s.round(iter)
		s.applySegmentLocked(seg, vals)
		rd.applied++
		// Forward along the ring unless the successor is the segment's
		// final reducer, which already applied its own fold.
		if (s.id+1)%s.n != (seg-1+s.n)%s.n {
			s.prepare(&s.outHandle, transport.MsgRingGather, iter, seg, s.n+seg, vals)
		}
		done := rd.applied == s.n
		if done {
			s.recycleLocked(iter, rd)
		}
		s.mu.Unlock()
		s.outHandle = s.flush(s.outHandle)
		if done {
			s.r.clock.Advance(s.plan.Index, iter)
		}
		return nil
	default:
		return fmt.Errorf("comm: param %d: unexpected message type %d on ring route", s.plan.Index, msg.Type)
	}
}

// Close has nothing to release: a planned barrier drained every
// round, so no chain, parked frame, or partial sum survives, and the
// staged replica already carries the authoritative value the successor
// route re-seeds from.
func (s *ringSyncer) Close() {}

// ---- Tree/ring hierarchy ---------------------------------------------------

// treeRingSyncer composes intra-group rings with an inter-group leader
// chain — the two-level collective for oversubscribed topologies where
// a flat ring would cross the slow inter-group fabric P times. Workers
// are partitioned into m = ⌈P/g⌉ consecutive-id groups of capacity
// g = ⌈√P⌉, and the tensor into G = g global segments:
//
//	phase 1: each group chain-reduces every segment (rank order within
//	         the group), landing segment k's group sum at that group's
//	         leader for k;
//	phase 2: leaders chain-reduce group sums in group order 0 → m−1,
//	         then the global value travels the leader chain back;
//	phase 3: each leader redistributes along its intra-group ring.
//
// Frames per worker: 2(g−1) intra plus 2(m−1) on the leader chain —
// the 2(√P)-ish depth that beats the flat ring's 2(P−1) when the
// inter-group fabric is the bottleneck. The fold is deterministic at
// every level, so replicas stay bit-identical.
//
// The inter-group phase rides the same two message types with a phase
// bit folded into Chunk.
const treeInterBit = 1 << 20

// treeRound extends the ring round with the leader-side state: a group
// sum waiting for the inter-group chain, and an inter-group partial
// that arrived before the local group finished reducing.
type treeRound struct {
	update       *tensor.Matrix
	launched     bool
	applied      int // segments applied (done at G)
	pendIntra    [][]float32
	pendIntraSet []bool
	pendInter    [][]float32
	pendInterSet []bool
	groupSum     [][]float32
	groupSumSet  []bool
}

type treeRingSyncer struct {
	r     *Router
	plan  ParamPlan
	n, id int
	elems int
	gsize int // g: group capacity == number of global segments
	gcnt  int // m: number of groups
	gi    int // this worker's group
	base  int // first dense id in the group
	sz    int // live members in the group (tail group may be short)
	ri    int // in-group index

	mu     sync.Mutex
	rounds map[int]*treeRound
	free   []*treeRound

	recvScratch  []float32
	chainScratch []float32
	outLaunch    []ringOut
	outHandle    []ringOut
}

// treeShape returns the group capacity g = ⌈√n⌉ and group count
// m = ⌈n/g⌉ for an n-worker tree/ring.
func treeShape(n int) (g, m int) {
	g = 1
	for g*g < n {
		g++
	}
	return g, (n + g - 1) / g
}

func newTreeRingSyncer(r *Router, plan ParamPlan) *treeRingSyncer {
	g, m := treeShape(r.n)
	s := &treeRingSyncer{
		r:      r,
		plan:   plan,
		n:      r.n,
		id:     r.id,
		elems:  plan.Rows * plan.Cols,
		gsize:  g,
		gcnt:   m,
		rounds: make(map[int]*treeRound),
	}
	s.gi = s.id / g
	s.base = s.gi * g
	s.sz = min(g, s.n-s.base)
	s.ri = s.id - s.base
	return s
}

// groupSize returns the member count of group gj.
func (s *treeRingSyncer) groupSize(gj int) int {
	return min(s.gsize, s.n-gj*s.gsize)
}

// leaderOf returns the dense id holding segment k's group sum in group
// gj: the final reducer of the intra-group chain that starts at member
// k mod size.
func (s *treeRingSyncer) leaderOf(gj, k int) int {
	sz := s.groupSize(gj)
	return gj*s.gsize + (k%sz+sz-1)%sz
}

func (s *treeRingSyncer) round(iter int) *treeRound {
	rd := s.rounds[iter]
	if rd == nil {
		if k := len(s.free); k > 0 {
			rd, s.free = s.free[k-1], s.free[:k-1]
		} else {
			g := s.gsize
			rd = &treeRound{
				pendIntra: make([][]float32, g), pendIntraSet: make([]bool, g),
				pendInter: make([][]float32, g), pendInterSet: make([]bool, g),
				groupSum: make([][]float32, g), groupSumSet: make([]bool, g),
			}
		}
		s.rounds[iter] = rd
	}
	return rd
}

func (s *treeRingSyncer) recycleLocked(iter int, rd *treeRound) {
	delete(s.rounds, iter)
	rd.update = nil
	rd.launched = false
	rd.applied = 0
	s.free = append(s.free, rd)
}

func (s *treeRingSyncer) prepare(out *[]ringOut, typ transport.MsgType, iter, chunk, lane, to int, vals []float32) {
	ref := transport.LeasePayload(tensor.Float32sWireBytes(len(vals)))
	ref.SetBytes(tensor.AppendFloat32s(ref.Bytes(), vals))
	msg := transport.Message{
		Type:    typ,
		Layer:   int32(s.plan.Index),
		Chunk:   int32(chunk),
		Iter:    int32(iter),
		Payload: ref.Bytes(),
	}
	msg.AttachLease(ref)
	*out = append(*out, ringOut{msg: msg, to: to, lane: lane})
}

func (s *treeRingSyncer) flush(out []ringOut) []ringOut {
	for i := range out {
		s.r.dispatchSend(stripeFor(s.plan.Index, out[i].lane), out[i].to, out[i].msg)
	}
	return out[:0]
}

// intraSucc returns the next member on this group's ring.
func (s *treeRingSyncer) intraSucc() int { return s.base + (s.ri+1)%s.sz }

// applySegmentLocked adds a globally-reduced segment to the staged replica.
func (s *treeRingSyncer) applySegmentLocked(seg int, vals []float32) {
	off, _ := segRange(seg, s.elems, s.gsize)
	s.r.stageMu.Lock()
	st := s.r.staged[s.plan.Index].Data[off : off+len(vals)]
	for j, v := range vals {
		st[j] += v
	}
	s.r.stageMu.Unlock()
}

// globalFinal installs segment k's fully-reduced value at a leader and
// starts its intra-group redistribution.
func (s *treeRingSyncer) globalFinal(rd *treeRound, out *[]ringOut, iter, k int, vals []float32) {
	s.applySegmentLocked(k, vals)
	rd.applied++
	if s.sz > 1 {
		s.prepare(out, transport.MsgRingGather, iter, k, s.gsize+k, s.intraSucc(), vals)
	}
}

// interStep advances the inter-group chain with this group's folded
// contribution: forward to the next group's leader, or — at the last
// group — finalize globally and start the leader-chain gather.
func (s *treeRingSyncer) interStep(rd *treeRound, out *[]ringOut, iter, k int, vals []float32) {
	if s.gi == s.gcnt-1 {
		s.globalFinal(rd, out, iter, k, vals)
		s.prepare(out, transport.MsgRingGather, iter, k+treeInterBit, 3*s.gsize+k, s.leaderOf(s.gi-1, k), vals)
		return
	}
	s.prepare(out, transport.MsgRingReduce, iter, k+treeInterBit, 2*s.gsize+k, s.leaderOf(s.gi+1, k), vals)
}

// intraFinalize runs when this worker — segment k's group leader —
// holds the complete group sum: enter the inter-group chain (or, with
// a single group, finalize directly). A parked inter-group partial is
// folded in now; otherwise the group sum waits for it.
func (s *treeRingSyncer) intraFinalize(rd *treeRound, out *[]ringOut, iter, k int, sum []float32) {
	if s.gcnt == 1 {
		s.globalFinal(rd, out, iter, k, sum)
		return
	}
	if s.gi == 0 {
		s.prepare(out, transport.MsgRingReduce, iter, k+treeInterBit, 2*s.gsize+k, s.leaderOf(1, k), sum)
		return
	}
	if rd.pendInterSet[k] {
		rd.pendInterSet[k] = false
		pend := rd.pendInter[k]
		for j := range sum {
			sum[j] = pend[j] + sum[j]
		}
		s.interStep(rd, out, iter, k, sum)
		return
	}
	rd.groupSum[k] = append(rd.groupSum[k][:0], sum...)
	rd.groupSumSet[k] = true
}

// chainStepIntra folds this worker's addend into an arriving
// intra-group reduce chain for segment k. Caller holds mu and
// guarantees rd.launched.
func (s *treeRingSyncer) chainStepIntra(rd *treeRound, out *[]ringOut, iter, k int, vals []float32) error {
	off, ln := segRange(k, s.elems, s.gsize)
	if len(vals) != ln {
		return fmt.Errorf("comm: param %d treering segment %d: %d values, want %d", s.plan.Index, k, len(vals), ln)
	}
	own := rd.update.Data[off : off+ln]
	if cap(s.chainScratch) < ln {
		s.chainScratch = make([]float32, ln)
	}
	sum := s.chainScratch[:ln]
	for j, v := range vals {
		sum[j] = v + own[j]
	}
	if s.ri == (k%s.sz+s.sz-1)%s.sz {
		s.intraFinalize(rd, out, iter, k, sum)
	} else {
		s.prepare(out, transport.MsgRingReduce, iter, k, k, s.intraSucc(), sum)
	}
	return nil
}

// Launch starts the intra-group chains this worker owns (segments k
// with k ≡ ri mod size; a singleton group finalizes them immediately)
// and replays parked intra hops.
func (s *treeRingSyncer) Launch(iter int, update *tensor.Matrix) error {
	if s.n == 1 {
		s.r.stageMu.Lock()
		s.r.staged[s.plan.Index].Add(update)
		s.r.stageMu.Unlock()
		s.r.clock.Advance(s.plan.Index, iter)
		return nil
	}
	s.mu.Lock()
	rd := s.round(iter)
	rd.update = update
	rd.launched = true
	var err error
	for k := 0; k < s.gsize; k++ {
		if k%s.sz != s.ri {
			continue
		}
		off, ln := segRange(k, s.elems, s.gsize)
		own := update.Data[off : off+ln]
		if s.sz == 1 {
			if cap(s.chainScratch) < ln {
				s.chainScratch = make([]float32, ln)
			}
			sum := s.chainScratch[:ln]
			copy(sum, own)
			s.intraFinalize(rd, &s.outLaunch, iter, k, sum)
		} else {
			s.prepare(&s.outLaunch, transport.MsgRingReduce, iter, k, k, s.intraSucc(), own)
		}
	}
	for k := 0; k < s.gsize && err == nil; k++ {
		if rd.pendIntraSet[k] {
			rd.pendIntraSet[k] = false
			err = s.chainStepIntra(rd, &s.outLaunch, iter, k, rd.pendIntra[k])
		}
	}
	done := err == nil && rd.applied == s.gsize
	if done {
		s.recycleLocked(iter, rd)
	}
	s.mu.Unlock()
	s.outLaunch = s.flush(s.outLaunch)
	if done {
		s.r.clock.Advance(s.plan.Index, iter)
	}
	return err
}

// Handle drives all four wire phases: intra reduce (parked pre-launch),
// inter-group reduce at leaders (parked until the group sum is ready),
// inter-group gather along the leader chain, and intra-group gather.
func (s *treeRingSyncer) Handle(msg transport.Message) error {
	chunk := int(msg.Chunk)
	inter := chunk >= treeInterBit
	k := chunk
	if inter {
		k -= treeInterBit
	}
	if k < 0 || k >= s.gsize {
		return fmt.Errorf("comm: param %d: bad treering segment %d", s.plan.Index, chunk)
	}
	vals, _, err := tensor.DecodeFloat32sInto(s.recvScratch, msg.Payload)
	if err != nil {
		return err
	}
	s.recvScratch = vals
	_, ln := segRange(k, s.elems, s.gsize)
	if len(vals) != ln {
		return fmt.Errorf("comm: param %d treering segment %d: %d values, want %d", s.plan.Index, k, len(vals), ln)
	}
	iter := int(msg.Iter)
	if inter && s.id != s.leaderOf(s.gi, k) {
		return fmt.Errorf("comm: param %d: inter-group frame for segment %d at non-leader %d", s.plan.Index, k, s.id)
	}
	switch {
	case msg.Type == transport.MsgRingReduce && !inter:
		s.mu.Lock()
		rd := s.round(iter)
		if !rd.launched {
			rd.pendIntra[k] = append(rd.pendIntra[k][:0], vals...)
			rd.pendIntraSet[k] = true
			s.mu.Unlock()
			return nil
		}
		err := s.chainStepIntra(rd, &s.outHandle, iter, k, vals)
		s.finishHandle(iter, rd, err)
		return err
	case msg.Type == transport.MsgRingReduce && inter:
		s.mu.Lock()
		rd := s.round(iter)
		if !rd.groupSumSet[k] {
			// The previous groups outran this one; park their partial
			// until the local group sum lands.
			rd.pendInter[k] = append(rd.pendInter[k][:0], vals...)
			rd.pendInterSet[k] = true
			s.mu.Unlock()
			return nil
		}
		rd.groupSumSet[k] = false
		if cap(s.chainScratch) < ln {
			s.chainScratch = make([]float32, ln)
		}
		sum := s.chainScratch[:ln]
		gs := rd.groupSum[k]
		for j, v := range vals {
			sum[j] = v + gs[j]
		}
		s.interStep(rd, &s.outHandle, iter, k, sum)
		s.finishHandle(iter, rd, nil)
		return nil
	case msg.Type == transport.MsgRingGather && inter:
		s.mu.Lock()
		rd := s.round(iter)
		s.globalFinal(rd, &s.outHandle, iter, k, vals)
		if s.gi > 0 {
			s.prepare(&s.outHandle, transport.MsgRingGather, iter, k+treeInterBit, 3*s.gsize+k, s.leaderOf(s.gi-1, k), vals)
		}
		s.finishHandle(iter, rd, nil)
		return nil
	case msg.Type == transport.MsgRingGather && !inter:
		s.mu.Lock()
		rd := s.round(iter)
		s.applySegmentLocked(k, vals)
		rd.applied++
		// Forward within the group unless the successor is the leader
		// that originated this gather.
		if (s.ri+1)%s.sz != (k%s.sz+s.sz-1)%s.sz {
			s.prepare(&s.outHandle, transport.MsgRingGather, iter, k, s.gsize+k, s.intraSucc(), vals)
		}
		s.finishHandle(iter, rd, nil)
		return nil
	default:
		return fmt.Errorf("comm: param %d: unexpected message type %d on treering route", s.plan.Index, msg.Type)
	}
}

// finishHandle completes a Handle arm: recycle on round completion,
// release mu, flush prepared frames, advance the clock. Caller holds mu.
func (s *treeRingSyncer) finishHandle(iter int, rd *treeRound, err error) {
	done := err == nil && rd.applied == s.gsize
	if done {
		s.recycleLocked(iter, rd)
	}
	s.mu.Unlock()
	s.outHandle = s.flush(s.outHandle)
	if done {
		s.r.clock.Advance(s.plan.Index, iter)
	}
}

// Close mirrors ringSyncer.Close: the barrier drained everything.
func (s *treeRingSyncer) Close() {}
