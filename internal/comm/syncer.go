package comm

import (
	"fmt"

	"repro/internal/sfb"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// The syncers below are allocation-flat in steady state: outbound
// payloads are leased from the transport's reference-counted pool
// (dispatched send tasks hold their own references and release after
// the write), inbound payloads are decoded into per-syncer scratch that
// is reused across messages, and round state (KV contributions, SF
// factor sets) recycles through the shard's and aggregator's own free
// lists. Handle never retains msg.Payload — the router releases the
// frame's pooled lease as soon as Handle returns.
//
// Scratch discipline: fields named *Scratch and the decode/dequantize
// buffers are owned by the router's receive goroutine (Handle and
// everything it calls); Launch-side scratch (quantizers, batch slices)
// is owned by the compute goroutine or serialized by the send pool's
// per-stripe FIFO.

// stripeFor maps a (parameter, lane) pair onto a send-pool stripe. All
// traffic for one chunk travels on one stripe (FIFO per link); distinct
// chunks, servers, and broadcast destinations spread across stripes so
// their wire time overlaps.
func stripeFor(index, lane int) uint32 { return uint32(index*131 + lane*31) }

// ---- Parameter-server syncer ----------------------------------------------

// psSyncer runs the KV-store protocol for one dense parameter: the
// scaled update is split into chunks, each pushed to its owning shard;
// the shard folds a round when all workers reported and broadcasts the
// fresh chunk; the worker copies broadcast chunks into the staged
// replica and advances the clock when the last chunk of an iteration
// lands.
type psSyncer struct {
	r      *Router
	plan   ParamPlan
	chunks []chunkSpec
	// groups lists (server, chunk indices) in ascending server order so
	// one Launch emits one batched send per server, deterministically.
	groups []*serverGroup
	// got counts broadcast chunks received per iteration (guarded by
	// the router's stage mutex — broadcast handling already holds it).
	got map[int]int
	// fresh is server-side scratch for completed rounds; pushScratch
	// and bcastScratch are decode scratch. All three are touched only by
	// the receive goroutine.
	fresh        []float32
	pushScratch  []float32
	bcastScratch []float32
}

type serverGroup struct {
	server int
	cs     []int
	// msgs is the reusable batch-send scratch. Launch tasks for one
	// group share a stripe and therefore run FIFO, so the slice is
	// never touched by two iterations at once.
	msgs []transport.Message
}

func newPSSyncer(r *Router, plan ParamPlan) *psSyncer {
	s := &psSyncer{
		r:      r,
		plan:   plan,
		chunks: splitChunks(plan.Index, plan.Rows*plan.Cols, r.chunkElems, r.n),
		got:    make(map[int]int),
	}
	for server := 0; server < r.n; server++ {
		var cs []int
		for c, spec := range s.chunks {
			if spec.server == server {
				cs = append(cs, c)
			}
		}
		if len(cs) > 0 {
			s.groups = append(s.groups, &serverGroup{
				server: server,
				cs:     cs,
				msgs:   make([]transport.Message, 0, len(cs)),
			})
		}
	}
	return s
}

// initShard seeds the local shard with the chunks it owns.
func (s *psSyncer) initShard(initial *tensor.Matrix) {
	for _, spec := range s.chunks {
		if spec.server == s.r.id {
			s.r.shard.Init(spec.key, initial.Data[spec.off:spec.off+spec.n])
		}
	}
}

// Launch pushes every chunk of the scaled update to its shard, one
// batched send per server. Encoding happens inside the dispatched task,
// so with overlap enabled the compute goroutine moves on to the next
// layer while this one is still being serialized; update stays valid
// until the task runs (the router's update ring guarantees it).
func (s *psSyncer) Launch(iter int, update *tensor.Matrix) error {
	for _, g := range s.groups {
		g := g
		s.r.dispatch(stripeFor(s.plan.Index, g.server), func() error {
			msgs := g.msgs[:0]
			for _, c := range g.cs {
				spec := s.chunks[c]
				ref := transport.LeasePayload(tensor.Float32sWireBytes(spec.n))
				ref.SetBytes(tensor.AppendFloat32s(ref.Bytes(), update.Data[spec.off:spec.off+spec.n]))
				msg := transport.Message{
					Type:    transport.MsgPush,
					Layer:   int32(s.plan.Index),
					Chunk:   int32(c),
					Iter:    int32(iter),
					Payload: ref.Bytes(),
				}
				msg.AttachLease(ref)
				msgs = append(msgs, msg)
			}
			g.msgs = msgs
			err := s.r.mesh.SendBatch(g.server, msgs)
			for i := range msgs {
				msgs[i].ReleasePayload()
			}
			return err
		})
	}
	return nil
}

// Close removes the chunks this node's shard owned for the parameter —
// the successor route re-seeds whatever server state it needs from the
// staged replica. A planned barrier drained every round first, so no
// pending contribution is dropped; a membership barrier replaces the
// whole shard anyway.
func (s *psSyncer) Close() {
	for _, spec := range s.chunks {
		if spec.server == s.r.id {
			s.r.shard.Remove(spec.key)
		}
	}
}

// Handle covers both roles: MsgPush at the owning shard, MsgBcast at
// every worker.
func (s *psSyncer) Handle(msg transport.Message) error {
	c := int(msg.Chunk)
	if c < 0 || c >= len(s.chunks) {
		return fmt.Errorf("comm: param %d: bad chunk %d", s.plan.Index, c)
	}
	spec := s.chunks[c]
	switch msg.Type {
	case transport.MsgPush:
		vals, _, err := tensor.DecodeFloat32sInto(s.pushScratch, msg.Payload)
		if err != nil {
			return err
		}
		s.pushScratch = vals
		return s.serverPush(c, int(msg.Iter), int(msg.From), vals)
	case transport.MsgBcast:
		vals, _, err := tensor.DecodeFloat32sInto(s.bcastScratch, msg.Payload)
		if err != nil {
			return err
		}
		s.bcastScratch = vals
		if len(vals) != spec.n {
			return fmt.Errorf("comm: param %d chunk %d: bcast len %d != %d", s.plan.Index, c, len(vals), spec.n)
		}
		iter := int(msg.Iter)
		s.r.stageMu.Lock()
		copy(s.r.staged[s.plan.Index].Data[spec.off:spec.off+spec.n], vals)
		s.got[iter]++
		done := s.got[iter] == len(s.chunks)
		if done {
			delete(s.got, iter)
		}
		s.r.stageMu.Unlock()
		if done {
			s.r.clock.Advance(s.plan.Index, iter)
		}
		return nil
	default:
		return fmt.Errorf("comm: param %d: unexpected message type %d on PS route", s.plan.Index, msg.Type)
	}
}

// serverPush feeds one chunk update into the local shard (which copies
// it, so the decode scratch is immediately reusable); on round
// completion the fresh chunk is encoded once into a leased payload and
// broadcast to every node (including self, via loopback), each
// dispatched send holding its own reference.
func (s *psSyncer) serverPush(c, iter, from int, vals []float32) error {
	spec := s.chunks[c]
	fresh, ready, err := s.r.shard.PushRoundInto(spec.key, iter, from, vals, s.fresh[:0])
	s.fresh = fresh
	if err != nil || !ready {
		return err
	}
	ref := transport.LeasePayload(tensor.Float32sWireBytes(len(fresh)))
	ref.SetBytes(tensor.AppendFloat32s(ref.Bytes(), fresh))
	msg := transport.Message{
		Type:    transport.MsgBcast,
		Layer:   int32(s.plan.Index),
		Chunk:   int32(c),
		Iter:    int32(iter),
		Payload: ref.Bytes(),
	}
	msg.AttachLease(ref)
	for p := 0; p < s.r.n; p++ {
		ref.Retain()
		s.r.dispatchSend(stripeFor(s.plan.Index, len(s.chunks)+c*s.r.n+p), p, msg)
	}
	ref.Release()
	return nil
}

// ---- Sufficient-factor syncer ----------------------------------------------

// sfbSyncer broadcasts rank-K sufficient factors peer-to-peer; each
// node reconstructs the summed dense gradient locally once all P
// contributions (one local, P−1 remote) have arrived.
type sfbSyncer struct {
	r    *Router
	plan ParamPlan
	agg  *sfb.Aggregator
	// sfScratch is the receive goroutine's decode target; the
	// aggregator copies offered factors, so it is reusable per message.
	sfScratch tensor.SufficientFactor
	// reconLocal/reconRemote are per-goroutine reconstruction targets:
	// a round can complete either on the compute goroutine (local
	// offer) or the receive goroutine (remote factor), and the two must
	// not share a buffer.
	reconLocal  tensor.Matrix
	reconRemote tensor.Matrix
}

func newSFBSyncer(r *Router, plan ParamPlan, bank *sfb.Bank) (*sfbSyncer, error) {
	if plan.SF == nil {
		return nil, fmt.Errorf("comm: param %d: RouteSFB needs an SF extractor", plan.Index)
	}
	return &sfbSyncer{
		r:         r,
		plan:      plan,
		agg:       bank.Ensure(plan.Index, r.n, plan.Rows, plan.Cols),
		sfScratch: tensor.SufficientFactor{U: new(tensor.Matrix), V: new(tensor.Matrix)},
	}, nil
}

// Launch extracts the factor, folds the −LR/P scaling into U so
// reconstructions are additive, encodes once into a leased payload
// fanned out to all peers, and offers the local copy (the aggregator
// copies it, so factors referencing live layer buffers are fine).
func (s *sfbSyncer) Launch(iter int, _ *tensor.Matrix) error {
	sf := s.plan.SF()
	sf.U.Scale(s.r.scale)
	ref := transport.LeasePayload(tensor.MatrixWireBytes(sf.U.Rows, sf.U.Cols) +
		tensor.MatrixWireBytes(sf.V.Rows, sf.V.Cols))
	ref.SetBytes(tensor.AppendSF(ref.Bytes(), sf))
	msg := transport.Message{
		Type:    transport.MsgSF,
		Layer:   int32(s.plan.Index),
		Iter:    int32(iter),
		Payload: ref.Bytes(),
	}
	msg.AttachLease(ref)
	for p := 0; p < s.r.n; p++ {
		if p == s.r.id {
			continue
		}
		ref.Retain()
		s.r.dispatchSend(stripeFor(s.plan.Index, p), p, msg)
	}
	ref.Release()
	return s.offer(int64(iter), s.r.id, sf, &s.reconLocal)
}

// Close drops the parameter's aggregator from the bank; the reroute
// barrier guarantees no partial factor set is in flight.
func (s *sfbSyncer) Close() {
	s.r.bank.Remove(s.plan.Index)
}

// Handle decodes a peer's factor into scratch and offers it to the
// aggregator.
func (s *sfbSyncer) Handle(msg transport.Message) error {
	if msg.Type != transport.MsgSF {
		return fmt.Errorf("comm: param %d: unexpected message type %d on SFB route", s.plan.Index, msg.Type)
	}
	if _, err := tensor.DecodeSFInto(&s.sfScratch, msg.Payload); err != nil {
		return err
	}
	return s.offer(int64(msg.Iter), int(msg.From), &s.sfScratch, &s.reconRemote)
}

// offer adds a worker's factor; on completion the summed gradient
// (reconstructed in worker-id order, deterministically, into the
// caller's per-goroutine scratch) lands in the staged replica and the
// clock advances.
func (s *sfbSyncer) offer(iter int64, from int, sf *tensor.SufficientFactor, recon *tensor.Matrix) error {
	done, err := s.agg.OfferInto(iter, from, sf, recon)
	if err != nil || !done {
		return err
	}
	s.r.stageMu.Lock()
	s.r.staged[s.plan.Index].Add(recon)
	s.r.stageMu.Unlock()
	s.r.clock.Advance(s.plan.Index, int(iter))
	return nil
}

// ---- 1-bit syncer -----------------------------------------------------------

// oneBitSyncer implements the CNTK baseline: pushes are 1-bit quantized
// with residual feedback, and the owning shard's broadcasts are
// quantized a second time against the replica view the workers hold
// (double-sided quantization), with the server carrying that residual.
type oneBitSyncer struct {
	r      *Router
	plan   ParamPlan
	key    string
	server int
	push   *tensor.OneBitQuantizer
	pushQ  tensor.QuantizedGrad // Launch-side quantize scratch (compute goroutine)
	// Receive-goroutine scratch (worker and server roles).
	recvQ tensor.QuantizedGrad
	dense tensor.Matrix
	// Server-side state (zero elsewhere).
	bcast    *tensor.OneBitQuantizer
	view     []float32
	fresh    []float32
	delta    []float32
	deltaMat tensor.Matrix // persistent wrapper over delta
	bcastQ   tensor.QuantizedGrad
}

func newOneBitSyncer(r *Router, plan ParamPlan, initial *tensor.Matrix) *oneBitSyncer {
	s := &oneBitSyncer{
		r:      r,
		plan:   plan,
		key:    chunkKey(plan.Index, 0),
		server: plan.Index % r.n,
		push:   tensor.NewOneBitQuantizer(plan.Rows, plan.Cols),
	}
	if s.server == r.id {
		s.bcast = tensor.NewOneBitQuantizer(plan.Rows, plan.Cols)
		s.view = make([]float32, len(initial.Data))
		copy(s.view, initial.Data)
		r.shard.Init(s.key, initial.Data)
	}
	return s
}

// leaseQuantized encodes q into a pooled payload and returns the lease.
func leaseQuantized(q *tensor.QuantizedGrad) *transport.PayloadRef {
	ref := transport.LeasePayload(16 + 8*len(q.Bits))
	ref.SetBytes(tensor.AppendQuantized(ref.Bytes(), q))
	return ref
}

// Launch quantizes the scaled update (mutating the local residual, so
// this must stay on the compute goroutine) and ships the compact
// encoding; only the send itself is dispatched, holding the payload
// lease until the write completes.
func (s *oneBitSyncer) Launch(iter int, update *tensor.Matrix) error {
	q := s.push.QuantizeInto(&s.pushQ, update)
	ref := leaseQuantized(q)
	msg := transport.Message{
		Type:    transport.MsgQuantPush,
		Layer:   int32(s.plan.Index),
		Iter:    int32(iter),
		Payload: ref.Bytes(),
	}
	msg.AttachLease(ref)
	s.r.dispatchSend(stripeFor(s.plan.Index, s.server), s.server, msg)
	return nil
}

// Close removes the server-role KV pair. The quantizer residuals die
// with the syncer: every node drops them at the same barrier, so
// replicas stay in lockstep (a successor 1-bit syncer would restart
// with zero residual everywhere).
func (s *oneBitSyncer) Close() {
	if s.server == s.r.id {
		s.r.shard.Remove(s.key)
	}
}

// Handle covers the shard role (quantized pushes) and the worker role
// (quantized broadcast deltas). Both decode into receive-goroutine
// scratch; nothing from msg survives the call.
func (s *oneBitSyncer) Handle(msg transport.Message) error {
	switch msg.Type {
	case transport.MsgQuantPush:
		if _, err := tensor.DecodeQuantizedInto(&s.recvQ, msg.Payload); err != nil {
			return err
		}
		s.dense.Resize(s.recvQ.Rows, s.recvQ.Cols)
		s.recvQ.DequantizeInto(&s.dense)
		return s.serverPush(int(msg.Iter), int(msg.From), s.dense.Data)
	case transport.MsgQuantBcast:
		if _, err := tensor.DecodeQuantizedInto(&s.recvQ, msg.Payload); err != nil {
			return err
		}
		s.r.stageMu.Lock()
		s.recvQ.AddDequantizedInto(s.r.staged[s.plan.Index])
		s.r.stageMu.Unlock()
		s.r.clock.Advance(s.plan.Index, int(msg.Iter))
		return nil
	default:
		return fmt.Errorf("comm: param %d: unexpected message type %d on 1-bit route", s.plan.Index, msg.Type)
	}
}

func (s *oneBitSyncer) serverPush(iter, from int, vals []float32) error {
	fresh, ready, err := s.r.shard.PushRoundInto(s.key, iter, from, vals, s.fresh[:0])
	s.fresh = fresh
	if err != nil || !ready {
		return err
	}
	// Quantize the broadcast against the workers' view and advance the
	// view by what the quantization actually transmitted.
	if cap(s.delta) < len(fresh) {
		s.delta = make([]float32, len(fresh))
	}
	delta := s.delta[:len(fresh)]
	for i, v := range fresh {
		delta[i] = v - s.view[i]
	}
	s.deltaMat = tensor.Matrix{Rows: s.plan.Rows, Cols: s.plan.Cols, Data: delta}
	q := s.bcast.QuantizeInto(&s.bcastQ, &s.deltaMat)
	s.dense.Resize(s.plan.Rows, s.plan.Cols)
	q.DequantizeInto(&s.dense)
	for i := range s.view {
		s.view[i] += s.dense.Data[i]
	}
	ref := leaseQuantized(q)
	msg := transport.Message{
		Type:    transport.MsgQuantBcast,
		Layer:   int32(s.plan.Index),
		Iter:    int32(iter),
		Payload: ref.Bytes(),
	}
	msg.AttachLease(ref)
	for p := 0; p < s.r.n; p++ {
		ref.Retain()
		s.r.dispatchSend(stripeFor(s.plan.Index, 1+p), p, msg)
	}
	ref.Release()
	return nil
}
