// Package transport provides the messaging layer of the functional
// plane: a typed message format with compact manual framing, an
// in-process channel mesh for single-binary clusters, a real TCP
// mesh (full peer mesh over length-prefixed frames) for multi-process
// deployments, and a bandwidth/latency-modeling wrapper for emulating
// constrained links. All satisfy Mesh, so the trainer is
// transport-agnostic.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"
)

// MsgType tags the protocol role of a message.
type MsgType uint8

// Protocol message types used by the data-parallel trainer.
const (
	// MsgPush carries a gradient update (dense, chunk of a layer) to a
	// PS shard.
	MsgPush MsgType = iota + 1
	// MsgBcast carries fresh parameters from a PS shard to a worker.
	MsgBcast
	// MsgSF carries sufficient factors to a peer worker.
	MsgSF
	// MsgQuantPush carries a 1-bit quantized gradient to a PS shard.
	MsgQuantPush
	// MsgQuantBcast carries 1-bit quantized parameter deltas from a PS
	// shard to a worker (CNTK's double-sided quantization).
	MsgQuantBcast
	// MsgBarrier implements the end-of-iteration BSP handshake.
	MsgBarrier
	// MsgControl carries trainer control information (stop, config).
	MsgControl
	// msgRetired is the byte of the former route-switch frame; route
	// changes now ride MsgView at a planned view change. It stays
	// reserved so the types after it keep their wire values, and decode
	// rejects it.
	msgRetired
	// MsgViewHalt announces that the sender has parked at a membership
	// barrier: Iter is the next iteration it would have launched (the
	// view leader restarts the cluster at the max over all halts) and the
	// payload carries the dead/joined rank sets it has observed plus a
	// flag byte (graceful leave; planned barrier — receivers that have
	// not reached it keep training instead of halting early). See
	// internal/comm's view-change protocol.
	MsgViewHalt
	// MsgView carries the leader's decided epoch: the new cluster.View,
	// the restart iteration (also in Iter), the route byte per parameter
	// for the re-planned shape, and — when the member set changes — the
	// leader's staged replica bytes, the state handoff every member (and
	// joiner) adopts verbatim, which is what keeps replicas byte-identical
	// across the transition.
	MsgView
	// MsgRingReduce carries one partially-reduced segment of a ring
	// all-reduce to the next worker on the chain (Chunk names the
	// segment; the tree/ring hierarchy reuses the type with a phase bit
	// folded into Chunk for its inter-group exchange).
	MsgRingReduce
	// MsgRingGather redistributes a fully-reduced ring segment along the
	// ring (the all-gather phase); receivers apply it verbatim to their
	// staged replica.
	MsgRingGather
)

// Synthetic local event types: injected into an endpoint's own inbox by
// elastic transports to surface per-peer lifecycle through the ordinary
// Recv stream. They are never encoded on the wire (decode rejects
// them).
const (
	// MsgPeerGone reports that peer From's link died (Layer 0) or closed
	// gracefully with a goodbye (Layer 1).
	MsgPeerGone MsgType = 0x80 + iota
	// MsgPeerUp reports that peer From attached to this endpoint (a late
	// joiner completed the handshake).
	MsgPeerUp
)

// Message is one protocol frame.
type Message struct {
	Type    MsgType
	From    int32 // sender node id
	Layer   int32 // model layer index (or -1)
	Chunk   int32 // KV chunk index within the layer (0 when unchunked)
	Iter    int32 // training iteration
	Payload []byte

	// lease, when non-nil, is the pooled buffer backing Payload (see
	// payload.go). Consumers return it with ReleasePayload; messages
	// built over plain slices carry none and release is a no-op.
	lease *PayloadRef
}

// ErrClosed is returned by Recv after the mesh is closed.
var ErrClosed = errors.New("transport: mesh closed")

// Mesh is a full mesh of N nodes with per-node inboxes.
type Mesh interface {
	// Self returns this endpoint's node id.
	Self() int
	// N returns the number of nodes in the mesh.
	N() int
	// Send delivers msg to node `to` (may be Self; loopback is legal).
	Send(to int, msg Message) error
	// SendBatch delivers several messages to the same destination,
	// amortizing framing and lock/syscall overhead where the transport
	// supports it. Messages arrive in order.
	SendBatch(to int, msgs []Message) error
	// Recv blocks for the next inbound message. After Close it returns
	// ErrClosed; networked transports may instead return a link
	// failure such as *ErrPeerDown once a peer is unreachable. Elastic
	// endpoints report per-peer lifecycle as synthetic MsgPeerGone /
	// MsgPeerUp messages here instead of failing the whole endpoint.
	Recv() (Message, error)
	// Detach severs this endpoint's link to one peer without tearing the
	// mesh down: the connection (if any) closes, subsequent sends to the
	// peer are dropped silently on elastic transports (an error
	// otherwise), and no MsgPeerGone is synthesized — the caller already
	// decided the peer is out. A detached slot may be re-attached by a
	// later join where the transport supports it.
	Detach(peer int) error
	// Close tears the endpoint down; pending Recv calls return ErrClosed.
	Close() error
}

// headerLen is the size of the frame body header (everything between
// the length prefix and the payload).
const headerLen = 17

// appendHeader appends the 17-byte frame header (everything between
// the length prefix and the payload) to buf and returns the extended
// slice.
func appendHeader(buf []byte, msg Message) []byte {
	buf = append(buf, byte(msg.Type))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(msg.From))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(msg.Layer))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(msg.Chunk))
	return binary.LittleEndian.AppendUint32(buf, uint32(msg.Iter))
}

// appendPrefixedHeader appends the u32 length prefix and the frame
// header — but not the payload. This is the only part of a frame the
// vectored egress path materializes in scratch; the payload slice goes
// to the kernel as its own iovec.
func appendPrefixedHeader(buf []byte, msg Message) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(headerLen+len(msg.Payload)))
	return appendHeader(buf, msg)
}

// appendFrame appends the frame body (everything after the length
// prefix) to buf and returns the extended slice.
func appendFrame(buf []byte, msg Message) []byte {
	return append(appendHeader(buf, msg), msg.Payload...)
}

// encode renders the frame body.
func encode(msg Message) []byte {
	return appendFrame(make([]byte, 0, headerLen+len(msg.Payload)), msg)
}

// decode parses a frame body.
func decode(buf []byte) (Message, error) {
	if len(buf) < headerLen {
		return Message{}, fmt.Errorf("transport: short frame: %d bytes", len(buf))
	}
	if t := MsgType(buf[0]); (t < MsgPush || t > MsgRingGather || t == msgRetired) && t != msgGoodbye {
		return Message{}, fmt.Errorf("transport: unknown message type %d", t)
	}
	return Message{
		Type:    MsgType(buf[0]),
		From:    int32(binary.LittleEndian.Uint32(buf[1:5])),
		Layer:   int32(binary.LittleEndian.Uint32(buf[5:9])),
		Chunk:   int32(binary.LittleEndian.Uint32(buf[9:13])),
		Iter:    int32(binary.LittleEndian.Uint32(buf[13:17])),
		Payload: buf[17:],
	}, nil
}

// WireBytes returns the on-wire size of msg (length prefix included),
// used by bandwidth models and traffic accounting.
func WireBytes(msg Message) int { return 4 + headerLen + len(msg.Payload) }

// frameBufs pools TCP frame encode buffers: the functional plane sends
// multi-megabyte tensors every iteration and per-send allocation would
// dominate the profile. Buffers are returned to the pool after the
// socket write completes, so pooling is invisible to callers.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

func getFrameBuf(capacity int) *[]byte {
	bp := frameBufs.Get().(*[]byte)
	if cap(*bp) < capacity {
		*bp = make([]byte, 0, capacity)
	}
	*bp = (*bp)[:0]
	return bp
}

func putFrameBuf(bp *[]byte) { frameBufs.Put(bp) }

// ---- In-process mesh -----------------------------------------------------

// ChanMesh is a single-process mesh backed by buffered channels. Create
// one cluster with NewChanCluster and hand each goroutine its endpoint.
type ChanMesh struct {
	self    int
	cluster *chanCluster
}

type chanCluster struct {
	inboxes []chan Message
	once    sync.Once
	closed  chan struct{}

	// Elastic state: per-rank lifecycle instead of the all-or-nothing
	// cluster close. gone ranks swallow sends; downs[r] closes when rank
	// r is killed so its own Recv/Send surface *ErrPeerDown.
	elastic bool
	mu      sync.Mutex
	gone    []bool
	downs   []chan struct{}
}

// NewChanCluster builds an n-node in-process cluster and returns the n
// endpoints.
func NewChanCluster(n int) []*ChanMesh {
	c := &chanCluster{closed: make(chan struct{})}
	for i := 0; i < n; i++ {
		c.inboxes = append(c.inboxes, make(chan Message, 1024))
	}
	var ms []*ChanMesh
	for i := 0; i < n; i++ {
		ms = append(ms, &ChanMesh{self: i, cluster: c})
	}
	return ms
}

// ChanCluster is the handle over an elastic in-process cluster: the
// endpoints plus the chaos/lifecycle controls (Kill, Join) the
// membership tests script.
type ChanCluster struct {
	c         *chanCluster
	endpoints []*ChanMesh
}

// NewElasticChanCluster builds an n-slot in-process cluster with
// per-peer lifecycle: killing a rank delivers MsgPeerGone to the
// survivors instead of tearing the mesh down, and a slot can be
// re-joined later. Endpoint i is Endpoint(i).
func NewElasticChanCluster(n int) *ChanCluster {
	c := &chanCluster{
		closed:  make(chan struct{}),
		elastic: true,
		gone:    make([]bool, n),
		downs:   make([]chan struct{}, n),
	}
	for i := 0; i < n; i++ {
		c.inboxes = append(c.inboxes, make(chan Message, 1024))
		c.downs[i] = make(chan struct{})
	}
	cl := &ChanCluster{c: c}
	for i := 0; i < n; i++ {
		cl.endpoints = append(cl.endpoints, &ChanMesh{self: i, cluster: c})
	}
	return cl
}

// Endpoint returns rank i's mesh endpoint.
func (cl *ChanCluster) Endpoint(i int) *ChanMesh { return cl.endpoints[i] }

// Kill simulates a crash of rank r: its own Recv and Send return
// *ErrPeerDown, sends addressed to it are dropped, and every other live
// rank receives a synthetic MsgPeerGone — the same surface a SIGKILLed
// TCP peer presents to its survivors.
func (cl *ChanCluster) Kill(r int) {
	c := cl.c
	c.mu.Lock()
	if c.gone[r] {
		c.mu.Unlock()
		return
	}
	c.gone[r] = true
	down := c.downs[r]
	c.mu.Unlock()
	close(down)
	cl.notify(r, Message{Type: MsgPeerGone, From: int32(r)})
}

// Join re-attaches slot r (fresh or previously killed/detached) and
// delivers MsgPeerUp to every live rank. The returned endpoint is ready
// to use; any stale messages queued for the slot are dropped.
func (cl *ChanCluster) Join(r int) *ChanMesh {
	c := cl.c
	c.mu.Lock()
	c.gone[r] = false
	c.downs[r] = make(chan struct{})
	c.mu.Unlock()
	for {
		select {
		case msg := <-c.inboxes[r]:
			msg.ReleasePayload()
			continue
		default:
		}
		break
	}
	cl.notify(r, Message{Type: MsgPeerUp, From: int32(r)})
	return cl.endpoints[r]
}

// notify delivers a synthetic lifecycle event from rank r to every
// other live rank.
func (cl *ChanCluster) notify(r int, msg Message) {
	c := cl.c
	for p := range c.inboxes {
		if p == r {
			continue
		}
		c.mu.Lock()
		skip := c.gone[p]
		c.mu.Unlock()
		if skip {
			continue
		}
		select {
		case c.inboxes[p] <- msg:
		case <-c.closed:
			return
		}
	}
}

// Close shuts the whole cluster down.
func (cl *ChanCluster) Close() { cl.endpoints[0].Close() }

// errKilled is the cause recorded on a killed ChanMesh rank's own
// *ErrPeerDown.
var errKilled = errors.New("endpoint killed")

func (c *chanCluster) isGone(r int) bool {
	if !c.elastic {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gone[r]
}

// Self returns this endpoint's node id.
func (m *ChanMesh) Self() int { return m.self }

// N returns the cluster size.
func (m *ChanMesh) N() int { return len(m.cluster.inboxes) }

// Send delivers msg to node to. The inbox retains msg.Payload's pooled
// lease (if any) until the consumer releases it, so senders are free to
// Release their own reference as soon as Send returns.
func (m *ChanMesh) Send(to int, msg Message) error {
	if to < 0 || to >= m.N() {
		return fmt.Errorf("transport: bad destination %d", to)
	}
	if m.cluster.isGone(m.self) {
		// This endpoint was killed: behave like the dead process it
		// models.
		return &ErrPeerDown{Peer: m.self, Cause: errKilled}
	}
	if m.cluster.isGone(to) {
		// Elastic: sends to a dead or detached rank vanish, like bytes
		// written to a peer that will never read them. The membership
		// barrier — not the send path — is what reports the death.
		return nil
	}
	msg.From = int32(m.self)
	msg.retainLease()
	select {
	case m.cluster.inboxes[to] <- msg:
		return nil
	case <-m.cluster.closed:
		msg.ReleasePayload()
		return ErrClosed
	}
}

// SendBatch delivers msgs to node to, in order. Channels have no
// framing overhead to amortize, so this is a plain loop.
func (m *ChanMesh) SendBatch(to int, msgs []Message) error {
	for _, msg := range msgs {
		if err := m.Send(to, msg); err != nil {
			return err
		}
	}
	return nil
}

// Recv blocks for the next message to this endpoint.
func (m *ChanMesh) Recv() (Message, error) {
	var down chan struct{}
	if m.cluster.elastic {
		m.cluster.mu.Lock()
		down = m.cluster.downs[m.self]
		m.cluster.mu.Unlock()
	}
	select {
	case msg := <-m.cluster.inboxes[m.self]:
		return msg, nil
	case <-m.cluster.closed:
		// Drain anything already queued before reporting closure.
		select {
		case msg := <-m.cluster.inboxes[m.self]:
			return msg, nil
		default:
			return Message{}, ErrClosed
		}
	case <-downOrNever(down):
		return Message{}, &ErrPeerDown{Peer: m.self, Cause: errKilled}
	}
}

// downOrNever turns a nil channel (non-elastic endpoint) into a
// never-ready select case.
func downOrNever(ch chan struct{}) chan struct{} { return ch }

// Detach severs this endpoint's link to one peer: subsequent sends to
// it are dropped. Elastic clusters only.
func (m *ChanMesh) Detach(peer int) error {
	if !m.cluster.elastic {
		return fmt.Errorf("transport: ChanMesh.Detach needs an elastic cluster")
	}
	if peer < 0 || peer >= m.N() || peer == m.self {
		return fmt.Errorf("transport: bad detach peer %d", peer)
	}
	m.cluster.mu.Lock()
	m.cluster.gone[peer] = true
	m.cluster.mu.Unlock()
	return nil
}

// Close shuts the whole cluster down (idempotent).
func (m *ChanMesh) Close() error {
	m.cluster.once.Do(func() { close(m.cluster.closed) })
	return nil
}

// ---- Bandwidth-modeled mesh ------------------------------------------------

// DelayMesh wraps a Mesh and models per-link wire time: each message
// occupies its (sender,destination) link for WireBytes/bandwidth plus a
// fixed latency before delivery, with distinct links independent — the
// behavior of a full-mesh network fabric. Senders block for the wire
// time (NIC serialization), so serialized pushes pay the sum of their
// transfer times while concurrent pushes to different destinations
// overlap. This is how the functional plane reproduces the paper's
// limited-bandwidth conditions (Fig. 8) on loopback hardware.
type DelayMesh struct {
	inner     Mesh
	bytesPerS float64
	latency   time.Duration
	links     []sync.Mutex // per destination
}

// NewDelayMesh models links of the given bandwidth (bytes/second) and
// one-way latency on top of inner. bytesPerS <= 0 disables the
// bandwidth term.
func NewDelayMesh(inner Mesh, bytesPerS float64, latency time.Duration) *DelayMesh {
	return &DelayMesh{
		inner:     inner,
		bytesPerS: bytesPerS,
		latency:   latency,
		links:     make([]sync.Mutex, inner.N()),
	}
}

// Self returns the wrapped endpoint's node id.
func (m *DelayMesh) Self() int { return m.inner.Self() }

// N returns the mesh size.
func (m *DelayMesh) N() int { return m.inner.N() }

func (m *DelayMesh) wireTime(bytes int) time.Duration {
	d := m.latency
	if m.bytesPerS > 0 {
		d += time.Duration(float64(bytes) / m.bytesPerS * float64(time.Second))
	}
	return d
}

// Send occupies the link to `to` for the message's wire time, then
// delivers through the wrapped mesh. Loopback is free.
func (m *DelayMesh) Send(to int, msg Message) error {
	if to != m.Self() && to >= 0 && to < len(m.links) {
		m.links[to].Lock()
		time.Sleep(m.wireTime(WireBytes(msg)))
		m.links[to].Unlock()
	}
	return m.inner.Send(to, msg)
}

// SendBatch occupies the link once for the batch's combined wire time.
func (m *DelayMesh) SendBatch(to int, msgs []Message) error {
	if to != m.Self() && to >= 0 && to < len(m.links) && len(msgs) > 0 {
		total := 0
		for _, msg := range msgs {
			total += WireBytes(msg)
		}
		m.links[to].Lock()
		time.Sleep(m.wireTime(total))
		m.links[to].Unlock()
	}
	return m.inner.SendBatch(to, msgs)
}

// Recv blocks for the next inbound message.
func (m *DelayMesh) Recv() (Message, error) { return m.inner.Recv() }

// Detach severs the wrapped endpoint's link to one peer.
func (m *DelayMesh) Detach(peer int) error { return m.inner.Detach(peer) }

// Close tears down the wrapped mesh.
func (m *DelayMesh) Close() error { return m.inner.Close() }
