package transport

import (
	"errors"
	"testing"
	"time"
)

// assertPeerDown asserts the shared Mesh contract for peer-death
// reporting: every transport surfaces a *ErrPeerDown that errors.As can
// extract, naming the failed peer, with a non-nil cause reachable
// through errors.Is — so callers can branch on peer identity and cause
// identically whether the mesh is in-process, TCP, or shared memory.
func assertPeerDownErr(t *testing.T, err error, wantPeer int) *ErrPeerDown {
	t.Helper()
	if err == nil {
		t.Fatal("want *ErrPeerDown, got nil")
	}
	var pd *ErrPeerDown
	if !errors.As(err, &pd) {
		t.Fatalf("errors.As failed on %T: %v", err, err)
	}
	if pd.Peer != wantPeer {
		t.Fatalf("ErrPeerDown.Peer = %d, want %d", pd.Peer, wantPeer)
	}
	if pd.Cause == nil {
		t.Fatal("ErrPeerDown.Cause is nil")
	}
	if !errors.Is(err, pd.Cause) {
		t.Fatalf("errors.Is(err, cause) failed: err=%v cause=%v", err, pd.Cause)
	}
	return pd
}

// recvType drains msgs from m until one of type want arrives (releasing
// payload leases of everything skipped), bounded by a timeout.
func recvType(t *testing.T, m Mesh, want MsgType) Message {
	t.Helper()
	type result struct {
		msg Message
		err error
	}
	done := make(chan result, 1)
	go func() {
		for {
			msg, err := m.Recv()
			if err != nil {
				done <- result{err: err}
				return
			}
			if msg.Type == want {
				done <- result{msg: msg}
				return
			}
			msg.ReleasePayload()
		}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("recv waiting for type %d: %v", want, r.err)
		}
		return r.msg
	case <-time.After(5 * time.Second):
		t.Fatalf("no message of type %d within 5s", want)
	}
	panic("unreachable")
}

// Synthetic lifecycle types never travel the wire, and the retired
// route-switch byte stays reserved: decode rejects all of them.
func TestSyntheticLifecycleTypesRejectedOnWire(t *testing.T) {
	for _, typ := range []MsgType{MsgPeerGone, MsgPeerUp, msgRetired} {
		if _, err := decode(encode(Message{Type: typ, From: 1})); err == nil {
			t.Fatalf("type %#x decoded from the wire", typ)
		}
	}
}

func TestChanClusterKillConformance(t *testing.T) {
	cl := NewElasticChanCluster(3)
	t.Cleanup(cl.Close)

	cl.Kill(2)
	// The killed endpoint behaves like the dead process it models.
	_, err := cl.Endpoint(2).Recv()
	assertPeerDownErr(t, err, 2)
	assertPeerDownErr(t, cl.Endpoint(2).Send(0, Message{Type: MsgPush}), 2)

	// Survivors observe a synthetic MsgPeerGone, not an endpoint error.
	for _, r := range []int{0, 1} {
		msg := recvType(t, cl.Endpoint(r), MsgPeerGone)
		if msg.From != 2 {
			t.Fatalf("rank %d: MsgPeerGone.From = %d, want 2", r, msg.From)
		}
	}
	// Sends to the dead rank vanish silently; survivor traffic flows.
	if err := cl.Endpoint(0).Send(2, Message{Type: MsgPush}); err != nil {
		t.Fatalf("send to dead rank: %v", err)
	}
	if err := cl.Endpoint(0).Send(1, Message{Type: MsgBcast, Iter: 9}); err != nil {
		t.Fatal(err)
	}
	if msg := recvType(t, cl.Endpoint(1), MsgBcast); msg.Iter != 9 {
		t.Fatalf("survivor traffic corrupted: %+v", msg)
	}
	// Kill is idempotent.
	cl.Kill(2)
}

func TestChanClusterJoinDeliversPeerUp(t *testing.T) {
	cl := NewElasticChanCluster(3)
	t.Cleanup(cl.Close)

	cl.Kill(1)
	for _, r := range []int{0, 2} {
		recvType(t, cl.Endpoint(r), MsgPeerGone)
	}
	rejoined := cl.Join(1)
	for _, r := range []int{0, 2} {
		if msg := recvType(t, cl.Endpoint(r), MsgPeerUp); msg.From != 1 {
			t.Fatalf("rank %d: MsgPeerUp.From = %d, want 1", r, msg.From)
		}
	}
	// The rejoined slot sends and receives again.
	if err := rejoined.Send(0, Message{Type: MsgSF, Iter: 3}); err != nil {
		t.Fatal(err)
	}
	if msg := recvType(t, cl.Endpoint(0), MsgSF); msg.From != 1 || msg.Iter != 3 {
		t.Fatalf("traffic from rejoined rank: %+v", msg)
	}
	if err := cl.Endpoint(2).Send(1, Message{Type: MsgBarrier}); err != nil {
		t.Fatal(err)
	}
	recvType(t, rejoined, MsgBarrier)
}

func TestChanMeshDetachDropsSendsSilently(t *testing.T) {
	cl := NewElasticChanCluster(2)
	t.Cleanup(cl.Close)
	if err := cl.Endpoint(0).Detach(1); err != nil {
		t.Fatal(err)
	}
	if err := cl.Endpoint(0).Send(1, Message{Type: MsgPush}); err != nil {
		t.Fatalf("send after detach: %v", err)
	}
	// Non-elastic clusters refuse Detach.
	fixed := NewChanCluster(2)
	t.Cleanup(func() { fixed[0].Close() })
	if err := fixed[0].Detach(1); err == nil {
		t.Fatal("Detach on a fixed-size cluster must fail")
	}
}

func TestTCPPeerDownConformance(t *testing.T) {
	addrs := freeAddrs(t, 2)
	ms := dialMeshOpts(t, addrs, TCPOptions{SetupTimeout: 5 * time.Second})
	t.Cleanup(func() {
		ms[0].Close()
		ms[1].Close()
	})
	// Node 1 vanishes without a goodbye: close the raw socket behind
	// the mesh's back, the shape of a SIGKILL.
	rawConnTo(ms[1], 0).Close()
	_, err := ms[0].Recv()
	assertPeerDownErr(t, err, 1)
}

func TestTCPElasticCrashDeliversPeerGone(t *testing.T) {
	addrs := freeAddrs(t, 3)
	ms := dialMeshOpts(t, addrs, TCPOptions{SetupTimeout: 5 * time.Second, Elastic: true})
	t.Cleanup(func() {
		for _, m := range ms {
			m.Close()
		}
	})
	// Node 2 crashes: both of its sockets die without goodbyes.
	rawConnTo(ms[2], 0).Close()
	rawConnTo(ms[2], 1).Close()
	for _, r := range []int{0, 1} {
		msg := recvType(t, ms[r], MsgPeerGone)
		if msg.From != 2 {
			t.Fatalf("rank %d: MsgPeerGone.From = %d, want 2", r, msg.From)
		}
	}
	// The survivors' mesh is not poisoned: sends to the dead slot drop,
	// survivor traffic flows.
	if err := ms[0].Send(2, Message{Type: MsgPush}); err != nil {
		t.Fatalf("send to dead slot: %v", err)
	}
	if err := ms[0].Send(1, Message{Type: MsgBcast, Iter: 4}); err != nil {
		t.Fatal(err)
	}
	if msg := recvType(t, ms[1], MsgBcast); msg.From != 0 || msg.Iter != 4 {
		t.Fatalf("survivor traffic corrupted: %+v", msg)
	}
}

func TestTCPElasticGoodbyeDetachesSilently(t *testing.T) {
	addrs := freeAddrs(t, 3)
	ms := dialMeshOpts(t, addrs, TCPOptions{SetupTimeout: 5 * time.Second, Elastic: true})
	t.Cleanup(func() {
		ms[0].Close()
		ms[1].Close()
	})
	// Node 2 departs gracefully. Survivors must NOT see MsgPeerGone —
	// graceful departures are negotiated above the transport — and must
	// keep exchanging traffic.
	ms[2].Close()
	time.Sleep(100 * time.Millisecond)
	if err := ms[0].Send(1, Message{Type: MsgBarrier, Iter: 1}); err != nil {
		t.Fatal(err)
	}
	msg, err := ms[1].Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type == MsgPeerGone {
		t.Fatal("goodbye surfaced as MsgPeerGone")
	}
	if msg.Type != MsgBarrier || msg.From != 0 {
		t.Fatalf("unexpected message: %+v", msg)
	}
	// Sends to the departed slot drop silently.
	if err := ms[0].Send(2, Message{Type: MsgPush}); err != nil {
		t.Fatalf("send to departed slot: %v", err)
	}
}

func TestTCPLateJoinerAttaches(t *testing.T) {
	addrs := freeAddrs(t, 3)
	ms := dialMeshOpts(t, addrs, TCPOptions{SetupTimeout: 5 * time.Second, Elastic: true})
	t.Cleanup(func() {
		for _, m := range ms {
			if m != nil {
				m.Close()
			}
		}
	})
	// Node 2 crashes and its slot is detached by both survivors.
	rawConnTo(ms[2], 0).Close()
	rawConnTo(ms[2], 1).Close()
	for _, r := range []int{0, 1} {
		recvType(t, ms[r], MsgPeerGone)
	}
	// Release the dead node's listener so the replacement can bind the
	// same address (a restarted process would).
	ms[2].Close()
	// A replacement joins the same slot through the live listeners.
	joiner, err := JoinTCPMesh(2, addrs, []int{0, 1}, TCPOptions{SetupTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ms[2] = joiner
	for _, r := range []int{0, 1} {
		if msg := recvType(t, ms[r], MsgPeerUp); msg.From != 2 {
			t.Fatalf("rank %d: MsgPeerUp.From = %d, want 2", r, msg.From)
		}
		if err := ms[r].WaitAttached(2, 5*time.Second); err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	// Full traffic both ways with the re-attached slot.
	if err := joiner.Send(0, Message{Type: MsgSF, Iter: 11}); err != nil {
		t.Fatal(err)
	}
	if msg := recvType(t, ms[0], MsgSF); msg.From != 2 || msg.Iter != 11 {
		t.Fatalf("joiner → survivor: %+v", msg)
	}
	if err := ms[1].Send(2, Message{Type: MsgBcast, Iter: 12}); err != nil {
		t.Fatal(err)
	}
	if msg := recvType(t, joiner, MsgBcast); msg.From != 1 || msg.Iter != 12 {
		t.Fatalf("survivor → joiner: %+v", msg)
	}
}

func TestTCPDetachRequiresElastic(t *testing.T) {
	addrs := freeAddrs(t, 2)
	ms := dialMeshOpts(t, addrs, TCPOptions{SetupTimeout: 5 * time.Second})
	t.Cleanup(func() {
		for _, m := range ms {
			m.Close()
		}
	})
	if err := ms[0].Detach(1); err == nil {
		t.Fatal("Detach on a fixed-size mesh must fail")
	}
}
