package transport

import (
	"sync"
	"testing"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	msg := Message{Type: MsgPush, From: 3, Layer: 7, Iter: 42, Payload: []byte{1, 2, 3}}
	got, err := decode(encode(msg))
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != msg.Type || got.From != msg.From || got.Layer != msg.Layer ||
		got.Iter != msg.Iter || string(got.Payload) != string(msg.Payload) {
		t.Fatalf("round trip: %+v != %+v", got, msg)
	}
}

func TestDecodeShortFrame(t *testing.T) {
	if _, err := decode([]byte{1, 2}); err == nil {
		t.Fatal("want error")
	}
}

func TestChanMeshBasic(t *testing.T) {
	ms := NewChanCluster(3)
	if ms[1].Self() != 1 || ms[1].N() != 3 {
		t.Fatal("bad endpoint identity")
	}
	if err := ms[0].Send(2, Message{Type: MsgSF, Layer: 5, Iter: 1}); err != nil {
		t.Fatal(err)
	}
	got, err := ms[2].Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.From != 0 || got.Layer != 5 || got.Type != MsgSF {
		t.Fatalf("got %+v", got)
	}
}

func TestChanMeshLoopback(t *testing.T) {
	ms := NewChanCluster(1)
	if err := ms[0].Send(0, Message{Type: MsgBarrier}); err != nil {
		t.Fatal(err)
	}
	if msg, err := ms[0].Recv(); err != nil || msg.Type != MsgBarrier {
		t.Fatalf("loopback failed: %v %v", msg, err)
	}
}

func TestChanMeshBadDest(t *testing.T) {
	ms := NewChanCluster(2)
	if err := ms[0].Send(5, Message{}); err == nil {
		t.Fatal("want error for bad destination")
	}
}

func TestChanMeshCloseUnblocksRecv(t *testing.T) {
	ms := NewChanCluster(2)
	done := make(chan error, 1)
	go func() {
		_, err := ms[1].Recv()
		done <- err
	}()
	ms[0].Close()
	if err := <-done; err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestChanMeshManyToOne(t *testing.T) {
	const n = 8
	ms := NewChanCluster(n)
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 10; k++ {
				if err := ms[i].Send(0, Message{Type: MsgPush, Iter: int32(k)}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	for k := 0; k < (n-1)*10; k++ {
		if _, err := ms[0].Recv(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTCPMeshPairwise(t *testing.T) {
	addrs := freeAddrs(t, 3)
	var ms [3]*TCPMesh
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := NewTCPMesh(i, addrs)
			if err != nil {
				errs <- err
				return
			}
			ms[i] = m
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	defer func() {
		for _, m := range ms {
			m.Close()
		}
	}()

	payload := make([]byte, 100000)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := ms[0].Send(2, Message{Type: MsgPush, Layer: 9, Iter: 3, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	got, err := ms[2].Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.From != 0 || got.Layer != 9 || len(got.Payload) != len(payload) {
		t.Fatalf("got From=%d Layer=%d len=%d", got.From, got.Layer, len(got.Payload))
	}
	for i := range payload {
		if got.Payload[i] != payload[i] {
			t.Fatalf("payload corrupted at %d", i)
		}
	}
	// Loopback on TCP mesh.
	if err := ms[1].Send(1, Message{Type: MsgBarrier}); err != nil {
		t.Fatal(err)
	}
	if msg, err := ms[1].Recv(); err != nil || msg.Type != MsgBarrier {
		t.Fatalf("tcp loopback: %v %v", msg, err)
	}
}

func TestTCPMeshConcurrentSenders(t *testing.T) {
	addrs := freeAddrs(t, 2)
	var ms [2]*TCPMesh
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := NewTCPMesh(i, addrs)
			if err != nil {
				t.Error(err)
				return
			}
			ms[i] = m
		}()
	}
	wg.Wait()
	if ms[0] == nil || ms[1] == nil {
		t.Fatal("mesh setup failed")
	}
	defer ms[0].Close()
	defer ms[1].Close()

	const msgs = 50
	var send sync.WaitGroup
	for g := 0; g < 4; g++ {
		send.Add(1)
		go func() {
			defer send.Done()
			for k := 0; k < msgs; k++ {
				if err := ms[0].Send(1, Message{Type: MsgSF, Iter: int32(k), Payload: make([]byte, 1000)}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	send.Wait()
	for k := 0; k < 4*msgs; k++ {
		if _, err := ms[1].Recv(); err != nil {
			t.Fatal(err)
		}
	}
}
