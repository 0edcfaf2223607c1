package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// The Chunk field must survive the wire (it addresses KV chunks in the
// functional plane's chunked pushes).
func TestEncodeDecodeChunkRoundTrip(t *testing.T) {
	msg := Message{Type: MsgPush, From: 1, Layer: 12, Chunk: 345, Iter: 9, Payload: []byte{7}}
	got, err := decode(encode(msg))
	if err != nil {
		t.Fatal(err)
	}
	if got.Chunk != 345 || got.Layer != 12 || got.Iter != 9 {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	if WireBytes(msg) != 4+headerLen+1 {
		t.Fatalf("WireBytes = %d", WireBytes(msg))
	}
}

func TestChanMeshSendBatch(t *testing.T) {
	ms := NewChanCluster(2)
	defer ms[0].Close()
	msgs := []Message{
		{Type: MsgPush, Layer: 1, Chunk: 0},
		{Type: MsgPush, Layer: 1, Chunk: 1},
		{Type: MsgPush, Layer: 1, Chunk: 2},
	}
	if err := ms[0].SendBatch(1, msgs); err != nil {
		t.Fatal(err)
	}
	for want := int32(0); want < 3; want++ {
		got, err := ms[1].Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got.Chunk != want || got.From != 0 {
			t.Fatalf("batch delivered out of order: got chunk %d, want %d", got.Chunk, want)
		}
	}
}

func TestTCPMeshSendBatch(t *testing.T) {
	addrs := freeAddrs(t, 2)
	ms := dialPair(t, addrs)
	defer ms[0].Close()
	defer ms[1].Close()

	const batches, per = 20, 5
	for b := 0; b < batches; b++ {
		msgs := make([]Message, per)
		for c := range msgs {
			msgs[c] = Message{
				Type: MsgPush, Layer: int32(b), Chunk: int32(c), Iter: 1,
				Payload: make([]byte, 512),
			}
		}
		if err := ms[0].SendBatch(1, msgs); err != nil {
			t.Fatal(err)
		}
	}
	for b := 0; b < batches; b++ {
		for c := 0; c < per; c++ {
			got, err := ms[1].Recv()
			if err != nil {
				t.Fatal(err)
			}
			if got.Layer != int32(b) || got.Chunk != int32(c) || len(got.Payload) != 512 {
				t.Fatalf("frame %d.%d corrupted: %+v", b, c, got)
			}
		}
	}
	// Loopback batches short-circuit the network but keep order.
	if err := ms[1].SendBatch(1, []Message{{Type: MsgBarrier, Chunk: 1}, {Type: MsgBarrier, Chunk: 2}}); err != nil {
		t.Fatal(err)
	}
	for want := int32(1); want <= 2; want++ {
		if msg, err := ms[1].Recv(); err != nil || msg.Chunk != want {
			t.Fatalf("loopback batch: %+v %v", msg, err)
		}
	}
}

func dialPair(t *testing.T, addrs []string) [2]*TCPMesh {
	t.Helper()
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
	return ms
}

// The send-pool makes concurrent Send/SendBatch from many goroutines
// the common case; with pooled frame buffers in play, interleaved
// writers must neither corrupt frames nor race (run with -race).
func TestTCPMeshConcurrentSendAndBatch(t *testing.T) {
	addrs := freeAddrs(t, 2)
	ms := dialPair(t, addrs)
	defer ms[0].Close()
	defer ms[1].Close()

	const goroutines, msgs = 8, 40
	var send sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		send.Add(1)
		go func() {
			defer send.Done()
			for k := 0; k < msgs; k++ {
				payload := make([]byte, 64+8*g)
				for i := range payload {
					payload[i] = byte(g)
				}
				var err error
				if g%2 == 0 {
					err = ms[0].Send(1, Message{Type: MsgPush, Layer: int32(g), Iter: int32(k), Payload: payload})
				} else {
					err = ms[0].SendBatch(1, []Message{
						{Type: MsgPush, Layer: int32(g), Chunk: 0, Iter: int32(k), Payload: payload},
						{Type: MsgPush, Layer: int32(g), Chunk: 1, Iter: int32(k), Payload: payload},
					})
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	send.Wait()

	// Half the writers send 1 frame per round, half send 2.
	total := goroutines/2*msgs + goroutines/2*msgs*2
	perLayerIter := make(map[string]int)
	for k := 0; k < total; k++ {
		got, err := ms[1].Recv()
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Payload) != 64+8*int(got.Layer) {
			t.Fatalf("frame from writer %d has %d payload bytes", got.Layer, len(got.Payload))
		}
		for _, b := range got.Payload {
			if b != byte(got.Layer) {
				t.Fatalf("interleaved write corrupted payload of writer %d", got.Layer)
			}
		}
		perLayerIter[fmt.Sprintf("%d.%d", got.Layer, got.Chunk)]++
	}
	for g := 0; g < goroutines; g++ {
		if n := perLayerIter[fmt.Sprintf("%d.0", g)]; n != msgs {
			t.Fatalf("writer %d: %d frames for chunk 0, want %d", g, n, msgs)
		}
	}
}

// DelayMesh must charge wire time per link and overlap distinct links:
// two concurrent sends to different peers take ~one wire time, two to
// the same peer take ~two.
func TestDelayMeshOverlapsDistinctLinks(t *testing.T) {
	const wire = 40 * time.Millisecond
	elapsedConcurrent := func(dests [2]int) time.Duration {
		inner := NewChanCluster(3)
		defer inner[0].Close()
		// 1 kB at 1 kB per wire-time unit → each message costs ~wire.
		m := NewDelayMesh(inner[0], 1000/wire.Seconds(), 0)
		payload := make([]byte, 1000-4-headerLen)
		start := time.Now()
		var wg sync.WaitGroup
		for _, d := range dests {
			d := d
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := m.Send(d, Message{Type: MsgPush, Payload: payload}); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		return time.Since(start)
	}
	distinct := elapsedConcurrent([2]int{1, 2})
	shared := elapsedConcurrent([2]int{1, 1})
	if distinct > wire*3/2 {
		t.Fatalf("distinct links did not overlap: %v for %v of wire time", distinct, wire)
	}
	if shared < wire*2 {
		t.Fatalf("same link overlapped: %v, want ≥ %v", shared, wire*2)
	}
}

// DelayMesh loopback is free and the wrapper passes Self/N/Recv through.
func TestDelayMeshPassThrough(t *testing.T) {
	inner := NewChanCluster(2)
	defer inner[0].Close()
	m := NewDelayMesh(inner[1], 10, time.Hour) // absurd wire time
	if m.Self() != 1 || m.N() != 2 {
		t.Fatal("identity not passed through")
	}
	start := time.Now()
	if err := m.Send(1, Message{Type: MsgBarrier}); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("loopback paid wire time")
	}
	if msg, err := m.Recv(); err != nil || msg.Type != MsgBarrier {
		t.Fatalf("recv through wrapper: %+v %v", msg, err)
	}
}
