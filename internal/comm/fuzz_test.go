package comm

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/cluster"
)

// The barrier's control-frame decoders ingest bytes straight off the
// wire. Property for both: no input panics, and any accepted input
// re-encodes to exactly the same bytes — so decode loses nothing the
// leader or a halting peer said, and accepts nothing it would not say.

func FuzzDecodeHaltPayload(f *testing.F) {
	for _, h := range []haltPayload{
		{},
		{epoch: 7, planned: true},
		{epoch: 3, leave: true, dead: []int{2}, joined: []int{5, 6}},
		{epoch: 1, leave: true, planned: true, dead: []int{0, 4}},
	} {
		f.Add(appendHaltPayload(nil, h))
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		h, err := decodeHaltPayload(buf)
		if err != nil {
			return
		}
		if got := appendHaltPayload(nil, h); !bytes.Equal(got, buf) {
			t.Fatalf("halt %+v re-encodes to %x, decoded from %x", h, got, buf)
		}
	})
}

func FuzzDecodeViewPayload(f *testing.F) {
	for _, pv := range []*viewPayload{
		{view: cluster.Initial(1)},
		{view: cluster.View{Epoch: 4, Members: []int{0, 1, 3}}, restart: 12, routes: []byte{byte(RoutePS), byte(RouteSFB)}},
		{
			view:    cluster.View{Epoch: 2, Members: []int{1, 2}},
			restart: 9,
			routes:  []byte{byte(RouteOneBit), byte(RouteRing)},
			params:  [][]float32{{1.5, -2, float32(math.Inf(1))}, {}},
		},
	} {
		f.Add(appendViewPayload(nil, pv))
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		pv, err := decodeViewPayload(buf)
		if err != nil {
			return
		}
		if got := appendViewPayload(nil, pv); !bytes.Equal(got, buf) {
			t.Fatalf("view %+v re-encodes to %x, decoded from %x", pv, got, buf)
		}
	})
}
