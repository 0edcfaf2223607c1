package comm

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// plannedBarrier runs one planned view change at iteration barrier, as
// every member of a replanning run does: drain, open, halt, apply.
func plannedBarrier(r *Router, barrier int) (ViewChange, error) {
	if err := r.PlanView(barrier); err != nil {
		return ViewChange{}, err
	}
	return r.AwaitView(barrier)
}

// rerouteCluster trains a 3-node fixed-size cluster through two planned
// barriers — PS→SFB at iteration 2, back SFB→PS at iteration 4, decided
// by the leader's PlanShape — and checks the handoff invariants: the
// synchronized math is unaffected (every replica ends at initial +
// iters·Σ(node+1) exactly), every node lands on the same final routes
// and epoch, both flips are logged, and not a single payload lease
// outlives the run (transport.OutstandingPayloadLeases returns to its
// baseline). Run under -race in CI, this also pins the
// receive-loop/barrier-swap synchronization.
func rerouteCluster(t *testing.T, overlap bool, chunkElems int) {
	t.Helper()
	baseline := transport.OutstandingPayloadLeases()

	const n = 3
	const iters = 6
	barriers := map[int]Route{2: RouteSFB, 4: RoutePS} // iteration → new route for param 1
	shapes := [][2]int{{4, 6}, {2, 3}}
	allParams := identicalParams(11, shapes)

	meshes := transport.NewChanCluster(n)
	routers := make([]*Router, n)
	mtrs := make([]*metrics.Comm, n)
	at := make([]int, n) // the barrier each node's compute loop is in
	for node := 0; node < n; node++ {
		node := node
		mtrs[node] = metrics.NewComm()
		r, err := NewRouter(Config{
			Mesh: meshes[node],
			Plans: []ParamPlan{
				{Index: 0, Rows: 4, Cols: 6, Route: RoutePS},
				{Index: 1, Rows: 2, Cols: 3, Route: RoutePS},
			},
			Params:     allParams[node],
			Scale:      1,
			Overlap:    overlap,
			ChunkElems: chunkElems,
			Metrics:    mtrs[node],
			// Consulted on the leader's compute goroutine, inside the
			// AwaitView that follows at[node]'s update.
			PlanShape: func(int) ([]ParamPlan, error) {
				return []ParamPlan{
					{Index: 0, Rows: 4, Cols: 6, Route: RoutePS},
					{Index: 1, Rows: 2, Cols: 3, Route: barriers[at[node]]},
				}, nil
			},
			SFSource: func(index int) func() *tensor.SufficientFactor {
				if index != 1 {
					return nil
				}
				return func() *tensor.SufficientFactor {
					// Rank-1 factor reconstructing to a 2×3 gradient
					// with every element node+1 (UᵀV, U 1×2, V 1×3).
					u := tensor.NewMatrix(1, 2)
					u.Fill(float32(node + 1))
					v := tensor.NewMatrix(1, 3)
					v.Fill(1)
					return &tensor.SufficientFactor{U: u, V: v}
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		routers[node] = r
		r.Start()
	}

	var wg sync.WaitGroup
	errs := make([]error, n)
	for node := 0; node < n; node++ {
		node, r := node, routers[node]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < iters; iter++ {
				if _, ok := barriers[iter]; ok {
					at[node] = iter
					vc, err := plannedBarrier(r, iter)
					if err == nil && (vc.RestartIter != iter || vc.Left || vc.View.Size() != n) {
						err = fmt.Errorf("barrier %d committed %+v", iter, vc)
					}
					if err != nil {
						errs[node] = err
						return
					}
				}
				r.WaitFor(iter)
				grads := []*tensor.Matrix{tensor.NewMatrix(4, 6), tensor.NewMatrix(2, 3)}
				for _, g := range grads {
					g.Fill(float32(node + 1))
				}
				if err := r.LaunchAll(iter, grads); err != nil {
					errs[node] = err
					return
				}
			}
			r.WaitFor(iters) // drain the final round
		}()
	}
	wg.Wait()
	for node, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", node, err)
		}
	}

	want := float32(iters * (1 + 2 + 3))
	for node, r := range routers {
		params := []*tensor.Matrix{tensor.NewMatrix(4, 6), tensor.NewMatrix(2, 3)}
		r.Adopt(params)
		for pi, p := range params {
			for j, v := range p.Data {
				if exp := allParams[0][pi].Data[j] + want; absDiff(v, exp) > 1e-4 {
					t.Fatalf("node %d param %d[%d]: %g, want %g (reroute broke the sum)",
						node, pi, j, v, exp)
				}
			}
		}
		if got := r.Routes(); got[0] != RoutePS || got[1] != RoutePS {
			t.Fatalf("node %d final routes %v, want [PS PS] after the round trip", node, got)
		}
		if got := r.View(); !got.Equal(cluster.View{Epoch: 2, Members: []int{0, 1, 2}}) {
			t.Fatalf("node %d final view %v, want epoch 2 with every member", node, got)
		}
		snap := mtrs[node].Snapshot()
		if len(snap.ReplanEvents) != 2 {
			t.Fatalf("node %d logged %d replan events, want 2: %+v", node, len(snap.ReplanEvents), snap.ReplanEvents)
		}
		e0, e1 := snap.ReplanEvents[0], snap.ReplanEvents[1]
		if e0.Iter != 2 || e0.Param != 1 || e0.From != "PS" || e0.To != "SFB" {
			t.Fatalf("node %d first replan event %+v", node, e0)
		}
		if e1.Iter != 4 || e1.Param != 1 || e1.From != "SFB" || e1.To != "PS" {
			t.Fatalf("node %d second replan event %+v", node, e1)
		}
		if r.Err() != nil {
			t.Fatalf("node %d: %v", node, r.Err())
		}
	}

	meshes[0].Close()
	for _, r := range routers {
		r.Stop()
	}
	// Every pooled payload that crossed the barriers — parked frames,
	// halts and view frames included — must have been released.
	waitLeases(t, baseline)
}

// waitLeases waits (bounded) for the payload-lease gauge to return to
// baseline: pooled sends release asynchronously after the last write.
func waitLeases(t *testing.T, baseline int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for transport.OutstandingPayloadLeases() != baseline {
		if time.Now().After(deadline) {
			t.Fatalf("payload leases leaked: %d outstanding, baseline %d",
				transport.OutstandingPayloadLeases(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRouterRerouteMidTraining(t *testing.T) {
	for _, tc := range []struct {
		name       string
		overlap    bool
		chunkElems int
	}{
		{"serialized", false, 0},
		{"overlap", true, 0},
		{"overlap-chunked", true, 5},
	} {
		t.Run(tc.name, func(t *testing.T) { rerouteCluster(t, tc.overlap, tc.chunkElems) })
	}
}

// A barrier that flips nothing still releases every worker and loses
// nothing: PlanShape's nil keeps the routes, no flip is logged, the
// syncers (and with them any residual or KV state) survive untouched,
// and the rounds on both sides of the barrier all land.
func TestRouterRerouteNoChange(t *testing.T) {
	const n = 2
	shapes := [][2]int{{2, 2}}
	allParams := identicalParams(5, shapes)
	meshes := transport.NewChanCluster(n)
	routers := make([]*Router, n)
	mtrs := make([]*metrics.Comm, n)
	for node := 0; node < n; node++ {
		mtrs[node] = metrics.NewComm()
		r, err := NewRouter(Config{
			Mesh:      meshes[node],
			Plans:     []ParamPlan{{Index: 0, Rows: 2, Cols: 2, Route: RouteOneBit}},
			Params:    allParams[node],
			Scale:     1,
			Metrics:   mtrs[node],
			PlanShape: func(int) ([]ParamPlan, error) { return nil, nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		routers[node] = r
		r.Start()
	}
	t.Cleanup(func() {
		meshes[0].Close()
		for _, r := range routers {
			r.Stop()
		}
	})
	var wg sync.WaitGroup
	errs := make([]error, n)
	for node := 0; node < n; node++ {
		node, r := node, routers[node]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 2; iter++ {
				if iter == 1 {
					before := r.syncers[0]
					vc, err := plannedBarrier(r, 1)
					if err == nil && (vc.RestartIter != 1 || r.syncers[0] != before) {
						err = fmt.Errorf("no-change barrier committed %+v and rebuilt the syncer", vc)
					}
					if err != nil {
						errs[node] = err
						return
					}
				}
				r.WaitFor(iter)
				g := tensor.NewMatrix(2, 2)
				g.Fill(1)
				if err := r.LaunchAll(iter, []*tensor.Matrix{g}); err != nil {
					errs[node] = err
					return
				}
			}
			r.WaitFor(2)
		}()
	}
	wg.Wait()
	for node, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", node, err)
		}
	}
	ref := mats(shapes)
	routers[0].Adopt(ref)
	for node, r := range routers {
		if ev := mtrs[node].Snapshot().ReplanEvents; len(ev) != 0 {
			t.Fatalf("node %d logged flips at a no-change barrier: %+v", node, ev)
		}
		got := mats(shapes)
		r.Adopt(got)
		for j, v := range got[0].Data {
			// Two rounds of Σ(1+1) each: the first 1-bit round transmits
			// the sign-scaled value, so compare the replicas bit for bit
			// and check both rounds moved the parameter.
			if math.Float32bits(v) != math.Float32bits(ref[0].Data[j]) {
				t.Fatalf("node %d elem %d: %g, node 0 has %g", node, j, v, ref[0].Data[j])
			}
			if v == allParams[0][0].Data[j] {
				t.Fatalf("node %d elem %d never moved: a round was lost at the barrier", node, j)
			}
		}
	}
}

// Waiting at a barrier that was never armed must error rather than park:
// AwaitView with no PlanView before it, and again once a planned barrier
// has committed and disarmed itself.
func TestRouterAwaitRerouteUnarmed(t *testing.T) {
	meshes := transport.NewChanCluster(1)
	defer meshes[0].Close()
	r, err := NewRouter(Config{
		Mesh:   meshes[0],
		Plans:  []ParamPlan{{Index: 0, Rows: 2, Cols: 2, Route: RoutePS}},
		Params: []*tensor.Matrix{tensor.NewMatrix(2, 2)},
		Scale:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer r.Stop()
	if _, err := r.AwaitView(0); err == nil {
		t.Fatal("AwaitView on an unarmed barrier must error")
	}
	if _, err := plannedBarrier(r, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AwaitView(0); err == nil {
		t.Fatal("AwaitView after the planned barrier committed must error")
	}
}

// A worker parked at a planned barrier must observe a router failure —
// the halt and view frames it is waiting for will never arrive once a
// peer is gone, and hanging there would wedge the cluster teardown.
func TestRouterPlannedBarrierUnblocksOnFailure(t *testing.T) {
	const n = 2
	meshes := transport.NewChanCluster(n)
	routers := make([]*Router, n)
	for node := 0; node < n; node++ {
		r, err := NewRouter(Config{
			Mesh:   meshes[node],
			Plans:  []ParamPlan{{Index: 0, Rows: 2, Cols: 2, Route: RoutePS}},
			Params: []*tensor.Matrix{tensor.NewMatrix(2, 2)},
			Scale:  1,
		})
		if err != nil {
			t.Fatal(err)
		}
		routers[node] = r
		r.Start()
	}
	t.Cleanup(func() {
		meshes[0].Close()
		for _, r := range routers {
			r.Stop()
		}
	})
	// Node 1 halts at barrier 0 and waits for a decision that will never
	// come (node 0, the leader, never reaches the barrier).
	done := make(chan error, 1)
	go func() {
		_, err := plannedBarrier(routers[1], 0)
		done <- err
	}()
	if err := waitViewPending(routers[1]); err != nil {
		t.Fatal(err)
	}
	// Poison node 1's receive loop with a malformed frame.
	if err := meshes[0].Send(1, transport.Message{Type: transport.MsgPush, Layer: 99}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("planned barrier returned nil after the router failed")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("planned barrier still parked 10s after the router failed")
	}
}
