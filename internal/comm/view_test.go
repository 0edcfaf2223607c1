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

// mats allocates one zero matrix per shape.
func mats(shapes [][2]int) []*tensor.Matrix {
	var ms []*tensor.Matrix
	for _, s := range shapes {
		ms = append(ms, tensor.NewMatrix(s[0], s[1]))
	}
	return ms
}

// runElastic drives one node's compute loop from start up to (but not
// launching) iters, folding membership barriers where they appear: after
// every WaitFor it checks ViewPending, runs AwaitView, captures the
// adopted replica, and resumes at the restart iteration. Every launched
// gradient is fill on all elements, so a P-member round adds Σ(rank+1)
// per element. Returns the observed view changes and, aligned with them,
// the replica snapshot right after each barrier.
func runElastic(r *Router, start, iters int, shapes [][2]int, fill float32) ([]ViewChange, [][]*tensor.Matrix, error) {
	var changes []ViewChange
	var snaps [][]*tensor.Matrix
	iter := start
	for {
		r.WaitFor(iter)
		if r.ViewPending() {
			vc, err := r.AwaitView(iter)
			if err != nil {
				return changes, snaps, err
			}
			changes = append(changes, vc)
			if vc.Left {
				return changes, snaps, nil
			}
			snap := mats(shapes)
			r.Adopt(snap)
			snaps = append(snaps, snap)
			iter = vc.RestartIter
			continue
		}
		if err := r.Err(); err != nil {
			return changes, snaps, err
		}
		if iter >= iters {
			return changes, snaps, nil
		}
		grads := mats(shapes)
		for _, g := range grads {
			g.Fill(fill)
		}
		if err := r.LaunchAll(iter, grads); err != nil {
			return changes, snaps, err
		}
		iter++
	}
}

// waitViewPending polls until a membership transition is observed — the
// test-side stand-in for a compute loop that is between iterations when
// the transport event lands.
func waitViewPending(r *Router) error {
	deadline := time.Now().Add(10 * time.Second)
	for !r.ViewPending() {
		if err := r.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no membership change observed within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// assertReplicasIdentical checks the surviving replicas are
// byte-for-byte equal — the invariant leader-bytes adoption plus
// worker-id-ordered folds must preserve across membership changes.
func assertReplicasIdentical(t *testing.T, routers map[int]*Router, shapes [][2]int) {
	t.Helper()
	var refNode int
	var ref []*tensor.Matrix
	for node, r := range routers {
		got := mats(shapes)
		r.Adopt(got)
		if ref == nil {
			refNode, ref = node, got
			continue
		}
		for pi, p := range got {
			for j, v := range p.Data {
				if math.Float32bits(v) != math.Float32bits(ref[pi].Data[j]) {
					t.Fatalf("replicas diverged: node %d param %d[%d] = %g, node %d has %g",
						node, pi, j, v, refNode, ref[pi].Data[j])
				}
			}
		}
	}
}

// A clean crash barrier: all three nodes complete rounds 0..2, rank 2 is
// killed, and the survivors re-form at epoch 1 with exact arithmetic —
// the adopted replica is initial + 3·Σ(1..3), the two remaining rounds
// add Σ(1..2) each, and a PlanShape hook re-routes param 1 to SFB for
// the smaller cluster.
func TestRouterViewChangeOnCrash(t *testing.T) {
	baseline := transport.OutstandingPayloadLeases()
	const n = 3
	shapes := [][2]int{{4, 6}, {2, 3}}
	allParams := identicalParams(11, shapes)

	cl := transport.NewElasticChanCluster(n)
	routers := make([]*Router, n)
	mtrs := make([]*metrics.Comm, n)
	for node := 0; node < n; node++ {
		mtrs[node] = metrics.NewComm()
		r, err := NewRouter(Config{
			Mesh:    cl.Endpoint(node),
			Elastic: true,
			Plans: []ParamPlan{
				{Index: 0, Rows: 4, Cols: 6, Route: RoutePS},
				{Index: 1, Rows: 2, Cols: 3, Route: RoutePS},
			},
			Params:   allParams[node],
			Scale:    1,
			Overlap:  true,
			Metrics:  mtrs[node],
			ScaleFor: func(int) float32 { return 1 },
			PlanShape: func(workers int) ([]ParamPlan, error) {
				if workers != 2 {
					return nil, nil // keep current routes
				}
				return []ParamPlan{
					{Index: 0, Rows: 4, Cols: 6, Route: RoutePS},
					{Index: 1, Rows: 2, Cols: 3, Route: RouteSFB},
				}, nil
			},
			SFSource: func(node int) func(index int) func() *tensor.SufficientFactor {
				return func(index int) func() *tensor.SufficientFactor {
					if index != 1 {
						return nil
					}
					return func() *tensor.SufficientFactor {
						u := tensor.NewMatrix(1, 2)
						u.Fill(float32(node + 1))
						v := tensor.NewMatrix(1, 3)
						v.Fill(1)
						return &tensor.SufficientFactor{U: u, V: v}
					}
				}
			}(node),
		})
		if err != nil {
			t.Fatal(err)
		}
		routers[node] = r
		r.Start()
	}
	t.Cleanup(func() {
		cl.Close()
		for _, r := range routers {
			r.Stop()
		}
	})

	// Phase A: three full rounds on the full mesh, then drain.
	var phaseA sync.WaitGroup
	errs := make([]error, n)
	for node := 0; node < n; node++ {
		node, r := node, routers[node]
		phaseA.Add(1)
		go func() {
			defer phaseA.Done()
			_, _, errs[node] = runElastic(r, 0, 3, shapes, float32(node+1))
		}()
	}
	phaseA.Wait()
	for node, err := range errs {
		if err != nil {
			t.Fatalf("node %d phase A: %v", node, err)
		}
	}

	cl.Kill(2)

	// Phase B: the survivors observe the death, re-form, and finish.
	var phaseB sync.WaitGroup
	vcs := make([]ViewChange, n)
	for node := 0; node < 2; node++ {
		node, r := node, routers[node]
		phaseB.Add(1)
		go func() {
			defer phaseB.Done()
			if err := waitViewPending(r); err != nil {
				errs[node] = err
				return
			}
			vc, err := r.AwaitView(3)
			if err != nil {
				errs[node] = err
				return
			}
			vcs[node] = vc
			_, _, errs[node] = runElastic(r, vc.RestartIter, 6, shapes, float32(node+1))
		}()
	}
	phaseB.Wait()
	for node := 0; node < 2; node++ {
		if errs[node] != nil {
			t.Fatalf("node %d phase B: %v", node, errs[node])
		}
	}

	wantView := cluster.View{Epoch: 1, Members: []int{0, 1}}
	survivors := map[int]*Router{0: routers[0], 1: routers[1]}
	for node := 0; node < 2; node++ {
		vc := vcs[node]
		if !vc.View.Equal(wantView) || vc.RestartIter != 3 || vc.Left {
			t.Fatalf("node %d view change %+v, want %v restart 3", node, vc, wantView)
		}
		if got := routers[node].View(); !got.Equal(wantView) {
			t.Fatalf("node %d live view %v, want %v", node, got, wantView)
		}
		if got := routers[node].Routes(); got[0] != RoutePS || got[1] != RouteSFB {
			t.Fatalf("node %d routes %v after shape replan, want [PS SFB]", node, got)
		}
		if e := mtrs[node].MembershipEpoch(); e != 1 {
			t.Fatalf("node %d metrics epoch %d, want 1", node, e)
		}
		snap := mtrs[node].Snapshot()
		if len(snap.ViewChanges) != 1 {
			t.Fatalf("node %d logged %d view changes, want 1: %+v", node, len(snap.ViewChanges), snap.ViewChanges)
		}
		ev := snap.ViewChanges[0]
		if ev.Epoch != 1 || ev.RestartIter != 3 || len(ev.Dead) != 1 || ev.Dead[0] != 2 ||
			len(ev.Joined) != 0 || len(ev.Left) != 0 {
			t.Fatalf("node %d view-change event %+v", node, ev)
		}
		// The shape replan's flip is logged like a planned barrier's.
		if len(snap.ReplanEvents) != 1 {
			t.Fatalf("node %d logged %d route flips, want 1: %+v", node, len(snap.ReplanEvents), snap.ReplanEvents)
		}
		if e := snap.ReplanEvents[0]; e.Iter != 3 || e.Param != 1 || e.From != "PS" || e.To != "SFB" {
			t.Fatalf("node %d route flip %+v, want param 1 PS→SFB at restart 3", node, e)
		}
	}
	assertReplicasIdentical(t, survivors, shapes)

	// Exact arithmetic: rounds 0..2 at three workers (+6 each), the
	// barrier adopts that state, rounds 3..5 at two workers (+3 each).
	want := float32(3*(1+2+3) + 3*(1+2))
	for node := 0; node < 2; node++ {
		got := mats(shapes)
		routers[node].Adopt(got)
		for pi, p := range got {
			for j, v := range p.Data {
				if exp := allParams[0][pi].Data[j] + want; absDiff(v, exp) > 1e-4 {
					t.Fatalf("node %d param %d[%d]: %g, want %g", node, pi, j, v, exp)
				}
			}
		}
	}

	cl.Close()
	for _, r := range routers {
		r.Stop()
	}
	deadline := time.Now().Add(5 * time.Second)
	for transport.OutstandingPayloadLeases() != baseline {
		if time.Now().After(deadline) {
			t.Fatalf("payload leases leaked across the crash barrier: %d outstanding, baseline %d",
				transport.OutstandingPayloadLeases(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// A crash with frames in flight: rank 2 stops mid-stream (no drain) and
// is killed while its last round is incomplete. The fence must discard
// every frame below the restart iteration, the survivors must adopt one
// replica, and the post-restart arithmetic must hold from that snapshot.
func TestRouterViewChangeCrashMidStream(t *testing.T) {
	baseline := transport.OutstandingPayloadLeases()
	const n = 3
	const iters = 8
	shapes := [][2]int{{4, 6}, {2, 3}}
	allParams := identicalParams(23, shapes)

	cl := transport.NewElasticChanCluster(n)
	routers := make([]*Router, n)
	for node := 0; node < n; node++ {
		r, err := NewRouter(Config{
			Mesh:    cl.Endpoint(node),
			Elastic: true,
			Plans: []ParamPlan{
				{Index: 0, Rows: 4, Cols: 6, Route: RoutePS},
				{Index: 1, Rows: 2, Cols: 3, Route: RoutePS},
			},
			Params:     allParams[node],
			Scale:      1,
			Overlap:    true,
			ChunkElems: 5,
			ScaleFor:   func(int) float32 { return 1 },
		})
		if err != nil {
			t.Fatal(err)
		}
		routers[node] = r
		r.Start()
	}
	t.Cleanup(func() {
		cl.Close()
		for _, r := range routers {
			r.Stop()
		}
	})

	// The survivors train toward iters from the start; rank 2 launches
	// rounds 0..2 and vanishes without draining, so its last
	// contributions may be anywhere between queued and folded.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	vcs := make([][]ViewChange, 2)
	snaps := make([][][]*tensor.Matrix, 2)
	for node := 0; node < 2; node++ {
		node, r := node, routers[node]
		wg.Add(1)
		go func() {
			defer wg.Done()
			vcs[node], snaps[node], errs[node] = runElastic(r, 0, iters, shapes, float32(node+1))
		}()
	}
	ready := make(chan struct{})
	go func() {
		r := routers[2]
		for iter := 0; iter < 3; iter++ {
			r.WaitFor(iter)
			grads := mats(shapes)
			for _, g := range grads {
				g.Fill(3)
			}
			if r.LaunchAll(iter, grads) != nil {
				break
			}
		}
		close(ready)
	}()
	<-ready
	cl.Kill(2)
	wg.Wait()
	for node, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", node, err)
		}
	}

	wantView := cluster.View{Epoch: 1, Members: []int{0, 1}}
	for node := 0; node < 2; node++ {
		if len(vcs[node]) != 1 {
			t.Fatalf("node %d saw %d view changes, want 1: %+v", node, len(vcs[node]), vcs[node])
		}
		if vc := vcs[node][0]; !vc.View.Equal(wantView) || vc.Left {
			t.Fatalf("node %d view change %+v, want %v", node, vc, wantView)
		}
	}
	restart := vcs[0][0].RestartIter
	if other := vcs[1][0].RestartIter; other != restart {
		t.Fatalf("survivors disagree on restart iteration: %d vs %d", restart, other)
	}
	if restart < 2 || restart > 4 {
		// Rank 2 passed WaitFor(2), so the survivors launched round 1
		// (their pushes fed that barrier) and halt at 2 or later; rank 2
		// never launched round 3, so no survivor can pass WaitFor(4).
		// Anything between depends on which overlapped broadcasts the
		// kill cut off.
		t.Fatalf("restart iteration %d outside the reachable range [2,4]", restart)
	}

	// The adopted snapshots must agree byte-for-byte, and the finish
	// must be exactly snapshot + (iters-restart) two-worker rounds.
	for pi := range shapes {
		for j, v := range snaps[0][0][pi].Data {
			if math.Float32bits(v) != math.Float32bits(snaps[1][0][pi].Data[j]) {
				t.Fatalf("adopted snapshots diverge at param %d[%d]: %g vs %g",
					pi, j, v, snaps[1][0][pi].Data[j])
			}
		}
	}
	survivors := map[int]*Router{0: routers[0], 1: routers[1]}
	assertReplicasIdentical(t, survivors, shapes)
	want := float32((iters - restart) * (1 + 2))
	for node := 0; node < 2; node++ {
		got := mats(shapes)
		routers[node].Adopt(got)
		for pi, p := range got {
			for j, v := range p.Data {
				if exp := snaps[node][0][pi].Data[j] + want; absDiff(v, exp) > 1e-4 {
					t.Fatalf("node %d param %d[%d]: %g, want snapshot+%g = %g",
						node, pi, j, v, want, exp)
				}
			}
		}
	}

	cl.Close()
	for _, r := range routers {
		r.Stop()
	}
	// Frames that were queued for the killed rank when it died are
	// stranded in its inbox (its receive loop is gone); re-attaching the
	// slot drains and releases them, like the OS reclaiming a dead
	// process's socket buffers.
	cl.Join(2)
	deadline := time.Now().Add(5 * time.Second)
	for transport.OutstandingPayloadLeases() != baseline {
		if time.Now().After(deadline) {
			t.Fatalf("payload leases leaked across the mid-stream crash: %d outstanding, baseline %d",
				transport.OutstandingPayloadLeases(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// A voluntary departure: rank 2 calls Leave after round 2, receives
// Left=true, and the survivors re-form and finish with exact arithmetic.
func TestRouterViewChangeGracefulLeave(t *testing.T) {
	const n = 3
	shapes := [][2]int{{4, 6}}
	allParams := identicalParams(17, shapes)

	cl := transport.NewElasticChanCluster(n)
	routers := make([]*Router, n)
	mtrs := make([]*metrics.Comm, n)
	for node := 0; node < n; node++ {
		mtrs[node] = metrics.NewComm()
		r, err := NewRouter(Config{
			Mesh:    cl.Endpoint(node),
			Elastic: true,
			Plans:   []ParamPlan{{Index: 0, Rows: 4, Cols: 6, Route: RoutePS}},
			Params:  allParams[node],
			Scale:   1,
			Metrics: mtrs[node],
		})
		if err != nil {
			t.Fatal(err)
		}
		routers[node] = r
		r.Start()
	}
	t.Cleanup(func() {
		cl.Close()
		for _, r := range routers {
			r.Stop()
		}
	})

	var phaseA sync.WaitGroup
	errs := make([]error, n)
	for node := 0; node < n; node++ {
		node, r := node, routers[node]
		phaseA.Add(1)
		go func() {
			defer phaseA.Done()
			_, _, errs[node] = runElastic(r, 0, 3, shapes, float32(node+1))
		}()
	}
	phaseA.Wait()
	for node, err := range errs {
		if err != nil {
			t.Fatalf("node %d phase A: %v", node, err)
		}
	}

	if err := routers[2].Leave(); err != nil {
		t.Fatal(err)
	}

	var phaseB sync.WaitGroup
	vcs := make([]ViewChange, n)
	for node := 0; node < n; node++ {
		node, r := node, routers[node]
		phaseB.Add(1)
		go func() {
			defer phaseB.Done()
			if err := waitViewPending(r); err != nil {
				errs[node] = err
				return
			}
			vc, err := r.AwaitView(3)
			if err != nil {
				errs[node] = err
				return
			}
			vcs[node] = vc
			if vc.Left {
				return
			}
			_, _, errs[node] = runElastic(r, vc.RestartIter, 6, shapes, float32(node+1))
		}()
	}
	phaseB.Wait()
	for node, err := range errs {
		if err != nil {
			t.Fatalf("node %d phase B: %v", node, err)
		}
	}

	if !vcs[2].Left {
		t.Fatalf("leaver's view change %+v, want Left", vcs[2])
	}
	wantView := cluster.View{Epoch: 1, Members: []int{0, 1}}
	for node := 0; node < 2; node++ {
		if vc := vcs[node]; !vc.View.Equal(wantView) || vc.RestartIter != 3 || vc.Left {
			t.Fatalf("node %d view change %+v, want %v restart 3", node, vc, wantView)
		}
		ev := mtrs[node].Snapshot().ViewChanges
		if len(ev) != 1 || len(ev[0].Left) != 1 || ev[0].Left[0] != 2 || len(ev[0].Dead) != 0 {
			t.Fatalf("node %d view-change events %+v, want one with Left [2]", node, ev)
		}
	}
	assertReplicasIdentical(t, map[int]*Router{0: routers[0], 1: routers[1]}, shapes)
	// No ScaleFor hook: the router's default rescale multiplies the
	// update scale by oldP/newP = 3/2, so post-departure rounds add
	// 1.5·Σ(1..2) each.
	want := float32(3*(1+2+3)) + 3*1.5*float32(1+2)
	for node := 0; node < 2; node++ {
		got := mats(shapes)
		routers[node].Adopt(got)
		for j, v := range got[0].Data {
			if exp := allParams[0][0].Data[j] + want; absDiff(v, exp) > 1e-4 {
				t.Fatalf("node %d param 0[%d]: %g, want %g", node, j, v, exp)
			}
		}
	}
}

// A late join: a two-member cluster trains three rounds, slot 2 attaches
// with a Joining router, and the barrier adopts it — all three replicas
// finish byte-identical with exact arithmetic.
func TestRouterViewChangeJoin(t *testing.T) {
	const n = 3
	shapes := [][2]int{{4, 6}, {2, 3}}
	allParams := identicalParams(29, shapes)
	initialView := cluster.View{Epoch: 0, Members: []int{0, 1}}

	cl := transport.NewElasticChanCluster(n)
	mkConfig := func(node int, joining bool) Config {
		return Config{
			Mesh:    cl.Endpoint(node),
			Elastic: true,
			View:    initialView.Clone(),
			Joining: joining,
			Plans: []ParamPlan{
				{Index: 0, Rows: 4, Cols: 6, Route: RoutePS},
				{Index: 1, Rows: 2, Cols: 3, Route: RoutePS},
			},
			Params:   allParams[node],
			Scale:    1,
			Metrics:  metrics.NewComm(),
			ScaleFor: func(int) float32 { return 1 },
		}
	}
	routers := make([]*Router, 2, n)
	for node := 0; node < 2; node++ {
		r, err := NewRouter(mkConfig(node, false))
		if err != nil {
			t.Fatal(err)
		}
		routers[node] = r
		r.Start()
	}
	t.Cleanup(func() {
		cl.Close()
		for _, r := range routers {
			r.Stop()
		}
	})

	var phaseA sync.WaitGroup
	errs := make([]error, n)
	for node := 0; node < 2; node++ {
		node, r := node, routers[node]
		phaseA.Add(1)
		go func() {
			defer phaseA.Done()
			_, _, errs[node] = runElastic(r, 0, 3, shapes, float32(node+1))
		}()
	}
	phaseA.Wait()
	for node, err := range errs {
		if err != nil {
			t.Fatalf("node %d phase A: %v", node, err)
		}
	}

	// Attach slot 2 and hand it a joining router: it broadcasts nothing
	// and waits in AwaitView(0) to be adopted wholesale.
	cl.Join(2)
	joiner, err := NewRouter(mkConfig(2, true))
	if err != nil {
		t.Fatal(err)
	}
	routers = append(routers, joiner)
	joiner.Start()

	var phaseB sync.WaitGroup
	vcs := make([]ViewChange, n)
	for node := 0; node < n; node++ {
		node, r := node, routers[node]
		phaseB.Add(1)
		go func() {
			defer phaseB.Done()
			if node != 2 {
				if err := waitViewPending(r); err != nil {
					errs[node] = err
					return
				}
			}
			vc, err := r.AwaitView(3)
			if err != nil {
				errs[node] = err
				return
			}
			vcs[node] = vc
			_, _, errs[node] = runElastic(r, vc.RestartIter, 6, shapes, float32(node+1))
		}()
	}
	phaseB.Wait()
	for node, err := range errs {
		if err != nil {
			t.Fatalf("node %d phase B: %v", node, err)
		}
	}

	wantView := cluster.View{Epoch: 1, Members: []int{0, 1, 2}}
	for node := 0; node < n; node++ {
		if vc := vcs[node]; !vc.View.Equal(wantView) || vc.RestartIter != 3 || vc.Left {
			t.Fatalf("node %d view change %+v, want %v restart 3", node, vc, wantView)
		}
		if got := routers[node].View(); !got.Equal(wantView) {
			t.Fatalf("node %d live view %v, want %v", node, got, wantView)
		}
	}

	all := map[int]*Router{0: routers[0], 1: routers[1], 2: routers[2]}
	assertReplicasIdentical(t, all, shapes)
	// Rounds 0..2 at two workers (+3 each), rounds 3..5 at three (+6).
	want := float32(3*(1+2) + 3*(1+2+3))
	for node := 0; node < n; node++ {
		got := mats(shapes)
		routers[node].Adopt(got)
		for pi, p := range got {
			for j, v := range p.Data {
				if exp := allParams[0][pi].Data[j] + want; absDiff(v, exp) > 1e-4 {
					t.Fatalf("node %d param %d[%d]: %g, want %g", node, pi, j, v, exp)
				}
			}
		}
	}
}

// Fixed-size routers run planned barriers (same members, next epoch)
// but reject the membership surface — Leave, Joining, and halts that
// carry membership observations — outright: a protocol bug, not a
// hang. Any router rejects a VIEW whose replica handoff does not match
// its member change.
func TestRouterViewAPIFixedSize(t *testing.T) {
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
	if err := r.Leave(); err == nil {
		t.Fatal("Leave on a fixed-size router must error")
	}
	if r.ViewPending() {
		t.Fatal("fixed-size router reports a pending view change")
	}
	if got := r.View(); !got.Equal(cluster.Initial(1)) {
		t.Fatalf("fixed-size router view %v, want %v", got, cluster.Initial(1))
	}
	// Planned barriers are the one view change a fixed-size router runs:
	// same members, next epoch, restart at the barrier.
	vc, err := plannedBarrier(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := (cluster.View{Epoch: 1, Members: []int{0}}); !vc.View.Equal(want) || vc.RestartIter != 0 || vc.Left {
		t.Fatalf("planned barrier committed %+v, want %v restart 0", vc, want)
	}
	// Halts: only a planned one without membership observations folds.
	for _, tc := range []struct {
		name string
		h    haltPayload
		ok   bool
	}{
		{"planned", haltPayload{epoch: 1, planned: true}, true},
		{"unplanned", haltPayload{epoch: 1}, false},
		{"planned leave", haltPayload{epoch: 1, planned: true, leave: true}, false},
		{"planned dead", haltPayload{epoch: 1, planned: true, dead: []int{1}}, false},
		{"planned joined", haltPayload{epoch: 1, planned: true, joined: []int{1}}, false},
	} {
		msg := transport.Message{Type: transport.MsgViewHalt, From: 0, Layer: -1, Iter: 4, Payload: appendHaltPayload(nil, tc.h)}
		if err := r.handleViewHalt(msg); (err == nil) != tc.ok {
			t.Fatalf("%s halt on a fixed-size router: err %v, want accepted=%v", tc.name, err, tc.ok)
		}
	}
	r.routeMu.Lock()
	r.deferred = nil // the accepted planned halt waits for a barrier that never opens
	// VIEW: the replica rides along exactly when the members change.
	for _, tc := range []struct {
		name string
		pv   viewPayload
	}{
		{"same members with params", viewPayload{
			view: cluster.View{Epoch: 2, Members: []int{0}}, restart: 4,
			routes: []byte{byte(RoutePS)}, params: [][]float32{make([]float32, 4)}}},
		{"new members without params", viewPayload{
			view: cluster.View{Epoch: 2, Members: []int{0, 1}}, restart: 4,
			routes: []byte{byte(RoutePS)}}},
	} {
		p := &pendingView{view: &tc.pv, timer: time.NewTimer(time.Hour)}
		if _, err := r.applyViewLocked(p); err == nil {
			r.routeMu.Unlock()
			t.Fatalf("VIEW %s applied", tc.name)
		}
	}
	r.routeMu.Unlock()
	if got := r.View(); got.Epoch != 1 {
		t.Fatalf("rejected VIEWs moved the router to %v", got)
	}
	if _, err := NewRouter(Config{
		Mesh:    meshes[0],
		Joining: true,
		Plans:   []ParamPlan{{Index: 0, Rows: 2, Cols: 2, Route: RoutePS}},
		Params:  []*tensor.Matrix{tensor.NewMatrix(2, 2)},
		Scale:   1,
	}); err == nil {
		t.Fatal("Joining without Elastic must be rejected")
	}
}
