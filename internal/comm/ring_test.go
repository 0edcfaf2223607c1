package comm

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// identicalParamsN is identicalParams for an arbitrary node count.
func identicalParamsN(seed int64, shapes [][2]int, n int) [][]*tensor.Matrix {
	all := make([][]*tensor.Matrix, n)
	for node := range all {
		rng := rand.New(rand.NewSource(seed))
		for _, s := range shapes {
			m := tensor.NewMatrix(s[0], s[1])
			m.Randn(rng, 0.5)
			all[node] = append(all[node], m)
		}
	}
	return all
}

// runCollectiveCluster trains an n-node cluster where every parameter
// rides route, over several iterations with integer updates, and checks
// the collective invariants: every replica ends at exactly
// initial + iters·Σ(node+1) (ring folds of small integers are exact in
// float32), replicas are byte-identical across nodes, and no payload
// lease outlives the run.
func runCollectiveCluster(t *testing.T, n int, route Route, overlap bool, staleness int) {
	t.Helper()
	baseline := transport.OutstandingPayloadLeases()

	const iters = 4
	// 4×6 exercises uneven segments (24 elems over n), 1×3 forces
	// zero-length segments whenever n > 3, 1×1 is the degenerate single
	// value every worker but one contributes to an empty slice of.
	shapes := [][2]int{{4, 6}, {1, 3}, {1, 1}}
	allParams := identicalParamsN(13, shapes, n)

	meshes := transport.NewChanCluster(n)
	routers := make([]*Router, n)
	for node := 0; node < n; node++ {
		plans := make([]ParamPlan, len(shapes))
		for i, s := range shapes {
			plans[i] = ParamPlan{Index: i, Rows: s[0], Cols: s[1], Route: route}
		}
		r, err := NewRouter(Config{
			Mesh:      meshes[node],
			Plans:     plans,
			Params:    allParams[node],
			Scale:     1,
			Overlap:   overlap,
			Staleness: staleness,
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
			for iter := 0; iter < iters; iter++ {
				r.WaitFor(iter)
				grads := make([]*tensor.Matrix, len(shapes))
				for i, s := range shapes {
					grads[i] = tensor.NewMatrix(s[0], s[1])
					grads[i].Fill(float32(node + 1))
				}
				if err := r.LaunchAll(iter, grads); err != nil {
					errs[node] = err
					return
				}
			}
			// Full drain: under SSP the last staleness rounds are still in
			// flight at WaitFor(iters).
			r.WaitFor(iters + staleness)
		}()
	}
	wg.Wait()
	for node, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", node, err)
		}
	}

	// The staged replica folds one exact integer sum per iteration, so
	// the expected value replays the same float32 accumulation order.
	perIter := float32(n * (n + 1) / 2)
	exact := func(initial float32) float32 {
		for i := 0; i < iters; i++ {
			initial += perIter
		}
		return initial
	}
	var first []*tensor.Matrix
	for node, r := range routers {
		params := make([]*tensor.Matrix, len(shapes))
		for i, s := range shapes {
			params[i] = tensor.NewMatrix(s[0], s[1])
		}
		r.Adopt(params)
		for pi, p := range params {
			for j, v := range p.Data {
				if exp := exact(allParams[0][pi].Data[j]); v != exp {
					t.Fatalf("n=%d node %d param %d[%d]: %g, want exactly %g",
						n, node, pi, j, v, exp)
				}
			}
		}
		if node == 0 {
			first = params
		} else {
			for pi, p := range params {
				for j, v := range p.Data {
					if math.Float32bits(v) != math.Float32bits(first[pi].Data[j]) {
						t.Fatalf("n=%d node %d param %d[%d] diverged bitwise from node 0", n, node, pi, j)
					}
				}
			}
		}
		if err := r.Err(); err != nil {
			t.Fatalf("node %d: %v", node, err)
		}
	}

	meshes[0].Close()
	for _, r := range routers {
		r.Stop()
	}
	deadline := time.Now().Add(5 * time.Second)
	for transport.OutstandingPayloadLeases() != baseline {
		if time.Now().After(deadline) {
			t.Fatalf("payload leases leaked: %d outstanding, baseline %d",
				transport.OutstandingPayloadLeases(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// Ring all-reduce rounds across worker counts, including the n=1
// degenerate local apply, serialized and overlapped, BSP and SSP.
func TestRouterRingRound(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8} {
		runCollectiveCluster(t, n, RouteRing, false, 0)
		runCollectiveCluster(t, n, RouteRing, true, 0)
	}
	// Stale rounds keep two collectives of the same parameter in flight.
	runCollectiveCluster(t, 4, RouteRing, true, 2)
}

// Tree/ring hierarchy across shapes: full square grids (4, 9), a tail
// group of one (7: groups {0,1,2}{3,4,5}{6}), short tails (3, 5), the
// single-group degenerate (2), and a lone worker.
func TestRouterTreeRingRound(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 9} {
		runCollectiveCluster(t, n, RouteTreeRing, false, 0)
		runCollectiveCluster(t, n, RouteTreeRing, true, 0)
	}
	runCollectiveCluster(t, 5, RouteTreeRing, true, 1)
}

// Replicas must stay bit-identical even when every node contributes
// different irrational-ish values — the rank-order fold guarantees all
// replicas apply the same association, so the float32 results agree to
// the last bit (the property the e2e PARAMS digest check rides on).
func TestRingFoldBitDeterminism(t *testing.T) {
	for _, route := range []Route{RouteRing, RouteTreeRing} {
		const n = 5
		const iters = 3
		shapes := [][2]int{{8, 7}}
		allParams := identicalParamsN(17, shapes, n)
		meshes := transport.NewChanCluster(n)
		routers := make([]*Router, n)
		for node := 0; node < n; node++ {
			r, err := NewRouter(Config{
				Mesh:    meshes[node],
				Plans:   []ParamPlan{{Index: 0, Rows: 8, Cols: 7, Route: route}},
				Params:  allParams[node],
				Scale:   -0.05,
				Overlap: true,
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
		for node := 0; node < n; node++ {
			node, r := node, routers[node]
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(100 + node)))
				for iter := 0; iter < iters; iter++ {
					r.WaitFor(iter)
					g := tensor.NewMatrix(8, 7)
					g.Randn(rng, 1.0)
					if err := r.LaunchAll(iter, []*tensor.Matrix{g}); err != nil {
						t.Error(err)
						return
					}
				}
				r.WaitFor(iters)
			}()
		}
		wg.Wait()
		var ref *tensor.Matrix
		for node, r := range routers {
			p := []*tensor.Matrix{tensor.NewMatrix(8, 7)}
			r.Adopt(p)
			if node == 0 {
				ref = p[0]
				continue
			}
			for j, v := range p[0].Data {
				if math.Float32bits(v) != math.Float32bits(ref.Data[j]) {
					t.Fatalf("%v: node %d elem %d = %x, node 0 = %x (fold order diverged)",
						route, node, j, math.Float32bits(v), math.Float32bits(ref.Data[j]))
				}
			}
			if err := r.Err(); err != nil {
				t.Fatalf("node %d: %v", node, err)
			}
		}
	}
}

// The reroute round trip through the collectives: PS→ring at iteration
// 2, ring→SFB at iteration 4, as planned barriers on a live 3-node
// cluster — exact sums through both handoffs, replan events on every
// node, and zero payload-lease leaks. Run under -race in CI, this pins
// the ring syncer's receive-loop/barrier-swap synchronization.
func TestRouterRerouteRingRoundTrip(t *testing.T) {
	for _, overlap := range []bool{false, true} {
		baseline := transport.OutstandingPayloadLeases()

		const n = 3
		const iters = 6
		barriers := map[int]Route{2: RouteRing, 4: RouteSFB}
		shapes := [][2]int{{4, 6}, {2, 3}}
		allParams := identicalParamsN(23, shapes, n)

		meshes := transport.NewChanCluster(n)
		routers := make([]*Router, n)
		mtrs := make([]*metrics.Comm, n)
		at := make([]int, n)
		for node := 0; node < n; node++ {
			node := node
			mtrs[node] = metrics.NewComm()
			r, err := NewRouter(Config{
				Mesh: meshes[node],
				Plans: []ParamPlan{
					{Index: 0, Rows: 4, Cols: 6, Route: RoutePS},
					{Index: 1, Rows: 2, Cols: 3, Route: RoutePS},
				},
				Params:  allParams[node],
				Scale:   1,
				Overlap: overlap,
				Metrics: mtrs[node],
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
						if _, err := plannedBarrier(r, iter); err != nil {
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
				r.WaitFor(iters)
			}()
		}
		wg.Wait()
		for node, err := range errs {
			if err != nil {
				t.Fatalf("node %d: %v", node, err)
			}
		}

		exact := func(initial float32) float32 {
			for i := 0; i < iters; i++ {
				initial += 1 + 2 + 3 // one exact integer fold per iteration
			}
			return initial
		}
		for node, r := range routers {
			params := []*tensor.Matrix{tensor.NewMatrix(4, 6), tensor.NewMatrix(2, 3)}
			r.Adopt(params)
			for pi, p := range params {
				for j, v := range p.Data {
					if exp := exact(allParams[0][pi].Data[j]); v != exp {
						t.Fatalf("overlap=%v node %d param %d[%d]: %g, want exactly %g (ring handoff broke the sum)",
							overlap, node, pi, j, v, exp)
					}
				}
			}
			if got := r.Routes(); got[0] != RoutePS || got[1] != RouteSFB {
				t.Fatalf("node %d final routes %v, want [PS SFB]", node, got)
			}
			snap := mtrs[node].Snapshot()
			if len(snap.ReplanEvents) != 2 {
				t.Fatalf("node %d logged %d replan events, want 2: %+v", node, len(snap.ReplanEvents), snap.ReplanEvents)
			}
			e0, e1 := snap.ReplanEvents[0], snap.ReplanEvents[1]
			if e0.Iter != 2 || e0.Param != 1 || e0.From != "PS" || e0.To != "ring" {
				t.Fatalf("node %d first replan event %+v, want PS→ring", node, e0)
			}
			if e1.Iter != 4 || e1.Param != 1 || e1.From != "ring" || e1.To != "SFB" {
				t.Fatalf("node %d second replan event %+v, want ring→SFB", node, e1)
			}
			if r.Err() != nil {
				t.Fatalf("node %d: %v", node, r.Err())
			}
		}

		meshes[0].Close()
		for _, r := range routers {
			r.Stop()
		}
		waitLeases(t, baseline)
	}
}

// treeShape pins the two-level geometry: g = ⌈√n⌉ groups of capacity g.
func TestTreeShape(t *testing.T) {
	for _, tc := range []struct{ n, g, m int }{
		{1, 1, 1}, {2, 2, 1}, {3, 2, 2}, {4, 2, 2}, {5, 3, 2},
		{7, 3, 3}, {9, 3, 3}, {10, 4, 3}, {16, 4, 4}, {17, 5, 4},
	} {
		if g, m := treeShape(tc.n); g != tc.g || m != tc.m {
			t.Fatalf("treeShape(%d) = (%d,%d), want (%d,%d)", tc.n, g, m, tc.g, tc.m)
		}
	}
}

// segRange must partition any tensor exactly, remainder-first.
func TestSegRangeCoversTensor(t *testing.T) {
	for _, elems := range []int{0, 1, 3, 24, 25, 1000} {
		for _, n := range []int{1, 2, 3, 5, 8} {
			covered := 0
			for seg := 0; seg < n; seg++ {
				off, ln := segRange(seg, elems, n)
				if off != covered {
					t.Fatalf("elems=%d n=%d seg %d starts at %d, want %d", elems, n, seg, off, covered)
				}
				covered += ln
			}
			if covered != elems {
				t.Fatalf("elems=%d n=%d: segments cover %d", elems, n, covered)
			}
		}
	}
}
