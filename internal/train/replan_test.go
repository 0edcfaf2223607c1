package train

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/transport"
)

// A run seeded with a deliberately wrong bandwidth estimate must
// correct itself at the first replan barrier: the MLP's 32×16 FC weight
// starts on SFB (the byte term dominates at the claimed 100 KB/s), the
// in-process mesh then measures orders of magnitude more than that, and
// Algorithm 1 flips the tensor to the PS — while the training
// trajectory stays within 1e-6 of the identical run with replanning
// disabled (route changes re-associate float32 sums, nothing more) and
// the replicas keep agreeing (train.Run's internal BSP checks).
func TestReplanCorrectsWrongBandwidth(t *testing.T) {
	base := Config{
		Workers: 4, Iters: 16, Batch: 2, LR: 0.05, Mode: Hybrid, Seed: 13,
		BuildNet:  mlpBuilder(16, []int{32}, 4),
		TrainSet:  smallData(101, 256),
		Bandwidth: 100e3, // claims 100 KB/s; the in-process mesh is far faster
	}

	static := base
	static.Metrics = metrics.NewComm()
	staticRes, err := Run(static)
	if err != nil {
		t.Fatal(err)
	}
	staticSnap := static.Metrics.Snapshot()
	if len(staticSnap.ReplanEvents) != 0 {
		t.Fatalf("static run logged replan events: %+v", staticSnap.ReplanEvents)
	}
	sfbAtStart := false
	for _, p := range staticSnap.Params {
		if p.Route == "SFB" {
			sfbAtStart = true
		}
	}
	if !sfbAtStart {
		t.Fatal("the claimed 100 KB/s should put the FC weight on SFB initially")
	}

	replanned := base
	replanned.Replan = ReplanSpec{Every: 8, Alpha: 1}
	replanned.Metrics = metrics.NewComm()
	replannedRes, err := Run(replanned)
	if err != nil {
		t.Fatal(err)
	}
	snap := replanned.Metrics.Snapshot()
	if len(snap.ReplanEvents) < 1 {
		t.Fatalf("no route flipped despite a 100 KB/s estimate on an in-process mesh\nestimate: %g B/s", snap.BWEstimateBPS)
	}
	for _, e := range snap.ReplanEvents {
		if e.From != "SFB" || e.To != "PS" {
			t.Fatalf("unexpected flip direction %+v (measured bandwidth should favor the PS)", e)
		}
		if e.Iter != 8 {
			t.Fatalf("flip at iteration %d, want the epoch barrier 8: %+v", e.Iter, e)
		}
	}
	if snap.BWEstimateBPS <= base.Bandwidth {
		t.Fatalf("bw_estimate_bps %g did not rise above the wrong initial %g", snap.BWEstimateBPS, base.Bandwidth)
	}

	// Loss parity: replanning changes which wires carry the update, not
	// the update itself.
	if len(replannedRes.Curve) != len(staticRes.Curve) {
		t.Fatalf("curve lengths differ: %d vs %d", len(replannedRes.Curve), len(staticRes.Curve))
	}
	for i := range staticRes.Curve {
		d := math.Abs(replannedRes.Curve[i].TrainLoss - staticRes.Curve[i].TrainLoss)
		if d > 1e-6 {
			t.Fatalf("iter %d: replanned loss %.12g vs static %.12g (|d|=%g > 1e-6)",
				i, replannedRes.Curve[i].TrainLoss, staticRes.Curve[i].TrainLoss, d)
		}
	}
	if d := maxParamDiff(replannedRes.Final, staticRes.Final); d > 1e-5 {
		t.Fatalf("final replicas differ from static plan by %g", d)
	}
}

// Replanning with SSP (staleness > 0) drains and swaps cleanly. At a
// barrier every fourth iteration a fast worker runs ahead to the next
// barrier while a slow one is still behind it, so the planned halt must
// be held back until every member reaches the barrier; at a barrier
// every iteration (planned barriers arm nothing ahead of time, so the
// interval needs no slack over the staleness bound) each barrier drains
// fully. Both runs end with byte-identical replicas.
func TestReplanWithStaleness(t *testing.T) {
	for _, every := range []int{4, 1} {
		cfg := Config{
			Workers: 3, Iters: 12, Batch: 2, LR: 0.05, Mode: Hybrid, Seed: 33,
			Staleness: 1,
			BuildNet:  mlpBuilder(16, []int{32}, 4),
			TrainSet:  smallData(301, 120),
			Bandwidth: 100e3,
			Replan:    ReplanSpec{Every: every, Alpha: 1},
		}
		meshes := make([]transport.Mesh, cfg.Workers)
		for i, m := range transport.NewChanCluster(cfg.Workers) {
			meshes[i] = m
		}
		results, err := RunOverAll(cfg, meshes)
		if err != nil {
			t.Fatalf("Every=%d: %v", every, err)
		}
		for w := 1; w < cfg.Workers; w++ {
			paramsIdentical(t, fmt.Sprintf("Every=%d: worker 0 vs %d", every, w), results[0], results[w])
		}
	}
}

// A planned barrier that flips nothing is invisible to the math: PS-only
// and 1-bit runs (whose policies never re-route) replanning every four
// iterations produce loss curves and final parameters bit-identical to
// the same runs without replanning — no round is lost at a barrier, and
// the 1-bit residuals and KV shard state survive it.
func TestReplanWithoutFlipsIsBitIdentical(t *testing.T) {
	for _, mode := range []SyncMode{PSOnly, OneBit} {
		base := Config{
			Workers: 3, Iters: 14, Batch: 2, LR: 0.05, Mode: mode, Seed: 17,
			Overlap:  true,
			BuildNet: mlpBuilder(16, []int{32}, 4),
			TrainSet: smallData(211, 256),
		}
		static, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		replanning := base
		replanning.Replan = ReplanSpec{Every: 4, Alpha: 1}
		replanning.Metrics = metrics.NewComm()
		replanned, err := Run(replanning)
		if err != nil {
			t.Fatal(err)
		}
		snap := replanning.Metrics.Snapshot()
		if len(snap.ReplanEvents) != 0 {
			t.Fatalf("%v: policy that never re-routes logged flips %+v", mode, snap.ReplanEvents)
		}
		// The registry is shared: each worker logs the barriers at 4, 8
		// and 12.
		if len(snap.ViewChanges) != 3*base.Workers {
			t.Fatalf("%v: %d barrier commits logged, want 3 per worker", mode, len(snap.ViewChanges))
		}
		if len(replanned.Curve) != len(static.Curve) {
			t.Fatalf("%v: curve lengths differ: %d vs %d", mode, len(replanned.Curve), len(static.Curve))
		}
		for i := range static.Curve {
			if math.Float64bits(replanned.Curve[i].TrainLoss) != math.Float64bits(static.Curve[i].TrainLoss) {
				t.Fatalf("%v iter %d: replanned loss %.17g vs static %.17g", mode, i,
					replanned.Curve[i].TrainLoss, static.Curve[i].TrainLoss)
			}
		}
		paramsIdentical(t, mode.String(), replanned, static)
	}
}

// A replan-enabled run with no Metrics configured still measures (the
// worker attaches a private registry) and still trains.
func TestReplanWithoutExplicitMetrics(t *testing.T) {
	cfg := Config{
		Workers: 3, Iters: 8, Batch: 2, LR: 0.05, Mode: Hybrid, Seed: 7,
		BuildNet:  mlpBuilder(16, []int{32}, 4),
		TrainSet:  smallData(102, 120),
		Bandwidth: 100e3,
		Replan:    ReplanSpec{Every: 4, Alpha: 1},
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}

// Replanning must work without an initial Bandwidth claim: the first
// measured observation makes the planner bandwidth-aware (the default
// frame overhead applies because replanning is on), so the byte-rule
// initial SFB route still flips to PS once the in-process wire rate is
// measured.
func TestReplanWithoutInitialBandwidth(t *testing.T) {
	cfg := Config{
		Workers: 4, Iters: 16, Batch: 2, LR: 0.05, Mode: Hybrid, Seed: 13,
		BuildNet: mlpBuilder(16, []int{32}, 4),
		TrainSet: smallData(101, 256),
		Replan:   ReplanSpec{Every: 8, Alpha: 1},
	}
	cfg.Metrics = metrics.NewComm()
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	snap := cfg.Metrics.Snapshot()
	if len(snap.ReplanEvents) < 1 {
		t.Fatalf("no route flipped without an initial bandwidth claim (estimate %g B/s)", snap.BWEstimateBPS)
	}
	for _, e := range snap.ReplanEvents {
		if e.From != "SFB" || e.To != "PS" {
			t.Fatalf("unexpected flip %+v", e)
		}
	}
}
