package poseidon

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/nn/autodiff"
	"repro/internal/transport"
)

func mlp() ModelBuilder {
	return func(rng *rand.Rand) *autodiff.Network {
		return autodiff.MLPNet(16, []int{32}, 4, rng)
	}
}

func sessionBuilder() *Builder {
	full := data.Synthetic(100, 640, 4, 1, 4, 4, 0.3)
	trainSet, testSet := full.Split(512)
	return NewSession().
		InProcess(4).
		Iterations(12).Batch(2).LearningRate(0.05).Seed(13).
		Model(mlp()).
		Data(trainSet, testSet).EvalEvery(6)
}

// The façade end to end: build, preview the Algorithm 1 plan, run, and
// read the measured per-route traffic — the whole quickstart without
// touching an internal package.
func TestSessionRunsAndMeters(t *testing.T) {
	sess, err := sessionBuilder().CollectMetrics().Build()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	decisions, err := sess.Plan()
	if err != nil {
		t.Fatal(err)
	}
	sfb := 0
	for _, d := range decisions {
		if d.Scheme == SchemeSFB {
			sfb++
		}
	}
	if sfb < 1 {
		t.Fatalf("plan chose no SFB route for the 32×16 FC weight at K=2: %+v", decisions)
	}

	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve) != 12 {
		t.Fatalf("curve has %d points, want 12", len(res.Curve))
	}
	if res.Curve[11].TrainLoss >= res.Curve[0].TrainLoss {
		t.Fatalf("loss did not decrease: %.4f → %.4f", res.Curve[0].TrainLoss, res.Curve[11].TrainLoss)
	}
	snap, ok := sess.MetricsSnapshot()
	if !ok {
		t.Fatal("CollectMetrics session returned no snapshot")
	}
	if snap.Totals.BytesSent <= 0 || snap.Totals.SFBParams < 1 {
		t.Fatalf("metrics missing traffic: %+v", snap.Totals)
	}
}

// RunAll returns one result per worker (reference runs need every
// shard's curve), and rejects TCP sessions.
func TestSessionRunAll(t *testing.T) {
	sess, err := sessionBuilder().Build()
	if err != nil {
		t.Fatal(err)
	}
	results, err := sess.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("%d results, want 4", len(results))
	}
	for w, res := range results {
		if res == nil || len(res.Curve) != 12 {
			t.Fatalf("worker %d result malformed: %+v", w, res)
		}
	}
}

// Build validates the plan before any transport exists: an override
// naming a parameter the model does not have fails fast, naming the
// index — the poseidon-worker startup guarantee.
func TestSessionBuildRejectsBadOverrides(t *testing.T) {
	_, err := sessionBuilder().RouteOverride(99, SchemePS).Build()
	if err == nil {
		t.Fatal("out-of-range override index must fail Build")
	}
	if !strings.Contains(err.Error(), "99") {
		t.Fatalf("error does not name the bad override: %v", err)
	}

	// An infeasible scheme (SFB on a bias vector) fails too.
	if _, err := sessionBuilder().RouteOverride(1, SchemeSFB).Build(); err == nil {
		t.Fatal("SFB override on a bias vector must fail Build")
	}

	// Missing pieces fail with a named builder method.
	if _, err := NewSession().Iterations(1).Batch(1).Build(); err == nil ||
		!strings.Contains(err.Error(), "Model") {
		t.Fatalf("missing model not named: %v", err)
	}
}

// Replan wiring flows through the builder: a session with a wrong
// bandwidth claim corrects itself and logs the flip.
func TestSessionReplans(t *testing.T) {
	sess, err := sessionBuilder().
		Bandwidth(100e3).
		Replan(ReplanSpec{Every: 6, Alpha: 1}).
		CollectMetrics().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	snap, _ := sess.MetricsSnapshot()
	if len(snap.ReplanEvents) < 1 {
		t.Fatalf("no replan event despite a 100 KB/s claim on an in-process mesh (estimate %g)", snap.BWEstimateBPS)
	}
	if snap.BWEstimateBPS <= 100e3 {
		t.Fatalf("bw_estimate_bps %g did not correct upward", snap.BWEstimateBPS)
	}
	// The planned barrier at iteration 6 keeps the members and advances
	// the epoch; View() agrees with the metrics even on a fixed-size
	// session.
	if v := sess.View(); v.Epoch != 1 || v.Epoch != snap.MembershipEpoch || v.Size() != 4 {
		t.Fatalf("View() %v after one planned barrier, metrics epoch %d", v, snap.MembershipEpoch)
	}
}

// ParseRouteOverrides accepts the worker's -route syntax and rejects
// malformed pairs.
func TestParseRouteOverrides(t *testing.T) {
	m, err := ParseRouteOverrides("2=ps, 5=sfb,7=1bit")
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 3 || m[2] != SchemePS || m[5] != SchemeSFB || m[7] != SchemeOneBit {
		t.Fatalf("parsed %v", m)
	}
	if m, err := ParseRouteOverrides(""); err != nil || m != nil {
		t.Fatalf("empty flag: %v %v", m, err)
	}
	for _, bad := range []string{"nonsense", "2=warp", "-1=ps", "x=ps"} {
		if _, err := ParseRouteOverrides(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

// The elastic façade end to end: three sessions over an elastic
// channel cluster, one departing voluntarily mid-run. The survivors'
// View() and metrics snapshot must both report the successor epoch, and
// the membership-change hook must have streamed the transition.
func TestSessionElasticLeave(t *testing.T) {
	const n = 3
	cl := transport.NewElasticChanCluster(n)
	full := data.Synthetic(101, 640, 4, 1, 4, 4, 0.3)
	trainSet, _ := full.Split(512)

	mkSession := func(rank int) *Builder {
		return NewSession().
			Mesh(cl.Endpoint(rank)).
			Iterations(10).Batch(2).LearningRate(0.05).Seed(14).
			Model(mlp()).
			Data(trainSet, nil).
			Elastic(true).
			CollectMetrics()
	}

	var events []MembershipEvent
	var eventsMu sync.Mutex
	sessions := make([]*Session, n)
	for r := 0; r < n; r++ {
		b := mkSession(r)
		if r == 0 {
			b.OnMembershipChange(func(ev MembershipEvent) {
				eventsMu.Lock()
				events = append(events, ev)
				eventsMu.Unlock()
			})
		}
		if r == 2 {
			b.LeaveAt(5)
		}
		sess, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		sessions[r] = sess
	}
	if got := sessions[0].View(); got.Epoch != 0 || got.Size() != n {
		t.Fatalf("initial view = %+v, want epoch 0 size %d", got, n)
	}

	results := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[r], errs[r] = sessions[r].Run()
		}()
	}
	wg.Wait()
	cl.Close()

	for r := 0; r < n; r++ {
		if errs[r] != nil {
			t.Fatalf("session %d: %v", r, errs[r])
		}
	}
	if !results[2].Left {
		t.Fatal("leaver's result not marked Left")
	}
	for _, r := range []int{0, 1} {
		v := sessions[r].View()
		if v.Epoch != 1 || v.Size() != 2 {
			t.Fatalf("survivor %d View() = %+v, want epoch 1 size 2", r, v)
		}
		snap, ok := sessions[r].MetricsSnapshot()
		if !ok {
			t.Fatalf("survivor %d has no metrics", r)
		}
		if snap.MembershipEpoch != 1 || len(snap.ViewChanges) != 1 {
			t.Fatalf("survivor %d snapshot epoch %d, %d view changes; want 1, 1",
				r, snap.MembershipEpoch, len(snap.ViewChanges))
		}
	}
	eventsMu.Lock()
	defer eventsMu.Unlock()
	if len(events) != 1 || events[0].View.Epoch != 1 || len(events[0].Params) == 0 {
		t.Fatalf("membership hook events = %+v, want one epoch-1 event with params", events)
	}
}
