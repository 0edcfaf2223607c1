package train

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// paramsIdentical asserts two replicas agree bit-for-bit — the
// membership protocol's consistency guarantee is byte-identity, not
// approximate agreement.
func paramsIdentical(t *testing.T, label string, a, b *Result) {
	t.Helper()
	pa, pb := a.Final.Params(), b.Final.Params()
	if len(pa) != len(pb) {
		t.Fatalf("%s: %d vs %d params", label, len(pa), len(pb))
	}
	for i := range pa {
		for j := range pa[i].Data {
			if math.Float32bits(pa[i].Data[j]) != math.Float32bits(pb[i].Data[j]) {
				t.Fatalf("%s: param %d elem %d: %g vs %g", label, i, j, pa[i].Data[j], pb[i].Data[j])
			}
		}
	}
}

// TestElasticCrashContinuesAndMatchesReference kills one of three
// workers mid-training and checks the acceptance property end to end at
// the train layer: the survivors re-form at a membership barrier,
// finish byte-identical to each other, and match a two-worker reference
// run continued non-elastically from the snapshot the barrier adopted.
func TestElasticCrashContinuesAndMatchesReference(t *testing.T) {
	const n, iters, killAt = 3, 12, 4
	cl := transport.NewElasticChanCluster(n)
	base := Config{
		Workers: n, Iters: iters, Batch: 4, LR: 0.05, Mode: PSOnly, Seed: 21,
		Overlap: true, ChunkElems: 8,
		BuildNet:    mlpBuilder(16, []int{10}, 4),
		TrainSet:    smallData(300, 256),
		Elastic:     true,
		ViewTimeout: 20 * time.Second,
	}

	var mu sync.Mutex
	events := map[int][]ViewEvent{}
	results := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		r := r
		cfg := base
		cfg.OnViewChange = func(ev ViewEvent) {
			mu.Lock()
			events[r] = append(events[r], ev)
			mu.Unlock()
		}
		if r == 2 {
			// Die right after launching iteration killAt: Progress fires
			// on the compute goroutine once the round's pushes are in
			// flight, so the survivors see a genuinely mid-stream crash.
			cfg.Progress = func(p Point) {
				if p.Iter == killAt {
					cl.Kill(2)
				}
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[r], errs[r] = RunWorker(cfg, cl.Endpoint(r))
		}()
	}
	wg.Wait()
	cl.Close()

	if errs[2] == nil {
		t.Fatal("killed worker finished cleanly")
	}
	for r := 0; r < 2; r++ {
		if errs[r] != nil {
			t.Fatalf("survivor %d: %v", r, errs[r])
		}
		if got := len(events[r]); got != 1 {
			t.Fatalf("survivor %d saw %d view changes, want 1", r, got)
		}
	}
	ev0, ev1 := events[0][0], events[1][0]
	wantView := cluster.View{Epoch: 1, Members: []int{0, 1}}
	if !ev0.View.Equal(wantView) || !ev1.View.Equal(wantView) {
		t.Fatalf("committed views %v / %v, want %v", ev0.View, ev1.View, wantView)
	}
	if ev0.RestartIter != ev1.RestartIter {
		t.Fatalf("restart iterations diverge: %d vs %d", ev0.RestartIter, ev1.RestartIter)
	}
	for i := range ev0.Params {
		for j := range ev0.Params[i] {
			if math.Float32bits(ev0.Params[i][j]) != math.Float32bits(ev1.Params[i][j]) {
				t.Fatalf("adopted snapshots diverge at param %d elem %d", i, j)
			}
		}
	}
	paramsIdentical(t, "survivors", results[0], results[1])

	// Reference: a fixed-size two-worker run continued from the adopted
	// snapshot at the restart iteration must land on the same bytes —
	// the fenced-out rounds were skipped on both sides.
	ref := base
	ref.Workers = 2
	ref.Elastic = false
	ref.ViewTimeout = 0
	ref.StartIter = ev0.RestartIter
	ref.InitialParams = ev0.Params
	refRes, err := Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	paramsIdentical(t, "survivor vs reference", results[0], refRes)
}

// TestElasticGracefulLeave has one worker depart voluntarily at a fixed
// iteration: it gets Left back, the survivors re-form and finish
// byte-identical.
func TestElasticGracefulLeave(t *testing.T) {
	const n, iters = 3, 10
	cl := transport.NewElasticChanCluster(n)
	base := Config{
		Workers: n, Iters: iters, Batch: 4, LR: 0.05, Mode: Hybrid, Seed: 33,
		Overlap:     true,
		BuildNet:    mlpBuilder(16, []int{10}, 4),
		TrainSet:    smallData(301, 256),
		Elastic:     true,
		ViewTimeout: 20 * time.Second,
	}
	results := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		r := r
		cfg := base
		if r == 2 {
			cfg.LeaveAt = 5
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[r], errs[r] = RunWorker(cfg, cl.Endpoint(r))
		}()
	}
	wg.Wait()
	cl.Close()
	for r := 0; r < n; r++ {
		if errs[r] != nil {
			t.Fatalf("worker %d: %v", r, errs[r])
		}
	}
	if !results[2].Left {
		t.Fatal("leaver's result not marked Left")
	}
	if results[0].Left || results[1].Left {
		t.Fatal("survivor marked Left")
	}
	paramsIdentical(t, "survivors", results[0], results[1])
}

// TestElasticJoinExpandsCluster starts two workers on a capacity-three
// mesh, attaches a third mid-training, and checks all three finish with
// byte-identical replicas.
func TestElasticJoinExpandsCluster(t *testing.T) {
	const capacity, iters = 3, 12
	cl := transport.NewElasticChanCluster(capacity)
	initial := cluster.View{Epoch: 0, Members: []int{0, 1}}
	base := Config{
		Workers: capacity, Iters: iters, Batch: 4, LR: 0.05, Mode: PSOnly, Seed: 44,
		Overlap: true, ChunkElems: 8,
		BuildNet:    mlpBuilder(16, []int{10}, 4),
		TrainSet:    smallData(302, 256),
		Elastic:     true,
		ViewTimeout: 20 * time.Second,
	}

	started := make(chan struct{})
	var once sync.Once
	results := make([]*Result, capacity)
	errs := make([]error, capacity)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		r := r
		cfg := base
		cfg.View = initial.Clone()
		if r == 0 {
			// Admit the joiner only once training is demonstrably under
			// way, so the join lands mid-stream.
			cfg.Progress = func(p Point) {
				if p.Iter >= 3 {
					once.Do(func() { close(started) })
				}
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[r], errs[r] = RunWorker(cfg, cl.Endpoint(r))
		}()
	}
	select {
	case <-started:
	case <-time.After(20 * time.Second):
		t.Fatal("initial members never made progress")
	}
	joiner := base
	joiner.View = initial.Clone()
	joiner.Joining = true
	mesh := cl.Join(2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[2], errs[2] = RunWorker(joiner, mesh)
	}()
	wg.Wait()
	cl.Close()

	for r := 0; r < capacity; r++ {
		if errs[r] != nil {
			t.Fatalf("worker %d: %v", r, errs[r])
		}
	}
	paramsIdentical(t, "member 0 vs 1", results[0], results[1])
	paramsIdentical(t, "member 0 vs joiner", results[0], results[2])
}

// TestElasticReplanWithLeave runs membership epochs and measured
// replanning together: four workers start from a wrong bandwidth claim,
// replan every four iterations, and one departs between two planned
// barriers. The survivors finish byte-identical, agree on every route
// flip (at least one: the in-process mesh is far faster than the
// claim), and no payload lease outlives the run.
func TestElasticReplanWithLeave(t *testing.T) {
	baseline := transport.OutstandingPayloadLeases()
	const n, iters, leaveAt = 4, 16, 6
	cl := transport.NewElasticChanCluster(n)
	base := Config{
		Workers: n, Iters: iters, Batch: 3, LR: 0.05, Mode: Hybrid, Seed: 29,
		Overlap:     true,
		BuildNet:    mlpBuilder(16, []int{32}, 4),
		TrainSet:    smallData(303, 256),
		Bandwidth:   100e3, // far below the in-process mesh's real rate
		Replan:      ReplanSpec{Every: 4, Alpha: 1},
		Elastic:     true,
		ViewTimeout: 20 * time.Second,
	}
	results := make([]*Result, n)
	errs := make([]error, n)
	mtrs := make([]*metrics.Comm, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		r := r
		cfg := base
		mtrs[r] = metrics.NewComm()
		cfg.Metrics = mtrs[r]
		if r == n-1 {
			cfg.LeaveAt = leaveAt
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[r], errs[r] = RunWorker(cfg, cl.Endpoint(r))
		}()
	}
	wg.Wait()
	cl.Close()
	for r := 0; r < n; r++ {
		if errs[r] != nil {
			t.Fatalf("worker %d: %v", r, errs[r])
		}
	}
	if !results[n-1].Left {
		t.Fatal("leaver's result not marked Left")
	}
	ref := mtrs[0].Snapshot().ReplanEvents
	if len(ref) < 1 {
		t.Fatalf("no route flipped despite a 100 KB/s claim on an in-process mesh")
	}
	for r := 1; r < n-1; r++ {
		paramsIdentical(t, fmt.Sprintf("survivor 0 vs %d", r), results[0], results[r])
		if got := mtrs[r].Snapshot().ReplanEvents; fmt.Sprint(got) != fmt.Sprint(ref) {
			t.Fatalf("survivors disagree on route flips:\nw0: %+v\nw%d: %+v", ref, r, got)
		}
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

// TestElasticConfigValidation pins the config surface: the elastic
// fields are rejected in combinations the protocol cannot honor.
func TestElasticConfigValidation(t *testing.T) {
	base := Config{
		Workers: 2, Iters: 4, Batch: 2, LR: 0.1, Mode: PSOnly, Seed: 1,
		BuildNet: mlpBuilder(16, []int{4}, 4),
		TrainSet: smallData(9, 64),
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"joining without elastic", func(c *Config) { c.Joining = true }},
		{"view without elastic", func(c *Config) { c.View = cluster.Initial(2) }},
		{"leave without elastic", func(c *Config) { c.LeaveAt = 2 }},
		{"negative start", func(c *Config) { c.StartIter = -1 }},
		{"start past end", func(c *Config) { c.StartIter = 4 }},
		{"rank outside view", func(c *Config) { c.Elastic = true; c.View = cluster.View{Members: []int{1}} }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
