package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/cliflags"
	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/poseidon"
)

// runSessionChild is `perfbench child session -seed N`: one untraced
// train-mlp-wan launch. Every worker is one poseidon.Session over a
// channel-mesh endpoint behind the task's modeled link, all in this
// process. It prints the same lines poseidon-cluster relays from its
// workers ("[w<rank>] worker <rank> iter ...", LOSS, PARAMS, METRICS),
// so one parser reads both.
func runSessionChild(args []string) error {
	fs := flag.NewFlagSet("session", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "data and model seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	t, _ := taskFor("mlp")
	trainSet, testSet := cliflags.ReferenceData(*seed)
	var out sync.Mutex
	say := func(format string, a ...any) {
		out.Lock()
		fmt.Printf(format+"\n", a...)
		out.Unlock()
	}

	chans := transport.NewChanCluster(workers)
	sessions := make([]*poseidon.Session, workers)
	wires := make([]*metrics.WireStats, workers)
	for r := range sessions {
		mesh := transport.NewDelayMesh(chans[r], t.linkBPS, t.linkLatency)
		wires[r] = metrics.NewComm().Wire()
		rank := r
		b := poseidon.NewSession().
			Mesh(transport.NewMeteredMesh(mesh, wires[r])).
			Iterations(launchIters).Batch(t.batch).LearningRate(learningRate).Seed(*seed).
			Mode(poseidon.Hybrid).Overlap(true).
			Model(t.builder()).Data(trainSet, testSet).
			CollectMetrics().
			OnProgress(func(p poseidon.Point) {
				say("[w%d] worker %d iter %3d loss %.4f", rank, rank, p.Iter+1, p.TrainLoss)
			})
		s, err := b.Build()
		if err != nil {
			return err
		}
		sessions[r] = s
	}
	results := make([]*poseidon.Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for r, s := range sessions {
		wg.Add(1)
		go func(r int, s *poseidon.Session) {
			defer wg.Done()
			results[r], errs[r] = s.Run()
		}(r, s)
	}
	wg.Wait()
	for _, c := range chans {
		c.Close()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for r, res := range results {
		for _, p := range res.Curve {
			say("[w%d] LOSS %d %s", r, p.Iter, strconv.FormatFloat(p.TrainLoss, 'g', -1, 64))
		}
		say("[w%d] PARAMS %s", r, paramDigest(res.Final.Params()))
		snap, _ := sessions[r].MetricsSnapshot()
		snap.Wire = wires[r].Snapshot()
		b, err := json.Marshal(snap)
		if err != nil {
			return err
		}
		say("[w%d] METRICS %s", r, b)
	}
	return nil
}
