// Command poseidon-worker is one node of a real distributed training
// cluster on the functional plane: it joins a TCP mesh — or, with
// -transport shm, a shared-memory ring mesh for co-located workers
// (Linux only) — through the poseidon.Session facade, trains a real
// CNN data-parallel with the
// paper's protocol (sharded BSP KV store + sufficient-factor
// broadcasting), and prints its loss curve. With -autoplan it routes
// every tensor through the paper's cost model (Algorithm 1 via
// poseidon.Planner) and prints the PLAN decisions; with -metrics-dump
// it prints a METRICS JSON snapshot of measured per-route wire
// traffic, sync-stall time, KV rounds, and replan events after
// training (schema: internal/metrics.CommSnapshot). With -bw the
// planner is seeded with a link-speed estimate, and -replan-every N
// makes the cluster re-measure the wire rate every N iterations and
// re-run Algorithm 1 against it — routes flip at a clock-stamped round
// barrier, identically on every worker.
//
// Configuration errors — including -route overrides naming unknown
// parameters or impossible schemes — fail before the mesh is dialed,
// so a typo'd flag costs milliseconds, not a cluster-wide timeout.
//
// The flag surface is shared with poseidon-cluster and poseidon-serve
// through internal/cliflags; parameter snapshots (-snapshot-out,
// -load-params) use the one poseidon.Snapshot format.
//
// Launch P processes with the same -peers list and -id 0..P-1 (or let
// poseidon-cluster do it for you), e.g.:
//
//	poseidon-worker -id 0 -peers 127.0.0.1:7000,127.0.0.1:7001 &
//	poseidon-worker -id 1 -peers 127.0.0.1:7000,127.0.0.1:7001
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"strconv"

	"repro/internal/cliflags"
	"repro/internal/metrics"
	"repro/internal/tensor"
	"repro/poseidon"
)

func main() {
	nf := cliflags.RegisterNode(flag.CommandLine)
	flag.Parse()

	// The progress callback closes over the session's metrics registry,
	// which exists only after Build; mtr is bound just below.
	var mtr *metrics.Comm
	b, err := nf.Builder()
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}
	m, _ := nf.SyncMode() // validated by Builder
	b.OnProgress(func(p poseidon.Point) {
		if nf.PrintEvery > 0 && (p.Iter+1)%nf.PrintEvery == 0 {
			line := fmt.Sprintf("worker %d iter %3d loss %.4f", nf.ID, p.Iter+1, p.TrainLoss)
			if p.TestErr >= 0 {
				line += fmt.Sprintf("  test-err %.3f", p.TestErr)
			}
			if mtr != nil {
				// Per-window stall delta (metrics.SnapshotIter): the
				// live straggler signal — a worker whose max stall
				// grows is waiting on a slow peer.
				w := mtr.SnapshotIter()
				line += fmt.Sprintf("  stall %.1fms (max %.1fms)", w.TotalMS, w.MaxMS)
			}
			fmt.Println(line)
		}
	})
	if nf.Elastic {
		// One VIEW line per committed barrier — a membership transition
		// or, with replanning, a planned barrier that keeps the members —
		// mirrored on every member; the e2e suite keys re-formation off
		// it. The
		// snapshot carries the barrier's adopted replica so a reference
		// run can continue from exactly this point.
		b.OnMembershipChange(func(ev poseidon.MembershipEvent) {
			fmt.Printf("VIEW %d %s %d\n", ev.View.Epoch, cliflags.RanksCSV(ev.View.Members), ev.RestartIter)
			if nf.SnapshotOut != "" {
				snap := poseidon.NewSnapshot(ev.RestartIter, ev.View.Epoch, ev.Params)
				if err := snap.WriteFile(nf.SnapshotOut); err != nil {
					fmt.Fprintf(os.Stderr, "worker %d: snapshot: %v\n", nf.ID, err)
				}
			}
		})
	}

	// Build validates the whole configuration — plan feasibility and
	// -route overrides included — before dialing the mesh, then joins
	// it. A bad override exits here, naming the offender, without ever
	// touching the network.
	sess, err := b.Build()
	if err != nil {
		fmt.Fprintf(os.Stderr, "worker %d: %v\n", nf.ID, err)
		os.Exit(1)
	}
	defer sess.Close()
	mtr = sess.Metrics()

	if nf.Autoplan {
		// One PLAN line per parameter: the Algorithm 1 decision and the
		// cost-model numbers behind it, before any byte hits the wire.
		decisions, err := sess.Plan()
		if err != nil {
			fmt.Fprintf(os.Stderr, "worker %d: %v\n", nf.ID, err)
			os.Exit(1)
		}
		for _, d := range decisions {
			fmt.Printf("PLAN param=%d name=%s shape=%dx%d route=%v ps_params=%d sfb_params=%d wire_bytes=%d\n",
				d.Spec.Index, d.Spec.Name, d.Spec.Rows, d.Spec.Cols,
				d.Scheme, d.PSParams, d.SFBParams, d.WireBytes)
		}
	}

	// Mallocs deltas around the whole run make the wire path's
	// allocation behavior visible on a live cluster, not just in
	// go test -bench: allocs_per_iter covers every goroutine (compute,
	// syncers, transport read loops), warmup included.
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	res, err := sess.Run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "worker %d: %v\n", nf.ID, err)
		// Leave without the goodbye a graceful Close would send:
		// survivors must see the link die, not a clean departure they
		// could mistake for normal shutdown.
		os.Exit(1)
	}
	if res.Left {
		// A graceful leaver stops at its departure barrier; its replica is
		// epochs behind the survivors', so a PARAMS digest would only
		// invite a bogus comparison.
		fmt.Printf("LEFT %d\n", nf.LeaveAt)
	}
	if nf.DumpLosses {
		for _, p := range res.Curve {
			fmt.Printf("LOSS %d %s\n", p.Iter, strconv.FormatFloat(p.TrainLoss, 'g', -1, 64))
		}
		// A digest of the final replica: every worker of a BSP run must
		// print the same value, which is how the e2e suite asserts
		// cross-replica parameter equality across real processes.
		if !res.Left {
			fmt.Printf("PARAMS %016x\n", paramDigest(res.Final.Params()))
		}
	}
	if snap, ok := sess.MetricsSnapshot(); ok && nf.MetricsDump {
		var msAfter runtime.MemStats
		runtime.ReadMemStats(&msAfter)
		// The report embeds the CommSnapshot schema and adds the
		// process-wide allocation rate.
		report := struct {
			metrics.CommSnapshot
			AllocsPerIter float64 `json:"allocs_per_iter"`
		}{CommSnapshot: snap}
		if nf.Iters > 0 {
			report.AllocsPerIter = float64(msAfter.Mallocs-msBefore.Mallocs) / float64(nf.Iters)
		}
		bjson, err := json.Marshal(report)
		if err != nil {
			fmt.Fprintf(os.Stderr, "worker %d: metrics snapshot: %v\n", nf.ID, err)
			os.Exit(1)
		}
		fmt.Printf("METRICS %s\n", bjson)
	}
	fmt.Printf("worker %d done (%v mode, %d workers)\n", nf.ID, m, sess.Workers())
}

// paramDigest is FNV-1a over the bit patterns of every parameter value,
// in order — byte-equality of replicas, compressed to 64 bits.
func paramDigest(params []*tensor.Matrix) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, p := range params {
		for _, v := range p.Data {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}
