// tcp_cluster demonstrates the production TCP transport end to end: it
// drives cmd/poseidon-cluster, which forks three separate poseidon-worker
// OS processes (real sockets, versioned handshakes, length-prefixed
// frames, graceful goodbye on close) wired into one loopback mesh and
// training a CNN with the paper's full protocol — sharded BSP KV store
// for conv layers, sufficient-factor broadcasting for FC layers. The
// run is seeded with a deliberately optimistic -bw claim and
// -replan-every, so the cluster re-measures its real wire rate at the
// epoch barriers and re-routes live (watch for replan_events route
// flips in the METRICS lines) — and the replica digests still agree,
// because route swaps happen at the same planned barrier on every
// worker.
//
//	go run ./examples/tcp_cluster
//
// See README.md in this directory for the manual walkthrough (running
// workers by hand, the wire format, and the kill-a-worker failure demo).
package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
)

func main() {
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "tcp_cluster: %v\n", err)
		os.Exit(1)
	}
	cmd := exec.Command("go", "run", "./cmd/poseidon-cluster",
		"-n", "3", "-iters", "30", "-mode", "hybrid", "-seed", "5",
		"-print-every", "10", "-dump-losses", "-timeout", "5m",
		"-bw", "1e9", "-frame-overhead", "2e-5", "-replan-every", "10", "-replan-alpha", "1", "-metrics-dump")
	cmd.Dir = root
	out := &teeBuffer{dst: os.Stdout}
	cmd.Stdout = out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "tcp_cluster: %v\n", err)
		os.Exit(1)
	}
	// BSP invariant: every worker printed the same digest of its final
	// replica (the PARAMS lines), so the processes hold byte-identical
	// parameters after the last synchronized round.
	digests := regexp.MustCompile(`\[w\d+\] PARAMS ([0-9a-f]{16})`).FindAllStringSubmatch(out.String(), -1)
	if len(digests) != 3 {
		fmt.Fprintf(os.Stderr, "tcp_cluster: expected 3 PARAMS digests, found %d\n", len(digests))
		os.Exit(1)
	}
	for _, d := range digests[1:] {
		if d[1] != digests[0][1] {
			fmt.Fprintln(os.Stderr, "tcp_cluster: REPLICAS DIVERGED — protocol bug!")
			os.Exit(1)
		}
	}
	fmt.Printf("\n3 OS processes trained over real TCP; all replicas agree (param digest %s — BSP held).\n",
		digests[0][1])
}

// teeBuffer mirrors the child's output to the terminal while keeping a
// copy for the replica-digest check.
type teeBuffer struct {
	dst *os.File
	buf strings.Builder
}

func (t *teeBuffer) Write(p []byte) (int, error) {
	t.buf.Write(p)
	return t.dst.Write(p)
}

func (t *teeBuffer) String() string { return t.buf.String() }

// moduleRoot walks up from the working directory to the go.mod, so the
// example runs from anywhere inside the repo.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory; run from inside the repo")
		}
		dir = parent
	}
}
