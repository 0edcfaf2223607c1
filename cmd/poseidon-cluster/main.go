// Command poseidon-cluster launches a real multi-process training
// cluster on the local machine: it reserves N loopback TCP ports, forks
// N poseidon-worker processes wired into one full mesh, streams their
// output with a per-worker prefix, and fails loudly — killing the
// survivors — if any worker exits non-zero or the deadline passes.
// With -transport shm the workers rendezvous over shared-memory rings
// in a fresh temp directory instead of TCP (Linux only).
//
//	poseidon-cluster -n 3 -iters 50 -mode hybrid
//
// The worker binary is located automatically: an explicit -worker path,
// a poseidon-worker sitting next to this binary, $PATH, and finally a
// one-off `go build` of ./cmd/poseidon-worker into a temp file (for
// `go run ./cmd/poseidon-cluster` from the repo root). The launcher
// always execs a real worker binary — never a `go run` wrapper, whose
// grandchild would survive the kill-on-failure path as an orphan.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cliflags"
)

func main() { os.Exit(run()) }

func run() int {
	n := flag.Int("n", 3, "number of worker processes")
	workerBin := flag.String("worker", "", "path to the poseidon-worker binary (default: auto-detect)")
	// The training flags are the shared surface (internal/cliflags):
	// parsed here, forwarded verbatim to every worker via common.Args.
	common := cliflags.RegisterCommon(flag.CommandLine)
	basePort := flag.Int("base-port", 0, "first TCP port; workers use base-port..base-port+n-1 (0 = pick free ports)")
	timeout := flag.Duration("timeout", 5*time.Minute, "kill the cluster if it runs longer than this")
	killAfter := flag.String("kill-after", "", "chaos: SIGKILL one worker mid-training, format iter:rank — fires once that rank prints a progress line at or past iter (use -print-every 1 for exact timing); that death is expected, so it alone does not fail the cluster")
	joinAfter := flag.Int("join-after", 0, "chaos: once any worker prints a progress line at or past this iteration, spawn one extra worker that joins the live cluster (reserves capacity n+1; requires -elastic and -transport tcp)")
	leaveAt := flag.String("leave-at", "", "schedule a graceful departure, format iter:rank — that worker announces leave at iter (requires -elastic)")
	snapshotDir := flag.String("snapshot-dir", "", "have each worker write its adopted replica snapshot to DIR/snap-<id>.bin at every committed barrier, planned replan barriers included (requires -elastic)")
	flag.Parse()

	if *n < 1 {
		fmt.Fprintln(os.Stderr, "cluster: need -n >= 1")
		return 1
	}
	killIter, killRank, err := parseIterRank(*killAfter, *n)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cluster: -kill-after: %v\n", err)
		return 1
	}
	leaveIter, leaveRank, err := parseIterRank(*leaveAt, *n)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cluster: -leave-at: %v\n", err)
		return 1
	}
	if !common.Elastic && (*joinAfter > 0 || leaveRank >= 0 || *snapshotDir != "") {
		fmt.Fprintln(os.Stderr, "cluster: -join-after/-leave-at/-snapshot-dir require -elastic")
		return 1
	}
	if *joinAfter > 0 && common.Transport != "tcp" {
		fmt.Fprintln(os.Stderr, "cluster: -join-after requires -transport tcp (the shm mesh is fixed at rendezvous)")
		return 1
	}
	// A planned join means the mesh is sized for one more rank than
	// initially serves: the address list covers the capacity, -members
	// restricts epoch 0 to the first n ranks.
	capacity := *n
	membersCSV := ""
	if *joinAfter > 0 {
		capacity++
		ranks := make([]string, *n)
		for i := range ranks {
			ranks[i] = fmt.Sprint(i)
		}
		membersCSV = strings.Join(ranks, ",")
	}
	addrs, err := pickAddrs(capacity, *basePort)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cluster: reserve ports: %v\n", err)
		return 1
	}
	peerList := strings.Join(addrs, ",")
	if common.Transport == "shm" && common.ShmDir == "" {
		// The shm rendezvous directory must be fresh per run; a temp dir
		// owned by the launcher guarantees that and cleans up the ring
		// files when the cluster exits.
		dir, err := os.MkdirTemp("", "poseidon-shm")
		if err != nil {
			fmt.Fprintf(os.Stderr, "cluster: shm dir: %v\n", err)
			return 1
		}
		defer os.RemoveAll(dir)
		common.ShmDir = dir
	}
	name, cleanup, err := resolveWorker(*workerBin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cluster: locate worker: %v\n", err)
		return 1
	}
	defer cleanup()
	fmt.Printf("cluster: launching %d workers (%s) over %s\n", *n, name, peerList)

	type exit struct {
		id  int
		err error
	}
	exits := make(chan exit, capacity)
	var procMu sync.Mutex
	procs := make([]*exec.Cmd, capacity)

	// Chaos triggers key off the workers' own progress lines, so the
	// kill lands at a known training iteration, not a wall-clock guess.
	var chaosMu sync.Mutex
	killFired := false
	joinFired := *joinAfter <= 0 // never fires when disabled
	joinNow := make(chan struct{})
	observe := func(id int, line string) {
		it, ok := progressIter(line)
		if !ok {
			return
		}
		chaosMu.Lock()
		defer chaosMu.Unlock()
		if killRank >= 0 && !killFired && id == killRank && it >= killIter {
			killFired = true
			procMu.Lock()
			if p := procs[killRank]; p != nil && p.Process != nil {
				fmt.Fprintf(os.Stderr, "cluster: chaos: SIGKILL worker %d at iteration %d\n", killRank, it)
				p.Process.Kill()
			}
			procMu.Unlock()
		}
		if !joinFired && it >= *joinAfter {
			joinFired = true
			close(joinNow)
		}
	}

	launch := func(i int, joiner bool) error {
		args := append([]string{"-id", fmt.Sprint(i), "-peers", peerList}, common.Args()...)
		if membersCSV != "" {
			args = append(args, "-members", membersCSV)
		}
		if joiner {
			args = append(args, "-join")
		}
		if i == leaveRank {
			args = append(args, "-leave-at", fmt.Sprint(leaveIter))
		}
		if *snapshotDir != "" {
			args = append(args, "-snapshot-out", filepath.Join(*snapshotDir, fmt.Sprintf("snap-%d.bin", i)))
		}
		cmd := exec.Command(name, args...)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		stderr, err := cmd.StderrPipe()
		if err != nil {
			return err
		}
		if err := cmd.Start(); err != nil {
			return err
		}
		procMu.Lock()
		procs[i] = cmd
		procMu.Unlock()
		var rd sync.WaitGroup
		rd.Add(2)
		go prefixLines(&rd, os.Stdout, stdout, i, observe)
		go prefixLines(&rd, os.Stderr, stderr, i, nil)
		go func() {
			rd.Wait() // pipes must drain before Wait closes them
			exits <- exit{i, cmd.Wait()}
		}()
		return nil
	}
	for i := 0; i < *n; i++ {
		if err := launch(i, false); err != nil {
			fmt.Fprintf(os.Stderr, "cluster: start worker %d: %v\n", i, err)
			killLocked(&procMu, procs)
			return 1
		}
	}

	code := 0
	failed := false
	total := *n
	deadline := time.After(*timeout)
	for done := 0; done < total; {
		select {
		case e := <-exits:
			done++
			chaosMu.Lock()
			expected := killFired && e.id == killRank
			chaosMu.Unlock()
			if e.err != nil && expected {
				// The chaos kill's own casualty: survivors carry on (or
				// fail on their own terms).
				fmt.Printf("cluster: worker %d killed by chaos as scheduled\n", e.id)
			} else if e.err != nil {
				fmt.Fprintf(os.Stderr, "cluster: worker %d failed: %v\n", e.id, e.err)
				code = 1
				if !failed {
					failed = true
					killLocked(&procMu, procs) // first failure: take the survivors down too
				}
			}
		case <-joinNow:
			joinNow = nil // fire once
			total++
			fmt.Printf("cluster: chaos: spawning joiner worker %d\n", *n)
			if err := launch(*n, true); err != nil {
				fmt.Fprintf(os.Stderr, "cluster: start joiner %d: %v\n", *n, err)
				code = 1
				total--
				killLocked(&procMu, procs)
			}
		case <-deadline:
			fmt.Fprintf(os.Stderr, "cluster: deadline %v passed, killing %d workers\n", *timeout, total-done)
			code = 1
			killLocked(&procMu, procs)
			deadline = nil // fire once; keep draining exits
		}
	}
	if code == 0 {
		fmt.Printf("cluster: all %d workers completed\n", total)
	}
	return code
}

// parseIterRank parses a chaos schedule of the form "iter:rank".
// An empty schedule yields (-1, -1, nil).
func parseIterRank(s string, n int) (iter, rank int, err error) {
	if s == "" {
		return -1, -1, nil
	}
	head, tail, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("want iter:rank, got %q", s)
	}
	if iter, err = strconv.Atoi(head); err != nil || iter < 1 {
		return 0, 0, fmt.Errorf("bad iteration in %q", s)
	}
	if rank, err = strconv.Atoi(tail); err != nil || rank < 0 || rank >= n {
		return 0, 0, fmt.Errorf("rank in %q outside 0..%d", s, n-1)
	}
	return iter, rank, nil
}

// progressIter extracts the iteration count from a worker progress line
// ("worker 2 iter  15 loss ..."); ok is false for every other line.
func progressIter(line string) (int, bool) {
	f := strings.Fields(line)
	if len(f) >= 4 && f[0] == "worker" && f[2] == "iter" {
		it, err := strconv.Atoi(f[3])
		return it, err == nil
	}
	return 0, false
}

// pickAddrs reserves n loopback addresses, either a contiguous explicit
// range or free ephemeral ports (bound and released; the rebind window
// is tiny and loopback-local).
func pickAddrs(n, basePort int) ([]string, error) {
	addrs := make([]string, 0, n)
	if basePort > 0 {
		for i := 0; i < n; i++ {
			addrs = append(addrs, fmt.Sprintf("127.0.0.1:%d", basePort+i))
		}
		return addrs, nil
	}
	var lis []net.Listener
	defer func() {
		for _, l := range lis {
			l.Close()
		}
	}()
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lis = append(lis, l)
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

// resolveWorker finds (or builds) the poseidon-worker binary. The
// result is always a real binary the launcher can SIGKILL directly —
// a `go run` wrapper would leave the actual worker alive as an orphan
// when the kill-on-failure path fires. cleanup removes any temp build.
func resolveWorker(explicit string) (name string, cleanup func(), err error) {
	none := func() {}
	if explicit != "" {
		return explicit, none, nil
	}
	if exe, err := os.Executable(); err == nil {
		sibling := filepath.Join(filepath.Dir(exe), "poseidon-worker")
		if st, err := os.Stat(sibling); err == nil && !st.IsDir() {
			return sibling, none, nil
		}
	}
	if p, err := exec.LookPath("poseidon-worker"); err == nil {
		return p, none, nil
	}
	// Source checkout: build a throwaway worker binary.
	dir, err := os.MkdirTemp("", "poseidon-cluster")
	if err != nil {
		return "", none, err
	}
	bin := filepath.Join(dir, "poseidon-worker")
	build := exec.Command("go", "build", "-o", bin, "./cmd/poseidon-worker")
	if out, err := build.CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		return "", none, fmt.Errorf("go build ./cmd/poseidon-worker: %v\n%s", err, out)
	}
	return bin, func() { os.RemoveAll(dir) }, nil
}

// prefixLines streams src to dst one line at a time under a [w<id>]
// prefix; observe (optional) sees every raw line — the hook the chaos
// triggers watch training progress through.
func prefixLines(wg *sync.WaitGroup, dst io.Writer, src io.Reader, id int, observe func(int, string)) {
	defer wg.Done()
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintf(dst, "[w%d] %s\n", id, line)
		if observe != nil {
			observe(id, line)
		}
	}
}

func killLocked(mu *sync.Mutex, procs []*exec.Cmd) {
	mu.Lock()
	defer mu.Unlock()
	for _, cmd := range procs {
		if cmd != nil && cmd.Process != nil {
			cmd.Process.Kill()
		}
	}
}
