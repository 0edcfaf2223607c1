// Package cliflags is the one definition of the command-line surface
// the poseidon binaries share. poseidon-worker, poseidon-cluster, and
// poseidon-serve all register their training flags here, so a flag
// rename, a default change, or a new knob lands in every binary at
// once — the launcher's forwarding (Common.Args) and the workers'
// parsing cannot drift apart.
package cliflags

import (
	"flag"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/data"
	"repro/internal/nn/autodiff"
	"repro/internal/transport"
	"repro/poseidon"
)

// Common holds the training flags every binary shares: the launcher
// forwards them verbatim to each worker it spawns, the workers feed
// them into a poseidon.Builder.
type Common struct {
	Transport     string
	ShmDir        string
	Iters         int
	Batch         int
	LR            float64
	Mode          string
	Seed          int64
	Overlap       bool
	Chunk         int
	PrintEvery    int
	DumpLosses    bool
	MaxFrame      int
	Autoplan      bool
	MetricsDump   bool
	Route         string
	BW            float64
	ReplanEvery   int
	ReplanAlpha   float64
	FrameOverhead float64
	Elastic       bool
}

// RegisterCommon registers the shared training flags on fs and returns
// the struct their parsed values land in.
func RegisterCommon(fs *flag.FlagSet) *Common {
	c := &Common{}
	fs.StringVar(&c.Transport, "transport", "tcp", "mesh transport: tcp, or shm (shared-memory rings for co-located workers, Linux only; requires -shm-dir)")
	fs.StringVar(&c.ShmDir, "shm-dir", "", "rendezvous directory for -transport shm; every worker of the run must name the same fresh directory")
	fs.IntVar(&c.Iters, "iters", 50, "training iterations")
	fs.IntVar(&c.Batch, "batch", 8, "per-worker batch size")
	fs.Float64Var(&c.LR, "lr", 0.1, "learning rate")
	fs.StringVar(&c.Mode, "mode", "hybrid", "sync mode: ps|hybrid|1bit")
	fs.Int64Var(&c.Seed, "seed", 42, "shared model/data seed")
	fs.BoolVar(&c.Overlap, "overlap", false, "stream pushes through the comm send pool (WFBP)")
	fs.IntVar(&c.Chunk, "chunk", 0, "max float32s per KV chunk (0 = whole tensors)")
	fs.IntVar(&c.PrintEvery, "print-every", 10, "print a progress line every this many iterations (streamed during training)")
	fs.BoolVar(&c.DumpLosses, "dump-losses", false, "after training, print one machine-readable 'LOSS <iter> <loss>' line per iteration")
	fs.IntVar(&c.MaxFrame, "max-frame", 0, "cap on a single frame body in bytes (0 = transport default)")
	fs.BoolVar(&c.Autoplan, "autoplan", false, "route every tensor through the paper's cost model (Algorithm 1, overrides -mode with hybrid policy) and print one PLAN line per parameter")
	fs.BoolVar(&c.MetricsDump, "metrics-dump", false, "after training, print a machine-readable 'METRICS <json>' snapshot of the live comm counters")
	fs.StringVar(&c.Route, "route", "", "explicit per-parameter scheme overrides, e.g. '2=ps,5=ring' (index=ps|sfb|1bit|ring|treering); trumps the planner policy")
	fs.Float64Var(&c.BW, "bw", 0, "initial link-bandwidth estimate in bytes/sec; makes Algorithm 1 bandwidth-aware (0 = byte-count-only cost model)")
	fs.IntVar(&c.ReplanEvery, "replan-every", 0, "re-measure the wire rate and re-run Algorithm 1 every this many iterations (0 = off)")
	fs.Float64Var(&c.ReplanAlpha, "replan-alpha", 0, "EWMA weight of the newest bandwidth observation, 0<a<=1 (0 = default)")
	fs.Float64Var(&c.FrameOverhead, "frame-overhead", 0, "modeled per-frame overhead in seconds for the bandwidth-aware cost model (0 = default)")
	fs.BoolVar(&c.Elastic, "elastic", false, "enable membership epochs: a peer failure or departure re-forms the cluster at a view-change barrier instead of aborting the run")
	return c
}

// Args renders the shared flags back into the argument list a spawned
// worker parses — the launcher's forwarding path. Zero-valued optional
// flags are omitted so the worker's own defaults stay in charge.
func (c *Common) Args() []string {
	args := []string{
		"-iters", fmt.Sprint(c.Iters), "-batch", fmt.Sprint(c.Batch),
		"-lr", fmt.Sprint(c.LR), "-mode", c.Mode, "-seed", fmt.Sprint(c.Seed),
		"-chunk", fmt.Sprint(c.Chunk), "-print-every", fmt.Sprint(c.PrintEvery),
		"-max-frame", fmt.Sprint(c.MaxFrame), "-transport", c.Transport,
	}
	if c.ShmDir != "" {
		args = append(args, "-shm-dir", c.ShmDir)
	}
	if c.Elastic {
		args = append(args, "-elastic")
	}
	if c.Overlap {
		args = append(args, "-overlap")
	}
	if c.DumpLosses {
		args = append(args, "-dump-losses")
	}
	if c.Autoplan {
		args = append(args, "-autoplan")
	}
	if c.MetricsDump {
		args = append(args, "-metrics-dump")
	}
	if c.Route != "" {
		args = append(args, "-route", c.Route)
	}
	if c.BW != 0 {
		args = append(args, "-bw", fmt.Sprint(c.BW))
	}
	if c.ReplanEvery != 0 {
		args = append(args, "-replan-every", fmt.Sprint(c.ReplanEvery))
	}
	if c.ReplanAlpha != 0 {
		args = append(args, "-replan-alpha", fmt.Sprint(c.ReplanAlpha))
	}
	if c.FrameOverhead != 0 {
		args = append(args, "-frame-overhead", fmt.Sprint(c.FrameOverhead))
	}
	return args
}

// SyncMode resolves the -mode flag, with -autoplan forcing the hybrid
// policy so Algorithm 1 stays free to pick per tensor.
func (c *Common) SyncMode() (poseidon.SyncMode, error) {
	m, ok := map[string]poseidon.SyncMode{
		"ps": poseidon.PSOnly, "hybrid": poseidon.Hybrid, "1bit": poseidon.OneBit,
	}[c.Mode]
	if !ok {
		return 0, fmt.Errorf("unknown mode %q", c.Mode)
	}
	if c.Autoplan {
		m = poseidon.Hybrid
	}
	return m, nil
}

// Node extends Common with the flags of a binary that is itself one
// node of the cluster (poseidon-worker, poseidon-serve) rather than a
// launcher.
type Node struct {
	*Common
	ID          int
	Peers       string
	Local       int
	Members     string
	Join        bool
	LeaveAt     int
	StartIter   int
	LoadParams  string
	SnapshotOut string
}

// RegisterNode registers the shared flags plus the per-node ones on fs.
func RegisterNode(fs *flag.FlagSet) *Node {
	n := &Node{Common: RegisterCommon(fs)}
	fs.IntVar(&n.ID, "id", 0, "this worker's id (0-based)")
	fs.StringVar(&n.Peers, "peers", "", "comma-separated host:port of every worker, in id order (with -transport shm the addresses are unused but the list still sizes the cluster)")
	fs.IntVar(&n.Local, "local", 0, "run an in-process cluster of this many workers instead of joining a mesh (ignores -id/-peers/-transport)")
	fs.StringVar(&n.Members, "members", "", "comma-separated ranks serving at epoch 0 (elastic; default: every rank in -peers). A -join worker names the live ranks it dials")
	fs.BoolVar(&n.Join, "join", false, "attach to a running elastic cluster as a late joiner (requires -members with the live ranks)")
	fs.IntVar(&n.LeaveAt, "leave-at", 0, "announce a graceful departure at this iteration (elastic)")
	fs.IntVar(&n.StartIter, "start-iter", 0, "resume training at this iteration instead of 0 (usually with -load-params)")
	fs.StringVar(&n.LoadParams, "load-params", "", "binary parameter snapshot to resume from (as written by -snapshot-out); its restart iteration applies unless -start-iter is set")
	fs.StringVar(&n.SnapshotOut, "snapshot-out", "", "write the adopted replica snapshot to this file at every committed barrier (membership change or planned replan barrier)")
	return n
}

// PeerList splits the -peers flag.
func (n *Node) PeerList() []string { return strings.Split(n.Peers, ",") }

// Builder turns the parsed node flags into a validated session builder
// over the reference workload — everything but the binary-specific
// callbacks (progress lines, membership hooks), which the caller chains
// on before Build.
func (n *Node) Builder() (*poseidon.Builder, error) {
	mode, err := n.SyncMode()
	if err != nil {
		return nil, err
	}
	overrides, err := poseidon.ParseRouteOverrides(n.Route)
	if err != nil {
		return nil, fmt.Errorf("-route: %w", err)
	}
	trainSet, testSet := ReferenceData(n.Seed)
	b := poseidon.NewSession()
	if n.Local > 0 {
		b.InProcess(n.Local)
	} else {
		addrs := n.PeerList()
		if n.Peers == "" || n.ID < 0 || n.ID >= len(addrs) {
			return nil, fmt.Errorf("need -peers with this node's -id in range")
		}
		switch n.Transport {
		case "tcp":
			b.TCP(n.ID, addrs, transport.TCPOptions{MaxFrameBytes: n.MaxFrame})
		case "shm":
			if n.ShmDir == "" {
				return nil, fmt.Errorf("-transport shm requires -shm-dir")
			}
			b.SHM(n.ID, len(addrs), transport.SHMOptions{Dir: n.ShmDir, MaxFrameBytes: n.MaxFrame})
		default:
			return nil, fmt.Errorf("unknown transport %q (want tcp|shm)", n.Transport)
		}
	}
	b.Iterations(n.Iters).Batch(n.Batch).LearningRate(n.LR).Seed(n.Seed).
		Mode(mode).
		Overlap(n.Overlap).ChunkElems(n.Chunk).
		Model(ReferenceModel()).
		Data(trainSet, testSet).EvalEvery(10).
		RouteOverrides(overrides).
		Bandwidth(n.BW)
	if n.Elastic {
		b.Elastic(true)
	}
	if n.Members != "" {
		ranks, err := ParseRanks(n.Members)
		if err != nil {
			return nil, fmt.Errorf("-members: %w", err)
		}
		b.Members(ranks)
	}
	if n.Join {
		b.Joining()
	}
	if n.LeaveAt > 0 {
		b.LeaveAt(n.LeaveAt)
	}
	if n.LoadParams != "" {
		snap, err := poseidon.ReadSnapshot(n.LoadParams)
		if err != nil {
			return nil, fmt.Errorf("-load-params: %w", err)
		}
		start := n.StartIter
		if start == 0 {
			start = snap.Iter()
		}
		b.ResumeFrom(start, snap.Params())
	} else if n.StartIter > 0 {
		b.ResumeFrom(n.StartIter, nil)
	}
	if n.ReplanEvery > 0 {
		b.Replan(poseidon.ReplanSpec{
			Every:         n.ReplanEvery,
			Alpha:         n.ReplanAlpha,
			FrameOverhead: n.FrameOverhead,
		})
	}
	if n.MetricsDump {
		b.CollectMetrics()
	}
	return b, nil
}

// Serve holds the serving-plane flags poseidon-serve registers in both
// of its modes — the training gateway and the pull-replica — so the
// two surfaces (and the e2e harness driving them) cannot drift apart.
type Serve struct {
	Listen        string
	SnapshotEvery int
	MaxBatch      int
	MaxDelay      time.Duration
	TenantRPS     float64
	TenantBurst   int
	MaxInflight   int
	FinalSnapshot string
	DrainTimeout  time.Duration

	// Replica mode: serve snapshots pulled from a training gateway
	// instead of joining the mesh.
	Replica   bool
	Pull      string
	Poll      time.Duration
	MaxLag    int
	ReplicaID string
}

// RegisterServe registers the serving-plane flags on fs.
func RegisterServe(fs *flag.FlagSet) *Serve {
	s := &Serve{}
	fs.StringVar(&s.Listen, "listen", "127.0.0.1:0", "HTTP listen address of the inference API")
	fs.IntVar(&s.SnapshotEvery, "snapshot-every", 10, "capture a serving snapshot every this many training iterations (plus once when the run drains)")
	fs.IntVar(&s.MaxBatch, "max-batch", 16, "micro-batch row cap: a window executes as soon as this many rows gather")
	fs.DurationVar(&s.MaxDelay, "max-delay", 2*time.Millisecond, "micro-batch window: a lone request waits at most this long for company")
	fs.Float64Var(&s.TenantRPS, "tenant-rps", 50, "per-tenant sustained requests/sec (X-Tenant header; negative = unlimited)")
	fs.IntVar(&s.TenantBurst, "tenant-burst", 0, "per-tenant burst size (0 = 2×rps)")
	fs.IntVar(&s.MaxInflight, "max-inflight", 256, "bound on concurrently admitted predict requests; beyond it requests shed with 503")
	fs.StringVar(&s.FinalSnapshot, "final-snapshot", "", "persist the last captured snapshot to this file on shutdown (poseidon.Snapshot format)")
	fs.DurationVar(&s.DrainTimeout, "drain-timeout", 30*time.Second, "bound on the graceful drain of in-flight requests at shutdown")
	fs.BoolVar(&s.Replica, "replica", false, "serve snapshots pulled from a training gateway (-pull) instead of training; the process never joins the mesh")
	fs.StringVar(&s.Pull, "pull", "", "base URL (or host:port) of the training gateway this replica pulls snapshots from (replica mode)")
	fs.DurationVar(&s.Poll, "poll", 250*time.Millisecond, "snapshot poll interval in replica mode")
	fs.IntVar(&s.MaxLag, "max-lag", 0, "staleness bound in iterations: a replica trailing its source by more sheds with 503 until it catches up (0 = unbounded)")
	fs.StringVar(&s.ReplicaID, "replica-id", "", "fleet-unique replica name echoed on responses and in /metrics (default: the listen address)")
	return s
}

// ReferenceModel is the model every binary trains: the CIFAR-quick CNN
// at width 4 over 10 classes. e2e reference runs rebuild exactly this —
// keep in sync with e2e's referenceSession.
func ReferenceModel() poseidon.ModelBuilder {
	return func(rng *rand.Rand) *autodiff.Network {
		net, _, _, _ := autodiff.CIFARQuickNet(4, 10, rng)
		return net
	}
}

// ReferenceData is the workload every binary trains on: the seeded
// synthetic image set, split into 1024 train / 256 test rows. Keep in
// sync with e2e's referenceSession.
func ReferenceData(seed int64) (trainSet, testSet *data.Dataset) {
	full := data.Synthetic(seed, 1280, 10, 3, 8, 8, 0.35)
	return full.Split(1024)
}

// ParseRanks parses a comma-separated rank list (the -members flag).
func ParseRanks(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	ranks := make([]int, 0, len(parts))
	for _, p := range parts {
		r, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad rank %q", p)
		}
		ranks = append(ranks, r)
	}
	return ranks, nil
}

// RanksCSV renders a rank list back into the -members syntax.
func RanksCSV(ranks []int) string {
	var sb strings.Builder
	for i, r := range ranks {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(r))
	}
	return sb.String()
}
