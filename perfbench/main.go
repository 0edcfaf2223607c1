// Command perfbench is the repository benchmark. It drives the system
// the way its users do — training through poseidon-cluster and
// poseidon-worker or the poseidon.Session API, serving through
// poseidon-serve and poseidon-lb — prints every end-to-end metric with
// its unit, and checks that the outputs are correct. With --trace 1 it
// instead runs a traced pass that times the calls into each layer from
// the benchmark's own code and prints the per-layer metrics.
//
// Run it through perfbench/run.sh from the root of a checkout, which
// builds everything first:
//
//	bash perfbench/run.sh --workload train-cnn-tcp --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Workloads, metrics and
// the layer each per-layer metric belongs to are described in
// perfbench/workloads.json.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"sort"
	"syscall"
)

//go:embed workloads.json
var workloadsJSON []byte

// spec is perfbench/workloads.json: the recorded facts each workload's
// checks compare against, and the documentation of every metric.
type spec struct {
	Workloads []workloadSpec `json:"workloads"`
	EndToEnd  []metricDef    `json:"end_to_end"`
	PerLayer  []metricDef    `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	// TargetLoss is the trailing-20 mean train loss time_to_target_s
	// waits for (training); TargetIter is how many iterations the
	// gateway must train while the fleet serves (serving).
	TargetLoss float64 `json:"target_loss,omitempty"`
	TargetIter int     `json:"target_iter,omitempty"`
	// FinalLoss is the across-seed distribution of one launch's trailing
	// loss after the fixed iteration count.
	FinalLoss lossBand `json:"final_loss"`
	// Curves maps a launch seed to the digest of the loss curve recorded
	// for it; a match is reported, not required.
	Curves map[string]string `json:"curves,omitempty"`
}

// lossBand holds the mean and standard deviation of one launch's final
// trailing loss over many launch seeds. A run's mean over its k
// launches must lie within Z standard errors (SD/√k) of Mean.
type lossBand struct {
	Mean float64 `json:"mean"`
	SD   float64 `json:"sd"`
	Z    float64 `json:"z"`
}

func (b lossBand) bounds(k int) (lo, hi float64) {
	h := b.Z * b.SD / math.Sqrt(float64(k))
	return b.Mean - h, b.Mean + h
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type options struct {
	name    string // the workload
	seed    int64
	seconds int
	trace   bool
	bin     string // directory holding the built binaries
	work    string // scratch directory inside the checkout
	spec    spec
}

// workload returns the recorded facts of the workload being run.
func (o *options) workload() workloadSpec {
	for _, w := range o.spec.Workloads {
		if w.Name == o.name {
			return w
		}
	}
	return workloadSpec{}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics and check outcomes and prints the
// human-readable lines as they come.
type report struct {
	out       io.Writer
	units     map[string]string
	metrics   map[string]metric
	checks    int
	failures  int
	attempted int
	failed    int
}

func newReport(out io.Writer, defs []metricDef) *report {
	r := &report{out: out, units: map[string]string{}, metrics: map[string]metric{}}
	for _, d := range defs {
		r.units[d.Name] = d.Unit
	}
	return r
}

// set records a metric; names must be declared in workloads.json.
func (r *report) set(name string, v float64) {
	unit, ok := r.units[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.check("metric "+name+" is finite", false, "got %v", v)
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// check records a correctness check; a failed check fails the run.
func (r *report) check(name string, ok bool, format string, args ...any) {
	r.checks++
	status := "ok"
	if !ok {
		r.failures++
		status = "FAIL"
	}
	fmt.Fprintf(r.out, "check %-44s %s  %s\n", name, status, fmt.Sprintf(format, args...))
}

func (r *report) infof(format string, args ...any) {
	fmt.Fprintf(r.out, "info  "+format+"\n", args...)
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// finish prints the metric table and returns the result.
func (r *report) finish() result {
	names := make([]string, 0, len(r.units))
	for n := range r.units {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m, ok := r.metrics[n]
		if !ok {
			// A layer this workload does not run: it reports 0.
			m = metric{Value: 0, Unit: r.units[n]}
			r.metrics[n] = m
			fmt.Fprintf(r.out, "metric %-40s %14s %s\n", n, "n/a", m.Unit)
			continue
		}
		fmt.Fprintf(r.out, "metric %-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	res := result{r.checks > 0 && r.failures == 0, r.attempted, r.failed, r.metrics}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = max(res.Failed, 1)
	}
	return res
}

var workloads = map[string]func(*options, *report) error{
	"train-cnn-tcp": runTrain,
	"train-mlp-wan": runTrain,
	"serve-fleet":   runServe,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(benchMain())
}

// childMain runs the benchmark's own child processes: the untraced
// train-mlp-wan workers (session) and the traced training replay (replay).
func childMain(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "perfbench child: want session or replay")
		return 2
	}
	var err error
	switch args[0] {
	case "session":
		err = runSessionChild(args[1:])
	case "replay":
		err = runReplayChild(args[1:])
	default:
		err = fmt.Errorf("unknown child mode %q", args[0])
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child %s: %v\n", args[0], err)
		return 1
	}
	return 0
}

func benchMain() int {
	var o options
	var trace int
	flag.StringVar(&o.name, "workload", "", "train-cnn-tcp, train-mlp-wan or serve-fleet")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: data, model, request bodies and tenants derive from it")
	flag.IntVar(&o.seconds, "seconds", 30, "approximate length of the measured part of a run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	flag.StringVar(&o.bin, "bin", "", "directory with the built poseidon binaries and perfbench")
	flag.StringVar(&o.work, "work", "", "scratch directory inside the checkout")
	flag.Parse()
	o.trace = trace == 1
	names := []string{o.name}
	if o.name == "all" {
		names = []string{"train-cnn-tcp", "train-mlp-wan", "serve-fleet"}
	}
	_, known := workloads[names[0]]
	if !known || o.bin == "" || o.work == "" || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -bin DIR -work DIR --workload NAME|all --seed N --seconds S --trace 0|1")
		return 2
	}
	if err := json.Unmarshal(workloadsJSON, &o.spec); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: workloads.json: %v\n", err)
		return 2
	}

	// Every child leads its own process group; make sure none outlives
	// the benchmark, whatever ends it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(1)
	}()
	defer killAll()

	// With --workload all every workload runs in turn and the last line
	// merges their results, metric names prefixed by the workload.
	all := result{Correct: true, Metrics: map[string]metric{}}
	work := o.work
	for _, name := range names {
		o.name, o.work = name, work
		res, code := runOne(&o)
		if code != 0 {
			return code
		}
		if len(names) == 1 {
			all = res
			break
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[name+"/"+k] = v
		}
	}
	line, _ := json.Marshal(all)
	fmt.Println(string(line))
	return 0
}

// runOne runs one workload, printing its report, and returns its result.
func runOne(o *options) (result, int) {
	dir, err := os.MkdirTemp(o.work, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return result{}, 1
	}
	o.work = dir
	defs := o.spec.EndToEnd
	if o.trace {
		defs = o.spec.PerLayer
	}
	rep := newReport(os.Stdout, defs)
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%v\n", o.name, o.seed, o.seconds, o.trace)
	if err := workloads[o.name](o, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.name, err)
		fmt.Fprintf(os.Stderr, "perfbench: child logs are in %s\n", dir)
		return result{}, 1
	}
	res := rep.finish()
	// An untraced run that passed leaves nothing behind; a traced run
	// keeps its spans, a failed one its child logs.
	if rep.failures == 0 && !o.trace {
		os.RemoveAll(dir)
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: spans and child logs are in %s\n", dir)
	}
	return res, 0
}
