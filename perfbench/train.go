package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/cliflags"
	"repro/internal/metrics"
	"repro/poseidon"
)

const (
	// launchIters is the fixed iteration count of every training
	// launch; the loss checks are taken after it.
	launchIters = 60
	// warmIters are excluded from the steady window. Ten is one whole
	// eval period, so the window holds whole periods.
	warmIters  = 10
	lossWindow = 20
	workers    = 2
	// launchTimeout bounds one launch; at the seed commit one takes
	// about two seconds.
	launchTimeout = 90 * time.Second
)

// launch is one training run the way a user starts it: a
// poseidon-cluster (train-cnn-tcp) or the Session child
// (train-mlp-wan), from process start to exit.
type launch struct {
	seed    int64
	start   time.Time
	iterAt  []time.Time // rank 0's completion time of each iteration
	losses  []float64   // rank 0's curve
	digests map[int]string
	comm    map[int]metrics.CommSnapshot
	maxRSS  int64 // KB
}

func (l *launch) setup() time.Duration { return l.iterAt[0].Sub(l.start) }

// window is the steady part of the launch: iterations warmIters..end.
func (l *launch) window() (iters float64, d time.Duration, intervals []float64) {
	for i := warmIters; i < len(l.iterAt); i++ {
		intervals = append(intervals, ms(l.iterAt[i].Sub(l.iterAt[i-1])))
	}
	return float64(len(intervals)), l.iterAt[len(l.iterAt)-1].Sub(l.iterAt[warmIters-1]), intervals
}

// crossing returns the first iteration whose trailing mean loss is at
// most target, or -1.
func (l *launch) crossing(target float64) int {
	for i, m := range trailingMean(l.losses, lossWindow) {
		if !math.IsNaN(m) && m <= target {
			return i
		}
	}
	return -1
}

func (l *launch) finalLoss() float64 {
	tm := trailingMean(l.losses, lossWindow)
	return tm[len(tm)-1]
}

func (l *launch) wireBytes() int64 {
	var b int64
	for _, c := range l.comm {
		b += c.Wire.BytesSent
	}
	return b
}

// subSeed derives the seed of the k-th launch of a run.
func subSeed(seed int64, k int) int64 { return seed*100 + int64(k) }

func modelOf(workload string) string {
	if workload == "train-cnn-tcp" {
		return "cnn"
	}
	return "mlp"
}

// startLaunch runs one untraced training launch to completion.
func startLaunch(o *options, seed int64) (*launch, error) {
	logw, err := logFile(o.work, "train.log")
	if err != nil {
		return nil, err
	}
	defer logw.Close()
	n := strconv.Itoa(launchIters)
	s := strconv.FormatInt(seed, 10)
	var p *proc
	if modelOf(o.name) == "cnn" {
		p, err = startProc("poseidon-cluster", filepath.Join(o.bin, "poseidon-cluster"), []string{
			"-worker", filepath.Join(o.bin, "poseidon-worker"), "-n", strconv.Itoa(workers),
			"-iters", n, "-seed", s, "-overlap", "-metrics-dump", "-dump-losses", "-print-every", "1",
		}, logw)
	} else {
		p, err = startProc("perfbench child session", filepath.Join(o.bin, "perfbench"), []string{
			"child", "session", "-seed", s,
		}, logw)
	}
	if err != nil {
		return nil, err
	}
	if err := p.wait(launchTimeout); err != nil {
		return nil, fmt.Errorf("%s (seed %d): %w", p.name, seed, err)
	}
	l := &launch{seed: seed, start: p.start, iterAt: make([]time.Time, launchIters),
		digests: map[int]string{}, comm: map[int]metrics.CommSnapshot{}, maxRSS: p.maxRSSKB}
	losses := map[int]float64{}
	for _, ln := range p.Lines() {
		rank, text, ok := workerLine(ln.text)
		if !ok {
			continue
		}
		f := strings.Fields(text)
		switch {
		case rank == 0 && len(f) >= 4 && f[0] == "worker" && f[2] == "iter":
			it, err := strconv.Atoi(f[3])
			if err == nil && it >= 1 && it <= launchIters {
				l.iterAt[it-1] = ln.at
			}
		case rank == 0 && len(f) == 3 && f[0] == "LOSS":
			it, err1 := strconv.Atoi(f[1])
			v, err2 := strconv.ParseFloat(f[2], 64)
			if err1 == nil && err2 == nil {
				losses[it] = v
			}
		case len(f) == 2 && f[0] == "PARAMS":
			l.digests[rank] = f[1]
		case len(f) >= 2 && f[0] == "METRICS":
			var snap metrics.CommSnapshot
			if err := json.Unmarshal([]byte(strings.TrimPrefix(text, "METRICS ")), &snap); err != nil {
				return nil, fmt.Errorf("rank %d METRICS: %w", rank, err)
			}
			l.comm[rank] = snap
		}
	}
	for i := 0; i < launchIters; i++ {
		v, ok := losses[i]
		if !ok || l.iterAt[i].IsZero() {
			return nil, fmt.Errorf("seed %d: rank 0 reported no iteration %d", seed, i)
		}
		l.losses = append(l.losses, v)
	}
	if len(l.comm) != workers {
		return nil, fmt.Errorf("seed %d: %d of %d ranks reported METRICS", seed, len(l.comm), workers)
	}
	return l, nil
}

// workerLine splits poseidon-cluster's "[w<rank>] text" relay prefix.
func workerLine(s string) (rank int, text string, ok bool) {
	if !strings.HasPrefix(s, "[w") {
		return 0, "", false
	}
	end := strings.IndexByte(s, ']')
	if end < 0 {
		return 0, "", false
	}
	r, err := strconv.Atoi(s[2:end])
	if err != nil {
		return 0, "", false
	}
	return r, strings.TrimPrefix(s[end+1:], " "), true
}

// launchCount is how many launches a run of the given length makes. It
// depends on the run length only, never on how fast the program is, so
// every commit trains the same seeds.
func launchCount(seconds int) int { return max(2, seconds/2) }

func runTrain(o *options, rep *report) error {
	if o.trace {
		return traceTrain(o, rep)
	}
	t, _ := taskFor(modelOf(o.name))
	w := o.workload()
	target := w.TargetLoss
	k := launchCount(o.seconds)
	rep.attempted = k
	var (
		ls                []*launch
		setups, ttt, wire []float64
		intervals         []float64
		rates             []float64
		finals            []float64
		maxRSS            int64
		digestsOK         = true
		misses            int
	)
	for i := 0; i < k; i++ {
		l, err := startLaunch(o, subSeed(o.seed, i))
		if err != nil {
			rep.failed++
			rep.infof("launch %d failed: %v", i, err)
			continue
		}
		ls = append(ls, l)
		setups = append(setups, l.setup().Seconds())
		n, d, iv := l.window()
		rates = append(rates, n*float64(t.batch*workers)/d.Seconds())
		intervals = append(intervals, iv...)
		// A launch that never reaches the target counts with its whole
		// length: the metric worsens and the miss is reported.
		c := l.crossing(target)
		if c < 0 {
			misses++
			c = launchIters - 1
		}
		ttt = append(ttt, l.iterAt[c].Sub(l.start).Seconds())
		finals = append(finals, l.finalLoss())
		wire = append(wire, float64(l.wireBytes())/launchIters)
		maxRSS = max(maxRSS, l.maxRSS)
		if d0, d1 := l.digests[0], l.digests[1]; d0 == "" || d0 != d1 {
			digestsOK = false
			rep.infof("launch %d: PARAMS digests %v", i, l.digests)
		}
	}
	rep.check("every launch completed", rep.failed == 0, "%d of %d launches", len(ls), k)
	if len(ls) == 0 {
		return fmt.Errorf("no launch completed")
	}
	rep.check("PARAMS digest equal on every rank", digestsOK, "%d launches", len(ls))
	// One unlucky seed may miss the target within the launch; most
	// missing it means training no longer converges.
	rep.check("trailing loss reaches the target", 2*misses < len(ls),
		"trailing-%d loss reached %.3g in %d of %d launches", lossWindow, target, len(ls)-misses, len(ls))
	fl := mean(finals)
	lo, hi := w.FinalLoss.bounds(len(finals))
	rep.check(fmt.Sprintf("loss after %d iterations in recorded spread", launchIters), fl >= lo && fl <= hi,
		"mean trailing-%d loss %.4f over %d launches (each %.4f..%.4f), recorded %.4f ± %.4f/√%d×%g = [%.4f, %.4f]",
		lossWindow, fl, len(finals), quantile(finals, 0), quantile(finals, 1),
		w.FinalLoss.Mean, w.FinalLoss.SD, len(finals), w.FinalLoss.Z, lo, hi)
	// Bit-equality with the recorded curves is information only: a
	// kernel that reassociates its sums changes the bits, not the
	// training.
	var known, equal int
	for _, l := range ls {
		if want, ok := w.Curves[strconv.FormatInt(l.seed, 10)]; ok {
			known++
			if want == fmt.Sprintf("%016x", curveDigest(l.losses)) {
				equal++
			}
		}
	}
	rep.infof("loss curves: %d of %d launches have a recorded curve, %d of them bit-equal", known, len(ls), equal)

	rep.infof("launch set-ups took %s s", fmtList(setups))
	rep.infof("launch throughputs %s samples/s", fmtList(rates))
	rep.set("setup_s", median(setups))
	rep.set("throughput_per_s", median(rates))
	rep.set("latency_ms_p50", median(intervals))
	rep.set("latency_ms_p95", quantile(intervals, 0.95))
	rep.set("time_to_target_s", median(ttt))
	rep.set("wire_bytes_per_iter", median(wire))
	rep.set("peak_rss_mb", float64(maxRSS)/1024)
	rep.infof("%d launches of %d iterations, %d steady intervals", len(ls), launchIters, len(intervals))
	return nil
}

// freeAddrs reserves n loopback addresses from the kernel (bound to :0
// and released), as poseidon-cluster does.
func freeAddrs(n int) ([]string, error) {
	var addrs []string
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

// tracedRun is one traced training run: every rank's summary and spans.
type tracedRun struct {
	ranks []*rankSummary
	spans [][]span
}

// runReplay runs the traced replay: for train-cnn-tcp with two ranks,
// one TCP process per rank; otherwise all ranks in one process.
func runReplay(o *options, model string, ranks int, seed int64, dir string) (*tracedRun, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logw, err := logFile(o.work, "replay.log")
	if err != nil {
		return nil, err
	}
	defer logw.Close()
	base := []string{"child", "replay", "-model", model, "-iters", strconv.Itoa(launchIters),
		"-seed", strconv.FormatInt(seed, 10), "-out", dir}
	self := filepath.Join(o.bin, "perfbench")
	var ps []*proc
	if model == "cnn" && ranks > 1 {
		addrs, err := freeAddrs(ranks)
		if err != nil {
			return nil, err
		}
		for r := 0; r < ranks; r++ {
			args := append(append([]string(nil), base...), "-rank", strconv.Itoa(r), "-peers", strings.Join(addrs, ","))
			p, err := startProc(fmt.Sprintf("traced rank %d", r), self, args, logw)
			if err != nil {
				return nil, err
			}
			ps = append(ps, p)
		}
	} else {
		p, err := startProc("traced replay", self, append(base, "-workers", strconv.Itoa(ranks)), logw)
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
	}
	for _, p := range ps {
		if err := p.wait(launchTimeout); err != nil {
			for _, q := range ps {
				q.kill()
			}
			return nil, err
		}
	}
	run := &tracedRun{}
	for r := 0; r < ranks; r++ {
		b, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("rank%d.json", r)))
		if err != nil {
			return nil, err
		}
		var sum rankSummary
		if err := json.Unmarshal(b, &sum); err != nil {
			return nil, err
		}
		sp, err := readSpans(filepath.Join(dir, fmt.Sprintf("rank%d.spans", r)))
		if err != nil {
			return nil, err
		}
		run.ranks = append(run.ranks, &sum)
		run.spans = append(run.spans, sp)
	}
	return run, nil
}

// samplesPerSec is the steady-window rate of a traced run, from rank
// 0's iteration spans.
func (r *tracedRun) samplesPerSec(batch int) float64 {
	ends := map[int]int64{}
	for _, s := range r.spans[0] {
		if s.Name == "iter" {
			ends[s.Trace] = s.End
		}
	}
	d := time.Duration(ends[launchIters-1] - ends[warmIters-1])
	return float64((launchIters-warmIters)*batch*len(r.ranks)) / d.Seconds()
}

// waits returns every WaitFor span of rank 0, the final drain included.
func (r *tracedRun) waits() []time.Duration {
	var out []time.Duration
	for _, s := range r.spans[0] {
		if s.Name == "comm.wait" {
			out = append(out, s.dur())
		}
	}
	return out
}

// steady returns rank r's spans of the steady window grouped by name.
func (r *tracedRun) steady(rank int) map[string][]time.Duration {
	out := map[string][]time.Duration{}
	for _, s := range r.spans[rank] {
		if s.Trace >= warmIters && s.Trace < launchIters {
			out[s.Name] = append(out[s.Name], s.dur())
		}
	}
	return out
}

// traceTrain is the traced pass of a training workload. Each round
// makes one untraced launch, the traced replay on the same seed and
// topology, and a traced single-worker run of the same task.
func traceTrain(o *options, rep *report) error {
	model := modelOf(o.name)
	t, _ := taskFor(model)
	rounds := max(1, o.seconds/8)
	rep.attempted = 3 * rounds
	var untraced, traced, single []float64
	var runs []*tracedRun
	curvesOK, digestsOK := true, true
	for i := 0; i < rounds; i++ {
		seed := subSeed(o.seed, i)
		l, err := startLaunch(o, seed)
		if err != nil {
			return err
		}
		n, d, _ := l.window()
		untraced = append(untraced, n*float64(t.batch*workers)/d.Seconds())
		tr, err := runReplay(o, model, workers, seed, filepath.Join(o.work, fmt.Sprintf("traced-%d", i)))
		if err != nil {
			return err
		}
		runs = append(runs, tr)
		traced = append(traced, tr.samplesPerSec(t.batch))
		if curveDigest(tr.ranks[0].Losses) != curveDigest(l.losses) {
			curvesOK = false
		}
		for _, rs := range tr.ranks {
			if rs.Digest != l.digests[0] {
				digestsOK = false
			}
		}
		one, err := runReplay(o, model, 1, seed, filepath.Join(o.work, fmt.Sprintf("single-%d", i)))
		if err != nil {
			return err
		}
		single = append(single, one.samplesPerSec(t.batch))
	}
	rep.check("traced loss curve bit-matches untraced", curvesOK, "%d rounds, %d iterations each", rounds, launchIters)
	rep.check("traced PARAMS digest equals untraced", digestsOK, "every rank, %d rounds", rounds)

	rep.set("trace.samples_per_s.untraced", median(untraced))
	rep.set("trace.samples_per_s.traced", median(traced))
	rep.set("train.single_worker_samples_per_s", median(single))
	rep.set("train.scaling_eff", median(traced)/(workers*median(single)))
	rep.infof("tracing overhead: traced/untraced samples_per_s = %.3f", median(traced)/median(untraced))
	layerMetrics(rep, t, runs)
	return planMetrics(rep, t)
}

// layerMetrics turns the traced runs into the per-layer metrics.
func layerMetrics(rep *report, t task, runs []*tracedRun) {
	perRank := make([]map[string][]time.Duration, workers)
	for r := range perRank {
		perRank[r] = map[string][]time.Duration{}
		for _, run := range runs {
			for name, ds := range run.steady(r) {
				perRank[r][name] = append(perRank[r][name], ds...)
			}
		}
	}
	all := map[string][]time.Duration{}
	for _, m := range perRank {
		for name, ds := range m {
			all[name] = append(all[name], ds...)
		}
	}
	meanMS := func(ds []time.Duration) float64 { return ms(sumDur(ds)) / float64(len(ds)) }

	names := runs[0].ranks[0].Layers
	net := t.builder()(rand.New(rand.NewSource(1)))
	trainSet, _ := cliflags.ReferenceData(1)
	counts := kernelCounts(net, t.batch, trainSet.X.Cols)
	var flop, bytes float64
	kindFlop, kindTime := map[string]float64{}, map[string]float64{}
	for i, name := range names {
		fwd, bwd := all["fwd."+name], all["bwd."+name]
		rep.set("autodiff.fwd_ms."+name, meanMS(fwd))
		rep.set("autodiff.bwd_ms."+name, meanMS(bwd))
		kc := counts[i]
		flop += kc.flopFwd + kc.flopBwd
		bytes += kc.bytesFwd + kc.bytesBwd
		kindFlop[kc.kind] += kc.flopFwd + kc.flopBwd
		kindTime[kc.kind] += meanMS(fwd) + meanMS(bwd)
		rep.infof("kernel %-9s fwd %8.3f MFLOP %7.3f MB %8.3f ms | bwd %8.3f MFLOP %7.3f MB %8.3f ms",
			name, kc.flopFwd/1e6, kc.bytesFwd/1e6, meanMS(fwd), kc.flopBwd/1e6, kc.bytesBwd/1e6, meanMS(bwd))
	}
	rep.set("autodiff.loss_ms", meanMS(all["loss"]))
	if ev := all["eval"]; len(ev) > 0 {
		rep.set("autodiff.eval_ms", meanMS(ev))
	}
	rep.set("tensor.mflop_per_iter", flop/1e6)
	rep.set("tensor.mbytes_per_iter", bytes/1e6)
	for _, kind := range []string{"conv", "fc"} {
		if kindTime[kind] > 0 {
			rep.set("tensor.gflops."+kind, kindFlop[kind]/1e9/(kindTime[kind]/1e3))
		}
	}
	rep.set("comm.launch_ms", meanMS(all["comm.launch"]))
	rep.set("comm.adopt_ms", meanMS(all["comm.adopt"]))
	for r := 0; r < workers; r++ {
		rep.set(fmt.Sprintf("comm.wait_ms.rank%d", r), meanMS(perRank[r]["comm.wait"]))
	}

	var frames, wireBytes, sendNS, kvRounds, kvValues, sfbBytes, sfbMoved, sfbEquiv float64
	var wait0, wire0 float64
	iters := float64(len(runs) * launchIters)
	for _, run := range runs {
		for r, rs := range run.ranks {
			frames += float64(rs.Frames)
			wireBytes += float64(rs.Bytes)
			sendNS += float64(rs.SendNS)
			kvRounds += float64(rs.Comm.KV.RoundsFolded)
			kvValues += float64(rs.Comm.KV.ValuesFolded)
			for _, p := range rs.Comm.Params {
				if p.Route == "SFB" {
					sfbBytes += float64(p.BytesSent)
					sfbMoved += float64(p.BytesSent + p.BytesRecv)
					sfbEquiv += float64(p.PSEquivBytes)
				}
			}
			if r == 0 {
				wait0 += float64(sumDur(run.waits()))
			}
			// Rank 0's link time in both directions: with two ranks every
			// frame a peer sends is to rank 0.
			if t.linkBPS > 0 {
				wire0 += float64(rs.ModelNS)
			} else {
				wire0 += float64(rs.SendNS)
			}
		}
	}
	rep.set("comm.overlap_share", 1-wait0/wire0)
	rep.set("transport.frames_per_iter", frames/iters)
	rep.set("transport.bytes_per_iter", wireBytes/iters)
	rep.set("transport.send_ms_per_iter", sendNS/1e6/iters)
	rep.set("kvstore.rounds_per_iter", kvRounds/iters)
	rep.set("kvstore.values_folded_per_iter", kvValues/iters)
	rep.set("sfb.bytes_per_iter", sfbBytes/iters)
	if sfbEquiv > 0 {
		rep.set("sfb.savings_share", 1-sfbMoved/sfbEquiv)
	}
}

// planMetrics counts Algorithm 1's routes through Session.Plan.
func planMetrics(rep *report, t task) error {
	trainSet, testSet := cliflags.ReferenceData(1)
	sess, err := poseidon.NewSession().InProcess(workers).Iterations(launchIters).Batch(t.batch).
		LearningRate(learningRate).Seed(1).Mode(poseidon.Hybrid).Overlap(true).
		Model(t.builder()).Data(trainSet, testSet).Build()
	if err != nil {
		return err
	}
	defer sess.Close()
	decisions, err := sess.Plan()
	if err != nil {
		return err
	}
	routes := map[poseidon.Scheme]float64{}
	var plan []string
	for _, d := range decisions {
		routes[d.Scheme]++
		plan = append(plan, d.Spec.Name+"="+d.Scheme.String())
	}
	rep.set("poseidon.routes.ps", routes[poseidon.SchemePS])
	rep.set("poseidon.routes.sfb", routes[poseidon.SchemeSFB])
	rep.set("poseidon.routes.ring", routes[poseidon.SchemeRing])
	rep.infof("plan %s", strings.Join(plan, " "))
	return nil
}
