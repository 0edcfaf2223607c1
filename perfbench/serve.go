package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cliflags"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/snapshot"
	"repro/internal/tensor"
)

const (
	replicas  = 2
	bodyRows  = 4
	bodyCount = 64
	// tenantCount is large enough that the share of requests each
	// replica receives is set by the hash ring, not by which tenants the
	// seed happened to draw.
	tenantCount = 512
	// senders is the load generator's connection count: one per CPU of
	// the machine the figures in workloads.json were taken on.
	senders = 2
	// fixedRPS is about half the knee at the seed commit (175 to 215
	// req/s on a 2-CPU machine). sloMS is the p95 limit the rate ladder
	// is measured against: past the knee a backlog builds and p95 grows
	// into the hundreds of milliseconds within a rung, while below it a
	// busy moment on the machine stays well under the limit.
	fixedRPS = 80
	sloMS    = 100
	// window is the span of requests each latency percentile of the
	// fixed rate is taken over: 200 requests at fixedRPS, so its
	// p95 has ten beyond it. A ladder rung is cut into rungWindows.
	window      = 2500 * time.Millisecond
	rungWindows = 3
	// bisectSteps rungs follow the coarse ladder, each halving the
	// interval between the highest rung that passed and the lowest that
	// failed: from the seed commit's 150..225 bracket that leaves 9.4
	// req/s, about 5 % of the knee.
	bisectSteps = 3
	// setups is how many times a run stands the fleet up; setup_s is the
	// median.
	setups      = 5
	stopTimeout = 30 * time.Second
)

// ladder is the coarse sequence of rates throughput_per_s climbs until
// a rung fails; bisection then narrows the knee (175 to 215 req/s at the
// seed commit) down between two rungs.
var ladder = []float64{100, 150, 225, 340, 500}

// climb returns the achieved rate of the highest rate that passes: the
// coarse ladder until a rung fails, then bisectSteps rungs between the
// last rate that passed and the first that failed. try runs one rung.
func climb(try func(rate float64) (achieved float64, pass bool)) float64 {
	var lo, hi, best float64
	for _, rate := range ladder {
		achieved, pass := try(rate)
		if !pass {
			hi = rate
			break
		}
		lo, best = rate, achieved
	}
	if hi == 0 { // the top rung passed
		return best
	}
	for i := 0; i < bisectSteps; i++ {
		mid := (lo + hi) / 2
		if achieved, pass := try(mid); pass {
			lo, best = mid, achieved
		} else {
			hi = mid
		}
	}
	return best
}

// fleetProcs is one stood-up fleet: a training gateway, its pull
// replicas and the load balancer in front of them.
type fleetProcs struct {
	start    time.Time
	gw, lb   *proc
	reps     []*proc
	gwURL    string
	lbURL    string
	repURLs  []string
	maxRSSKB int64
}

func listenAddr(p *proc, prefix string) (string, error) {
	rest, err := p.waitLine(prefix, 60*time.Second)
	if err != nil {
		return "", err
	}
	return "http://" + strings.Fields(rest)[0], nil
}

func startFleet(o *options) (*fleetProcs, error) {
	logw, err := logFile(o.work, "fleet.log")
	if err != nil {
		return nil, err
	}
	defer logw.Close()
	serveBin := filepath.Join(o.bin, "poseidon-serve")
	seed := strconv.FormatInt(o.seed, 10)
	f := &fleetProcs{}
	fail := func(err error) (*fleetProcs, error) {
		f.kill()
		return nil, err
	}
	// The gateway trains at the lowest CPU priority, as a batch job next
	// to latency-bound servers: serving takes the CPU it needs first, so
	// when the machine has less to give, training slows instead of the
	// read path's tail.
	f.gw, err = startProc("gateway", "nice", []string{"-n", "19", serveBin, "-local", "1", "-iters", "1000000",
		"-snapshot-every", "10", "-print-every", "0", "-listen", "127.0.0.1:0", "-seed", seed}, logw)
	if err != nil {
		return nil, err
	}
	f.start = f.gw.start
	if f.gwURL, err = listenAddr(f.gw, "SERVE listening on "); err != nil {
		return fail(err)
	}
	// Replicas start once the gateway has its first capture, so their
	// first pull (made at start) finds it instead of racing the poll
	// interval.
	if err := firstCapture(f.gwURL, 60*time.Second); err != nil {
		return fail(err)
	}
	var hostports []string
	for i := 0; i < replicas; i++ {
		p, err := startProc(fmt.Sprintf("replica %d", i), serveBin, []string{"-replica", "-pull", f.gwURL,
			"-listen", "127.0.0.1:0", "-seed", seed}, logw)
		if err != nil {
			return fail(err)
		}
		f.reps = append(f.reps, p)
		u, err := listenAddr(p, "SERVE listening on ")
		if err != nil {
			return fail(err)
		}
		f.repURLs = append(f.repURLs, u)
		hostports = append(hostports, strings.TrimPrefix(u, "http://"))
	}
	f.lb, err = startProc("lb", filepath.Join(o.bin, "poseidon-lb"), []string{"-replicas", strings.Join(hostports, ","),
		"-listen", "127.0.0.1:0"}, logw)
	if err != nil {
		return fail(err)
	}
	if f.lbURL, err = listenAddr(f.lb, "LB listening on "); err != nil {
		return fail(err)
	}
	return f, nil
}

// firstCapture polls the gateway until it serves a model version.
func firstCapture(gwURL string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(gwURL + "/v1/model")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("gateway captured no snapshot within %v", timeout)
}

func (f *fleetProcs) all() []*proc {
	var ps []*proc
	for _, p := range append([]*proc{f.lb}, f.reps...) {
		if p != nil {
			ps = append(ps, p)
		}
	}
	if f.gw != nil {
		ps = append(ps, f.gw)
	}
	return ps
}

func (f *fleetProcs) kill() {
	for _, p := range f.all() {
		p.kill()
		p.wait(stopTimeout)
	}
}

// stop drains every process with SIGTERM, front door first, and
// records the largest peak RSS.
func (f *fleetProcs) stop() error {
	var first error
	for _, p := range f.all() {
		if err := p.stop(stopTimeout); err != nil && first == nil {
			first = fmt.Errorf("%s: %w", p.name, err)
		}
		f.maxRSSKB = max(f.maxRSSKB, p.maxRSSKB)
	}
	return first
}

// loadgen is an open-loop generator: request i is due at start + i/rate
// whatever happened to earlier requests, and its latency counts from
// that due time.
type loadgen struct {
	bodies  [][]byte
	tenants []string
	rng     *rand.Rand
	client  *http.Client
}

func newLoadgen(seed int64) (*loadgen, error) {
	_, testSet := cliflags.ReferenceData(seed)
	g := &loadgen{rng: rand.New(rand.NewSource(seed)), client: &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: senders, MaxIdleConnsPerHost: senders,
			DisableCompression: true},
	}}
	for b := 0; b < bodyCount; b++ {
		rows := make([][]float32, bodyRows)
		for r := range rows {
			rows[r] = testSet.X.Row((b*bodyRows + r) % testSet.N())
		}
		body, err := json.Marshal(map[string][][]float32{"instances": rows})
		if err != nil {
			return nil, err
		}
		g.bodies = append(g.bodies, body)
	}
	for i := 0; i < tenantCount; i++ {
		g.tenants = append(g.tenants, fmt.Sprintf("tenant-%08x", g.rng.Uint32()))
	}
	return g, nil
}

type outcome struct {
	tenant          string
	due, sent, done time.Time
	ok              bool
	err             string
	replica         string
	ver             fleet.Version
}

func (r *outcome) latencyMS() float64 { return ms(r.done.Sub(r.due)) }

type predictResponse struct {
	Predictions []struct {
		Label int       `json:"label"`
		Probs []float32 `json:"probs"`
	} `json:"predictions"`
}

// do sends one predict, stamps o.done when the answer has arrived and
// validates it: a 200 whose every row carries probabilities summing to 1
// and a snapshot version.
func (g *loadgen) do(url string, tenant string, body []byte, o *outcome) {
	req, err := http.NewRequest(http.MethodPost, url+"/v1/predict", bytes.NewReader(body))
	if err != nil {
		o.done = time.Now()
		o.err = err.Error()
		return
	}
	req.Header.Set(fleet.HeaderTenant, tenant)
	req.Header.Set("Content-Type", "application/json")
	resp, err := g.client.Do(req)
	if err != nil {
		o.done = time.Now()
		o.err = err.Error()
		return
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	// The answer is complete here; validating it is the generator's work.
	o.done = time.Now()
	if err != nil {
		o.err = err.Error()
		return
	}
	if resp.StatusCode != http.StatusOK {
		o.err = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
		return
	}
	var pr predictResponse
	if err := json.Unmarshal(raw, &pr); err != nil {
		o.err = "decode: " + err.Error()
		return
	}
	if len(pr.Predictions) != bodyRows {
		o.err = fmt.Sprintf("%d predictions for %d rows", len(pr.Predictions), bodyRows)
		return
	}
	for _, p := range pr.Predictions {
		var sum float64
		for _, v := range p.Probs {
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			o.err = fmt.Sprintf("probabilities sum to %.8f", sum)
			return
		}
	}
	iter, err1 := strconv.Atoi(resp.Header.Get(fleet.HeaderIter))
	epoch, err2 := strconv.Atoi(resp.Header.Get(fleet.HeaderEpoch))
	if err1 != nil || err2 != nil {
		o.err = "no snapshot version headers"
		return
	}
	o.ver = fleet.Version{Iter: iter, Epoch: epoch}
	o.replica = resp.Header.Get(fleet.HeaderReplica)
	o.ok = true
}

// pick draws the tenant and body of the next request from the seed.
func (g *loadgen) pick() (string, []byte) {
	return g.tenants[g.rng.Intn(len(g.tenants))], g.bodies[g.rng.Intn(len(g.bodies))]
}

// run sends rate requests per second to url (or, with route, to the
// URL route picks for the tenant) for d, and returns every outcome.
func (g *loadgen) run(url string, route func(tenant string) string, rate float64, d time.Duration, tr *tracer, phase string) []outcome {
	n := int(rate * d.Seconds())
	out := make([]outcome, n)
	type job struct {
		tenant string
		body   []byte
	}
	jobs := make([]job, n)
	for i := range jobs {
		jobs[i].tenant, jobs[i].body = g.pick()
	}
	root := 0
	if tr != nil {
		root = tr.open(0, 0, phase)
	}
	start := time.Now().Add(2 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				o := &out[i]
				o.tenant = jobs[i].tenant
				o.due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				time.Sleep(time.Until(o.due))
				o.sent = time.Now()
				target := url
				if route != nil {
					target = route(o.tenant)
				}
				g.do(target, o.tenant, jobs[i].body, o)
				if tr != nil {
					tr.add(i+1, root, "predict", o.sent, o.done)
				}
			}
		}()
	}
	wg.Wait()
	if tr != nil {
		tr.close(root)
	}
	return out
}

type phaseStats struct {
	n, failed    int
	p50, p95     float64
	windowP95s   []float64
	lateP95      float64
	tailP50      float64 // median latency of the last tenth: a growing backlog shows here
	achievedRate float64
	errs         map[string]int
}

// summarize computes a phase's statistics. The latency percentiles are
// taken per window — the phase cut into equal runs of consecutive
// requests — and the median over the windows is reported, so a burst of
// slow requests moves one window rather than the phase's figure.
func summarize(out []outcome, windows int) phaseStats {
	st := phaseStats{n: len(out), errs: map[string]int{}}
	var late, p50s, p95s []float64
	var first, last time.Time
	for i, o := range out {
		if i == 0 || o.due.Before(first) {
			first = o.due
		}
		if o.done.After(last) {
			last = o.done
		}
		late = append(late, ms(o.sent.Sub(o.due)))
		if !o.ok {
			st.failed++
			st.errs[o.err]++
		}
	}
	for w := 0; w < windows; w++ {
		var lat []float64
		for _, o := range out[w*len(out)/windows : (w+1)*len(out)/windows] {
			if o.ok {
				lat = append(lat, o.latencyMS())
			}
		}
		p50s = append(p50s, median(lat))
		p95s = append(p95s, quantile(lat, 0.95))
	}
	st.p50, st.p95, st.windowP95s = median(p50s), median(p95s), p95s
	st.lateP95 = quantile(late, 0.95)
	var tail []float64
	for _, o := range out[len(out)*9/10:] {
		if o.ok {
			tail = append(tail, o.latencyMS())
		}
	}
	st.tailP50 = median(tail)
	st.achievedRate = float64(len(out)-st.failed) / last.Sub(first).Seconds()
	return st
}

// monotonic reports whether every tenant's served versions never went
// down: a request sent after another of the same tenant completed must
// be served a version at least as new.
func monotonic(out []outcome) (bool, string) {
	byTenant := map[string][]*outcome{}
	for i := range out {
		if out[i].ok {
			byTenant[out[i].tenant] = append(byTenant[out[i].tenant], &out[i])
		}
	}
	for tenant, rs := range byTenant {
		bySent := append([]*outcome(nil), rs...)
		sort.Slice(bySent, func(a, b int) bool { return bySent[a].sent.Before(bySent[b].sent) })
		byDone := append([]*outcome(nil), rs...)
		sort.Slice(byDone, func(a, b int) bool { return byDone[a].done.Before(byDone[b].done) })
		var floor fleet.Version
		j := 0
		for _, r := range bySent {
			for ; j < len(byDone) && byDone[j].done.Before(r.sent); j++ {
				if byDone[j].ver.After(floor) {
					floor = byDone[j].ver
				}
			}
			if floor.After(r.ver) {
				return false, fmt.Sprintf("tenant %s served %v after %v", tenant, r.ver, floor)
			}
		}
	}
	return true, ""
}

// servedAt polls the front door until it answers a predict, and
// returns when it did.
func (g *loadgen) servedAt(url string, timeout time.Duration) (time.Time, error) {
	deadline := time.Now().Add(timeout)
	var last string
	for time.Now().Before(deadline) {
		var o outcome
		g.do(url, g.tenants[0], g.bodies[0], &o)
		if o.ok {
			return o.done, nil
		}
		last = o.err
		time.Sleep(5 * time.Millisecond)
	}
	return time.Time{}, fmt.Errorf("the lb answered no predict within %v (last error: %q)", timeout, last)
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// gatewayState is the gateway's served iteration and the snapshot
// bodies (count and bytes) it has sent to replicas.
type gatewayState struct {
	iter         int
	sent, nbytes int64
}

func readGateway(f *fleetProcs) (gatewayState, error) {
	var model struct {
		Iter int `json:"iter"`
	}
	if err := getJSON(f.gwURL+"/v1/model", &model); err != nil {
		return gatewayState{}, err
	}
	var m metrics.CommSnapshot
	if err := getJSON(f.gwURL+"/metrics", &m); err != nil {
		return gatewayState{}, err
	}
	st := gatewayState{iter: model.Iter}
	if m.Serve != nil {
		st.sent, st.nbytes = m.Serve.SnapshotServes, m.Serve.SnapshotBytes
	}
	return st, nil
}

// gatewayIters returns how many iterations the gateway's training has
// started, and when it was read: its single worker waits once per
// iteration, and /metrics counts the waits.
func gatewayIters(f *fleetProcs) (int64, time.Time, error) {
	var m metrics.CommSnapshot
	err := getJSON(f.gwURL+"/metrics", &m)
	return m.Stall.Count, time.Now(), err
}

// standUp starts a fleet and times it to its first answered predict.
func standUp(o *options, g *loadgen) (*fleetProcs, time.Duration, error) {
	f, err := startFleet(o)
	if err != nil {
		return nil, 0, err
	}
	at, err := g.servedAt(f.lbURL, 60*time.Second)
	if err != nil {
		f.kill()
		return nil, 0, err
	}
	return f, at.Sub(f.start), nil
}

// windows is how many percentile windows a fixed-rate phase of length
// d is cut into.
func windows(d time.Duration) int { return max(1, int(d/window)) }

func phaseSeconds(o *options, share float64, floor float64) time.Duration {
	return time.Duration(math.Max(floor, share*float64(o.seconds)) * float64(time.Second))
}

func runServe(o *options, rep *report) error {
	g, err := newLoadgen(o.seed)
	if err != nil {
		return err
	}
	if o.trace {
		return traceServe(o, rep, g)
	}
	targetIters := o.workload().TargetIter
	var setupTimes []float64
	var f *fleetProcs
	var maxRSS int64
	for i := 0; i < setups; i++ {
		if f != nil {
			if err := f.stop(); err != nil {
				return err
			}
			maxRSS = max(maxRSS, f.maxRSSKB)
		}
		var d time.Duration
		if f, d, err = standUp(o, g); err != nil {
			return err
		}
		setupTimes = append(setupTimes, d.Seconds())
	}
	defer f.kill()

	var all []outcome
	all = append(all, g.run(f.lbURL, nil, fixedRPS, time.Second, nil, "warm")...)
	gw0, err := readGateway(f)
	if err != nil {
		return err
	}
	t0 := time.Now()
	// The fixed-rate windows are spread over the run, one before each
	// ladder rung and the rest after the ladder, so that a burst of load
	// from outside the benchmark lands in few of them. Each rung's requests have all been answered before the
	// next window starts, so no backlog carries over.
	fixedWindows := windows(phaseSeconds(o, 0.5, 2))
	var fixed [][]outcome
	// The gateway's training iterations and seconds within the windows.
	var trained int64
	var trainedFor time.Duration
	var werr error
	fixedWindow := func() {
		n0, at0, err0 := gatewayIters(f)
		out := g.run(f.lbURL, nil, fixedRPS, window, nil, "fixed")
		n1, at1, err1 := gatewayIters(f)
		all = append(all, out...)
		fixed = append(fixed, out)
		trained, trainedFor = trained+n1-n0, trainedFor+at1.Sub(at0)
		werr = cmp.Or(werr, err0, err1)
	}
	best := climb(func(rate float64) (float64, bool) {
		if len(fixed) < fixedWindows {
			fixedWindow()
		}
		out := g.run(f.lbURL, nil, rate, phaseSeconds(o, 0.1, 1), nil, "ladder")
		all = append(all, out...)
		st := summarize(out, rungWindows)
		pass := st.failed == 0 && st.p95 <= sloMS && st.tailP50 <= sloMS
		rep.infof("ladder %5.1f req/s: achieved %.1f, p50 %.2f ms, p95 %.2f ms, tail p50 %.2f ms, failed %d, pass %v",
			rate, st.achievedRate, st.p50, st.p95, st.tailP50, st.failed, pass)
		return st.achievedRate, pass
	})
	for len(fixed) < fixedWindows {
		fixedWindow()
	}
	if werr != nil {
		return werr
	}
	// Every window holds the same number of requests, so summarize cuts
	// their concatenation back into them.
	fs := summarize(slices.Concat(fixed...), len(fixed))
	// latency_ms_p95 is the p95 of the quietest window. On a shared
	// virtual machine the host can take the CPU away for milliseconds at
	// a time for minutes on end; that lifts the tail of most windows of a
	// run, the median of the windows' p95s with it, and leaves the lowest
	// window nearly untouched. A slower read path lifts every window.
	p95 := slices.Min(fs.windowP95s)
	rep.infof("fixed %d req/s: %d windows of %d requests, p50 %.2f ms, p95 lowest %.2f / median %.2f ms (windows %s), late p95 %.2f ms, failed %d",
		fixedRPS, len(fixed), len(fixed[0]), fs.p50, p95, fs.p95, fmtList(fs.windowP95s), fs.lateP95, fs.failed)
	// time_to_target_s: how long the gateway takes to train targetIters
	// iterations at its pace over all the fixed-rate windows. Its pace
	// swings by about 15 % from one window to the next, so the windows
	// are pooled rather than their median taken. The model the front
	// door serves trails the training by a capture and a poll, so it
	// advances at the same pace.
	pace := float64(trained) / trainedFor.Seconds()
	ttt := float64(targetIters) / pace
	rep.infof("gateway trained %.1f iterations/s in the fixed windows", pace)

	gw1, err := readGateway(f)
	if err != nil {
		return err
	}
	elapsed := time.Since(t0)
	if err := f.stop(); err != nil {
		return err
	}
	maxRSS = max(maxRSS, f.maxRSSKB)

	st := summarize(all, 1)
	rep.attempted, rep.failed = st.n, st.failed
	rep.check("every predict answered 200 with probabilities summing to 1", st.failed == 0, "%d of %d failed %v", st.failed, st.n, st.errs)
	mono, why := monotonic(all)
	rep.check("no tenant's served version went down", mono, "%s", why)
	rep.check("gateway kept training while serving", gw1.iter > gw0.iter, "iterations %d -> %d", gw0.iter, gw1.iter)
	rep.check("replicas pulled snapshots while serving", gw1.sent > gw0.sent, "snapshot bodies sent %d -> %d", gw0.sent, gw1.sent)
	rep.infof("replica load max share %.3f over %d tenants", replicaMaxShare(all), tenantCount)
	rep.infof("gateway trained %.1f iterations/s while serving; replicas adopted %.1f snapshots/s",
		float64(gw1.iter-gw0.iter)/elapsed.Seconds(), float64(gw1.sent-gw0.sent)/elapsed.Seconds())

	rep.infof("fleet set-ups took %s s", fmtList(setupTimes))
	rep.set("setup_s", median(setupTimes))
	rep.set("throughput_per_s", best)
	rep.set("latency_ms_p50", fs.p50)
	rep.set("latency_ms_p95", p95)
	rep.set("time_to_target_s", ttt)
	if gw1.sent > gw0.sent {
		// Per snapshot version a replica adopted, so the figure does not
		// follow how many versions the gateway trained per second.
		rep.set("wire_bytes_per_iter", float64(gw1.nbytes-gw0.nbytes)/float64(gw1.sent-gw0.sent))
	}
	rep.set("peak_rss_mb", float64(maxRSS)/1024)
	return nil
}

func replicaMaxShare(out []outcome) float64 {
	count := map[string]float64{}
	var total float64
	for _, o := range out {
		if o.ok {
			count[o.replica]++
			total++
		}
	}
	var top float64
	for _, c := range count {
		top = math.Max(top, c)
	}
	return top / total
}

// fleetMetrics is the lb's /metrics document.
type fleetMetrics struct {
	Fleet    metrics.ServeSnapshot            `json:"fleet"`
	Replicas map[string]metrics.ServeSnapshot `json:"replicas"`
}

// traceServe is the traced pass of serve-fleet: the same fleet and
// load, once untraced and once with per-request spans and a /metrics
// scraper running, then direct-to-replica requests and direct calls
// into the snapshot layer.
func traceServe(o *options, rep *report, g *loadgen) error {
	f, _, err := standUp(o, g)
	if err != nil {
		return err
	}
	defer f.kill()
	d := phaseSeconds(o, 0.25, 2)
	g.run(f.lbURL, nil, fixedRPS, time.Second, nil, "warm")

	untraced := g.run(f.lbURL, nil, fixedRPS, d, nil, "fixed")
	us := summarize(untraced, windows(d))

	var before, after fleetMetrics
	if err := getJSON(f.lbURL+"/metrics", &before); err != nil {
		return err
	}
	tr := newTracer()
	ctx, cancel := context.WithCancel(context.Background())
	scraped := make(chan int)
	go func() {
		n := 0
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				scraped <- n
				return
			case <-tick.C:
				for _, u := range f.repURLs {
					var m metrics.CommSnapshot
					tr.do(0, 0, "scrape", func() { getJSON(u+"/metrics", &m) })
				}
				n++
			}
		}
	}()
	traced := g.run(f.lbURL, nil, fixedRPS, d, tr, "fixed-traced")
	cancel()
	<-scraped
	if err := getJSON(f.lbURL+"/metrics", &after); err != nil {
		return err
	}
	ts := summarize(traced, windows(d))

	// Direct-to-replica at the same rate, each tenant to the replica the
	// front door sent it to.
	home := map[string]string{}
	for _, oc := range append(untraced, traced...) {
		if oc.ok {
			home[oc.tenant] = oc.replica
		}
	}
	byID := map[string]string{}
	for _, u := range f.repURLs {
		byID[strings.TrimPrefix(u, "http://")] = u
	}
	route := func(tenant string) string {
		if u, ok := byID[home[tenant]]; ok {
			return u
		}
		return f.repURLs[0]
	}
	direct := g.run("", route, fixedRPS, d, nil, "direct")
	ds := summarize(direct, windows(d))

	snap, err := snapshotLayer(f, tr, o.seed)
	if err != nil {
		return err
	}
	if err := tr.write(filepath.Join(o.work, "serve.spans")); err != nil {
		return err
	}
	if err := f.stop(); err != nil {
		return err
	}

	all := append(append(untraced, traced...), direct...)
	st := summarize(all, 1)
	rep.attempted, rep.failed = st.n, st.failed
	rep.check("every predict answered 200 with probabilities summing to 1", st.failed == 0, "%d of %d failed %v", st.failed, st.n, st.errs)
	mono, why := monotonic(append(untraced, traced...))
	rep.check("no tenant's served version went down", mono, "%s", why)

	rep.set("trace.predict_ms_p50.untraced", us.p50)
	rep.set("trace.predict_ms_p50.traced", ts.p50)
	rep.infof("tracing overhead: traced/untraced predict p50 = %.3f", ts.p50/us.p50)
	rep.set("loadgen.late_ms_p95", us.lateP95)
	rep.set("fleet.lb_overhead_ms_p50", us.p50-ds.p50)
	rep.set("fleet.replica_load_max_share", replicaMaxShare(untraced))

	var pulls, pullBytes int64
	for id, a := range after.Replicas {
		b := before.Replicas[id]
		pulls += a.SnapshotPulls - b.SnapshotPulls
		pullBytes += a.SnapshotPullBytes - b.SnapshotPullBytes
	}
	rep.set("fleet.pulls", float64(pulls))
	rep.set("fleet.pull_bytes", float64(pullBytes))
	a, b := after.Fleet, before.Fleet
	if db := a.Batches - b.Batches; db > 0 {
		rep.set("serve.batch_rows_mean", (a.MeanBatch*float64(a.Batches)-b.MeanBatch*float64(b.Batches))/float64(db))
	}
	rep.set("serve.replica_ms_p50", a.Latency.P50MS)
	rep.set("serve.replica_ms_p95", a.Latency.P95MS)
	if dr := a.Requests - b.Requests; dr > 0 {
		rep.set("serve.shed_share", float64(a.Shed+a.StaleShed-b.Shed-b.StaleShed)/float64(dr))
		rep.set("serve.rate_limited_share", float64(a.RateLimited-b.RateLimited)/float64(dr))
	}
	for k, v := range snap {
		rep.set(k, v)
	}
	return nil
}

// snapshotLayer times direct calls into the snapshot layer on the
// gateway's latest capture: Store.Capture, Model.Encode and
// Model.PredictInto on a request-sized batch.
func snapshotLayer(f *fleetProcs, tr *tracer, seed int64) (map[string]float64, error) {
	resp, err := http.Get(f.gwURL + fleet.SnapshotPath)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("pull snapshot: status %d, %v", resp.StatusCode, err)
	}
	m, err := snapshot.Decode(raw)
	if err != nil {
		return nil, err
	}
	build := cliflags.ReferenceModel()
	net := build(rand.New(rand.NewSource(seed)))
	params := net.Params()
	for i, p := range params {
		copy(p.Data, m.Params()[i])
	}
	st := snapshot.NewStore(build, seed)
	defer st.Close()
	const reps = 50
	var capture, encode, predict []float64
	var captured *snapshot.Model
	for i := 0; i < reps; i++ {
		start := time.Now()
		captured = st.Capture(m.Iter(), m.Epoch(), params)
		end := time.Now()
		tr.add(0, 0, "snapshot.capture", start, end)
		capture = append(capture, ms(end.Sub(start)))
	}
	var encoded []byte
	for i := 0; i < reps; i++ {
		start := time.Now()
		encoded = captured.Encode()
		end := time.Now()
		tr.add(0, 0, "snapshot.encode", start, end)
		encode = append(encode, ms(end.Sub(start)))
	}
	_, testSet := cliflags.ReferenceData(seed)
	x := tensor.NewMatrix(bodyRows, testSet.X.Cols)
	copy(x.Data, testSet.X.Data[:len(x.Data)])
	dst := tensor.NewMatrix(0, 0)
	for i := 0; i < 4*reps; i++ {
		start := time.Now()
		if err := captured.PredictInto(dst, x); err != nil {
			return nil, err
		}
		end := time.Now()
		tr.add(0, 0, "snapshot.predict", start, end)
		if i >= reps { // the first calls build the predictor pool
			predict = append(predict, float64(end.Sub(start))/1e3/bodyRows)
		}
	}
	if !bytes.Equal(encoded, raw) {
		return nil, fmt.Errorf("re-encoded capture differs from the gateway's snapshot bytes")
	}
	return map[string]float64{
		"snapshot.capture_ms":         median(capture),
		"snapshot.encode_ms":          median(encode),
		"snapshot.bytes":              float64(len(encoded)),
		"snapshot.predict_us_per_row": median(predict),
	}, nil
}
