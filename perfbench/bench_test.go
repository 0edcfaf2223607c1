package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
)

// TestBenchmarkJSONMatchesWorkloads pins BENCHMARK.json to
// workloads.json: same workloads, and every metric with the same unit.
func TestBenchmarkJSONMatchesWorkloads(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(workloadsJSON, &s); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not run by perfbench", w.Name)
		}
	}
	if len(names) != len(s.Workloads) {
		t.Errorf("BENCHMARK.json has workloads %v, workloads.json has %d", names, len(s.Workloads))
	}
	same := func(kind string, a, b []metricDef) {
		if len(a) != len(b) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, workloads.json %d", kind, len(a), len(b))
			return
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, workloads.json %+v", kind, i, a[i], b[i])
			}
		}
	}
	same("end_to_end", bench.EndToEnd, s.EndToEnd)
	same("per_layer", bench.PerLayer, s.PerLayer)
}

// TestMonotonicCatchesRegression checks the served-version check on
// hand-made outcomes: overlapping requests may complete out of order,
// but a request sent after another finished must not see an older
// version.
func TestMonotonicCatchesRegression(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, int64(ms)*int64(time.Millisecond)) }
	req := func(sent, done, iter int) outcome {
		return outcome{tenant: "a", sent: at(sent), done: at(done), ok: true, ver: fleet.Version{Iter: iter}}
	}
	if ok, why := monotonic([]outcome{req(0, 10, 20), req(5, 8, 10), req(11, 12, 20)}); !ok {
		t.Errorf("overlapping requests flagged: %s", why)
	}
	if ok, _ := monotonic([]outcome{req(0, 10, 20), req(11, 12, 10)}); ok {
		t.Error("a version going down was not flagged")
	}
}

// TestSmoke runs every workload briefly through run.sh, untraced and
// traced, and checks that the result line carries every named metric
// with its unit and that the correctness checks ran and passed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the system and runs every workload")
	}
	var s spec
	if err := json.Unmarshal(workloadsJSON, &s); err != nil {
		t.Fatal(err)
	}
	for _, w := range s.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				cmd := exec.Command("bash", "perfbench/run.sh", "--workload", w.Name, "--seed", "7",
					"--seconds", "2", "--trace", trace)
				cmd.Dir = ".."
				var stderr bytes.Buffer
				cmd.Stderr = &stderr
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("run: %v\n%s\n%s", err, out, stderr.Bytes())
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var res struct {
					Correct   *bool `json:"correct"`
					Attempted *int  `json:"attempted"`
					Failed    *int  `json:"failed"`
					Metrics   map[string]metric
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out)
				}
				if res.Correct == nil || res.Attempted == nil || res.Failed == nil {
					t.Fatalf("result lacks correct/attempted/failed: %s", lines[len(lines)-1])
				}
				if !*res.Correct || *res.Failed != 0 || *res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", *res.Correct, *res.Attempted, *res.Failed, out)
				}
				if !strings.Contains(string(out), "\ncheck ") {
					t.Errorf("no correctness check ran:\n%s", out)
				}
				defs := s.EndToEnd
				if trace == "1" {
					defs = s.PerLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
					}
					if trace == "0" && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s is %v; every workload must measure it", d.Name, m.Value)
					}
				}
			})
		}
	}
}

// TestClimbBisectsTheKnee checks the rate ladder: it climbs the coarse
// rungs until one fails, then bisects towards the knee and reports the
// achieved rate of the highest rate that passed.
func TestClimbBisectsTheKnee(t *testing.T) {
	for _, c := range []struct{ knee, want float64 }{
		{190, 187.5},  // 150 passes, 225 fails: 187.5 ok, 206.25 and 196.875 fail
		{1000, 500},   // every rung passes
		{120, 118.75}, // 100 passes, 150 fails: 125 fails, 112.5 and 118.75 pass
	} {
		var tried []float64
		got := climb(func(rate float64) (float64, bool) {
			tried = append(tried, rate)
			return rate, rate <= c.knee
		})
		if got != c.want {
			t.Errorf("knee %v: climb = %v after rungs %v, want %v", c.knee, got, tried, c.want)
		}
	}
}
