package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

type benchSpec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// smokeRuns shrinks each collection so a run completes enough queries for
// the tail, also under the race detector, while every workload's
// self-check still holds: under about 2 MiB some join-spill queries fit
// the operator budget and no longer spill, so that workload runs longer.
var smokeRuns = map[string]struct{ scale, seconds float64 }{
	"adhoc-cold": {0.03, 2}, "dashboard-warm": {0.1, 2}, "join-spill": {0.25, 8}}

func smokeConfig(t *testing.T, w *workload, traced bool) config {
	s := smokeRuns[w.name]
	return config{seed: 7, seconds: s.seconds, traced: traced, scale: s.scale,
		work: filepath.Join(t.TempDir(), "work")}
}

// TestWorkloadsMatchSpec checks that BENCHMARK.json and the workload
// definitions name the same workloads, for the same written reason.
func TestWorkloadsMatchSpec(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, err := findWorkload(sw.Name)
		if err != nil {
			t.Fatal(err)
		}
		if w.why == "" || w.why != sw.Why {
			t.Errorf("%s: why in code %q, in BENCHMARK.json %q", w.name, w.why, sw.Why)
		}
	}
}

// TestSmoke runs every workload once untraced and once traced at a tiny
// scale and checks that each prints exactly the metrics BENCHMARK.json
// names, with their units, and passes its answers and self-checks.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			out, err := runWorkload(w, smokeConfig(t, w, traced), nil)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !out.Result.Correct || out.Result.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d: %s %v", w.name, traced,
					out.Result.Correct, out.Result.Failed, out.Info.Failure, out.Info.Errors)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(out.Result.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.name, traced, len(out.Result.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.Result.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), want unit %s", w.name, traced, m.Name, got, ok, m.Unit)
				}
			}
			if out.Info.Host.NumCPU == 0 || out.Info.Data.Files == 0 || out.Info.Data.Bytes == 0 {
				t.Errorf("%s: host or data block is empty: %+v", w.name, out.Info)
			}
		}
	}
}

// TestCorruptedAnswerFails proves a wrong answer counts as a failure.
func TestCorruptedAnswerFails(t *testing.T) {
	w, err := findWorkload("adhoc-cold")
	if err != nil {
		t.Fatal(err)
	}
	out, err := runWorkload(w, smokeConfig(t, w, false), func(want []answer) {
		want[0].items = append([]string(nil), want[0].items...)
		want[0].items[0] = `"corrupted"`
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Correct || out.Result.Failed == 0 {
		t.Fatalf("corrupted expectation went unnoticed: correct=%v failed=%d", out.Result.Correct, out.Result.Failed)
	}
}
