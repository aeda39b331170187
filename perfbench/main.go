// Command perfbench is the repository's end-to-end benchmark: it generates a
// workload's raw JSON collection from a seed, runs the workload's queries
// through the public vxq.Engine API in a closed loop for a fixed time, checks
// every answer against an encoding/json oracle and the run's invariants, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer metrics)
// as the last line of its standard output.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload adhoc-cold --seed 1 --seconds 10 --trace 0
//
// BENCHMARK.json lists the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "seed of the generated inputs and the query order")
	seconds := flag.Float64("seconds", 10, "length of the timed loop in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", "perfbench", fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := config{
		seed:     *seed,
		seconds:  *seconds,
		traced:   *trace == 1,
		scale:    1,
		work:     work,
		traceOut: filepath.Join(filepath.Dir(work), fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed)),
	}
	out, err := runWorkload(w, cfg, nil)
	os.RemoveAll(work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := out.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !out.Result.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: run failed:", out.Info.Failure)
		os.Exit(1)
	}
}

// host is the block every output carries, so numbers stay comparable
// across machines and commits.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func hostInfo() host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified && h.Commit != "unknown" {
			h.Commit += "+dirty"
		}
	}
	return h
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output, in the shape BENCHMARK.json's
// runner reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// info is the line before the result: the host block, the inputs, and what
// the result line's numbers rest on.
type info struct {
	Host     host   `json:"host"`
	Workload string `json:"workload"`
	Why      string `json:"why"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	Data     struct {
		Files        int   `json:"files"`
		Bytes        int64 `json:"bytes"`
		Measurements int   `json:"measurements"`
	} `json:"data"`
	Clients int `json:"clients"`
	// Queries completed in the timed loop; the latency metrics rest on them.
	Samples int `json:"samples"`
	// TailPercentile is the percentile latency_tail_s reports: the highest
	// one with TailBeyond samples above it.
	TailPercentile float64 `json:"latency_tail_percentile"`
	TailBeyond     int     `json:"latency_tail_samples_beyond"`
	// QueryP50 is the median latency of each query, in seconds.
	QueryP50  map[string]float64 `json:"query_p50_s,omitempty"`
	SetupReps int                `json:"setup_repetitions"`
	// ErrorRate is failed / attempted: errors, wrong answers and invariant
	// violations.
	ErrorRate float64  `json:"error_rate"`
	Errors    []string `json:"errors,omitempty"`
	Failure   string   `json:"failure,omitempty"`
	TraceFile string   `json:"trace_file,omitempty"`
}

type output struct {
	Info   info
	Result result
}

func (o *output) print(w io.Writer) error {
	line, err := json.Marshal(o.Info)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s\n", line); err != nil {
		return err
	}
	line, err = json.Marshal(o.Result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
