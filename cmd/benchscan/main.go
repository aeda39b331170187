// Command benchscan measures the morsel-driven scan scheduler on the skew
// acceptance workload (one oversized file next to many small ones, versus
// the same bytes spread evenly) and writes the results as JSON — the
// BENCH_scan.json artifact produced by `make bench`. With -parse it instead
// measures the on-demand parse kernel (structural raw-skip vs the
// token-level reference) on the project-1-field and skip-whole-record
// shapes, writing BENCH_parse.json. With -query it measures the binary
// tuple kernel (encoded-key group-by, hash shuffle, hash join vs the eager
// reference), writing BENCH_query.json. With -cache it measures cold versus
// warm latency of repeated queries over an on-disk collection — structural
// index sidecars, the compiled-plan cache and the result cache — writing
// BENCH_cache.json (and failing if any cache-layer acceptance gate fails).
//
// Usage:
//
//	benchscan [-full] [-partitions 8] [-runs 3] [-out BENCH_scan.json]
//	benchscan -parse [-parsedur 1s] [-workers 1,2,4,8] [-out BENCH_parse.json]
//	benchscan -query [-querytuples 200000] [-querydur 1s] [-out BENCH_query.json]
//	benchscan -cache [-cacherepeats 32] [-cacheconc 4] [-out BENCH_cache.json]
//	benchscan -spill [-spillfactor 4] [-out BENCH_spill.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"vxq/internal/bench"
	"vxq/internal/hyracks"
	"vxq/internal/runtime"
)

type runReport struct {
	Workload   string      `json:"workload"`
	Seconds    float64     `json:"seconds"`
	MBPerSec   float64     `json:"mb_per_sec"`
	BytesRead  int64       `json:"bytes_read"`
	Tuples     int64       `json:"tuples"`
	Morsels    map[int]int `json:"morsels_by_partition"`
	MaxTaskSec float64     `json:"max_scan_task_seconds"`
}

type report struct {
	Scale      bench.ScanScale `json:"scale"`
	TotalBytes int64           `json:"total_bytes"`
	Partitions int             `json:"partitions"`
	Runs       int             `json:"runs"`
	Skewed     runReport       `json:"skewed"`
	Uniform    runReport       `json:"uniform"`
	SkewRatio  float64         `json:"skew_ratio"`
}

func main() {
	full := flag.Bool("full", false, "acceptance scale (1x64MiB + 31x2MiB) instead of the quick scale")
	partitions := flag.Int("partitions", 8, "scan partitions")
	runs := flag.Int("runs", 3, "timed runs per workload (best run is reported)")
	out := flag.String("out", "", "output file (default BENCH_scan.json, or BENCH_parse.json with -parse)")
	parse := flag.Bool("parse", false, "measure the parse kernel instead of the scan scheduler")
	parseDur := flag.Duration("parsedur", time.Second, "minimum timed duration per parse-kernel configuration")
	parseWorkers := flag.String("workers", "1,2,4,8", "comma-separated worker counts of the parallel-builder rows (with -parse)")
	query := flag.Bool("query", false, "measure the binary tuple kernel (group-by/shuffle/join) instead of the scan scheduler")
	queryDur := flag.Duration("querydur", time.Second, "minimum timed duration per query-kernel configuration")
	queryTuples := flag.Int("querytuples", 200_000, "input tuples per query-kernel shape")
	cache := flag.Bool("cache", false, "measure cold vs warm repeated queries (sidecars + plan/result caches) instead of the scan scheduler")
	cacheRepeats := flag.Int("cacherepeats", 32, "timed warm executions per query (with -cache)")
	cacheConc := flag.Int("cacheconc", 4, "goroutines sharing the warm engine (with -cache)")
	spillFlag := flag.Bool("spill", false, "measure the out-of-core operators (grace-hash group-by/join, external merge sort) against their in-memory runs")
	spillFactor := flag.Float64("spillfactor", 4, "dataset scale factor of the spill benchmark (with -spill)")
	flag.Parse()

	if *spillFlag {
		if *out == "" {
			*out = "BENCH_spill.json"
		}
		if err := runSpillBench(*out, *spillFactor); err != nil {
			fatal(err)
		}
		return
	}

	if *cache {
		if *out == "" {
			*out = "BENCH_cache.json"
		}
		if err := runCacheBench(*out, *cacheRepeats, *cacheConc); err != nil {
			fatal(err)
		}
		return
	}

	if *parse {
		if *out == "" {
			*out = "BENCH_parse.json"
		}
		workers, err := parseWorkerList(*parseWorkers)
		if err != nil {
			fatal(err)
		}
		if err := runParseBench(*out, *parseDur, workers); err != nil {
			fatal(err)
		}
		return
	}
	if *query {
		if *out == "" {
			*out = "BENCH_query.json"
		}
		if err := runQueryBench(*out, *queryTuples, *queryDur); err != nil {
			fatal(err)
		}
		return
	}
	if *out == "" {
		*out = "BENCH_scan.json"
	}

	scale := bench.QuickScanScale()
	if *full {
		scale = bench.FullScanScale()
	}
	skSrc, total := bench.SkewedScanSource(scale)
	unSrc, _ := bench.UniformScanSource(scale)

	sk, err := measure("skewed", skSrc, *partitions, scale.MorselSize, *runs)
	if err != nil {
		fatal(err)
	}
	un, err := measure("uniform", unSrc, *partitions, scale.MorselSize, *runs)
	if err != nil {
		fatal(err)
	}
	rep := report{
		Scale:      scale,
		TotalBytes: total,
		Partitions: *partitions,
		Runs:       *runs,
		Skewed:     sk,
		Uniform:    un,
		SkewRatio:  sk.Seconds / un.Seconds,
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("skewed %.3fs, uniform %.3fs, ratio %.2fx -> %s\n",
		sk.Seconds, un.Seconds, rep.SkewRatio, *out)
}

// measure times the scan-count job, keeping the best of n runs (the usual
// benchmarking convention: the minimum is the least-noise estimate).
func measure(name string, src runtime.Source, partitions int, morselSize int64, runs int) (runReport, error) {
	best := runReport{Workload: name}
	for i := 0; i < runs; i++ {
		res, elapsed, err := bench.RunScanCount(src, partitions, morselSize)
		if err != nil {
			return runReport{}, fmt.Errorf("%s run %d: %w", name, i, err)
		}
		if best.Seconds == 0 || elapsed.Seconds() < best.Seconds {
			best.Seconds = elapsed.Seconds()
			best.BytesRead = res.Stats.BytesRead
			best.Tuples = res.Stats.TuplesProduced
			best.Morsels = bench.MorselsByPartition(res)
			best.MaxTaskSec = maxScanTask(res)
			best.MBPerSec = float64(res.Stats.BytesRead) / (1 << 20) / elapsed.Seconds()
		}
	}
	return best, nil
}

func maxScanTask(res *hyracks.Result) float64 {
	var max time.Duration
	for _, tt := range res.Tasks {
		if tt.Fragment == 0 && tt.Elapsed > max {
			max = tt.Elapsed
		}
	}
	return max.Seconds()
}

// parseShapeReport holds the two skip measurements of one shape — the SWAR
// structural-index kernel and the token-level reference — with the resulting
// speedup (reference seconds over index seconds).
type parseShapeReport struct {
	Index     bench.ParseBenchResult `json:"index"`
	Reference bench.ParseBenchResult `json:"reference"`
	Speedup   float64                `json:"speedup"` // reference / index
}

type parseReport struct {
	RecordBytes   int64                       `json:"record_bytes"`
	Records       int64                       `json:"records"`
	TotalBytes    int64                       `json:"total_bytes"`
	BitmapBuilder bench.BitmapBuilderResult   `json:"bitmap_builder"`
	Shapes        map[string]parseShapeReport `json:"shapes"`
	// ParallelBuilder holds the speculative parallel builder's scaling rows:
	// the sequential BoundaryScanner baseline (workers == 0, speedup == 1)
	// followed by one row per requested worker count, over a 64 MiB stream.
	ParallelBuilder []bench.ParallelBuilderResult `json:"parallel_builder"`
}

// parseWorkerList parses the -workers flag ("1,2,4,8") into worker counts.
func parseWorkerList(s string) ([]int, error) {
	var workers []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		w, err := strconv.Atoi(f)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad -workers entry %q", f)
		}
		workers = append(workers, w)
	}
	if len(workers) == 0 {
		return nil, fmt.Errorf("-workers lists no worker counts")
	}
	return workers, nil
}

// runParseBench measures both skip paths on both acceptance shapes,
// plus the standalone phase-1 bitmap builder and the speculative parallel
// builder's scaling rows, and writes the BENCH_parse.json artifact.
func runParseBench(out string, minDur time.Duration, workers []int) error {
	data, records := bench.ParseBenchStream(4 << 20)
	rep := parseReport{
		RecordBytes: int64(len(data)) / int64(records),
		Records:     int64(records),
		TotalBytes:  int64(len(data)),
		Shapes:      map[string]parseShapeReport{},
	}
	for _, shape := range []string{"project1", "skiprecord"} {
		idx, err := bench.MeasureParseBench(shape, "index", data, records, minDur)
		if err != nil {
			return err
		}
		ref, err := bench.MeasureParseBench(shape, "reference", data, records, minDur)
		if err != nil {
			return err
		}
		rep.Shapes[shape] = parseShapeReport{
			Index:     idx,
			Reference: ref,
			Speedup:   ref.Seconds / idx.Seconds,
		}
		fmt.Printf("%s: index %.0f MB/s (%.4f allocs/record), reference %.0f MB/s, speedup %.2fx\n",
			shape, idx.MBPerSec, idx.AllocsPerRecord, ref.MBPerSec, rep.Shapes[shape].Speedup)
	}
	rep.BitmapBuilder = bench.MeasureBitmapBuilder(data, minDur)
	fmt.Printf("bitmap builder: %.2f GB/s, %.4f allocs/chunk\n",
		rep.BitmapBuilder.GBPerSec, rep.BitmapBuilder.AllocsPerChunk)
	bigData, _ := bench.ParseBenchStream(64 << 20)
	pb, err := bench.MeasureParallelBuilder(bigData, workers, minDur)
	if err != nil {
		return err
	}
	rep.ParallelBuilder = pb
	for _, r := range pb {
		if r.Workers == 0 {
			fmt.Printf("parallel builder baseline (sequential): %.0f MB/s over %d MiB\n",
				r.MBPerSec, r.Bytes>>20)
			continue
		}
		fmt.Printf("parallel builder %d workers: %.0f MB/s (%.2fx)\n", r.Workers, r.MBPerSec, r.Speedup)
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("-> %s\n", out)
	return nil
}

// queryShapeReport pairs the encoded and eager measurements of one shape
// with the resulting speedup, plus the profiled kernel run and its relative
// overhead (profiled/encoded seconds).
type queryShapeReport struct {
	Encoded         bench.QueryBenchResult `json:"encoded"`
	Eager           bench.QueryBenchResult `json:"eager"`
	Profiled        bench.QueryBenchResult `json:"profiled"`
	Speedup         float64                `json:"speedup"`
	ProfileOverhead float64                `json:"profile_overhead"`
}

type queryReport struct {
	Tuples int                         `json:"tuples"`
	Keys   int                         `json:"keys"`
	Shapes map[string]queryShapeReport `json:"shapes"`
}

// runQueryBench measures the binary tuple kernel against the eager reference
// on the group-by, hash-shuffle and hash-join shapes and writes the
// BENCH_query.json artifact.
func runQueryBench(out string, tuples int, minDur time.Duration) error {
	rep := queryReport{Tuples: tuples, Keys: bench.QueryBenchKeys, Shapes: map[string]queryShapeReport{}}
	for _, shape := range []string{"groupby", "shuffle", "join"} {
		enc, err := bench.MeasureQueryBench(shape, "encoded", tuples, minDur)
		if err != nil {
			return err
		}
		eag, err := bench.MeasureQueryBench(shape, "eager", tuples, minDur)
		if err != nil {
			return err
		}
		prof, err := bench.MeasureQueryBench(shape, "profiled", tuples, minDur)
		if err != nil {
			return err
		}
		rep.Shapes[shape] = queryShapeReport{
			Encoded:         enc,
			Eager:           eag,
			Profiled:        prof,
			Speedup:         eag.Seconds / enc.Seconds,
			ProfileOverhead: prof.Seconds / enc.Seconds,
		}
		fmt.Printf("%s: encoded %.2f Mtuples/s (%.4f allocs/tuple), eager %.2f Mtuples/s, speedup %.2fx, profiled overhead %.3fx\n",
			shape, enc.MTuplesPerSec, enc.AllocsPerTuple, eag.MTuplesPerSec,
			rep.Shapes[shape].Speedup, rep.Shapes[shape].ProfileOverhead)
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("-> %s\n", out)
	return nil
}

// runSpillBench runs the out-of-core acceptance benchmark (the harness
// enforces its own gates: byte-identical results, real spilling, accountant
// zero, bounded high-water, empty spill directory) and writes BENCH_spill.json.
func runSpillBench(out string, factor float64) error {
	results, err := bench.RunSpillBench(bench.Settings{Factor: factor})
	if err != nil {
		return err
	}
	for _, r := range results {
		fmt.Printf("%s: input %.1fx over %d KiB budget, spilled %d KiB in %d partitions / %d waves, peak %d -> %d KiB, slowdown %.2fx\n",
			r.Query, r.OverBudget, r.BudgetBytes>>10, r.Spilled.SpilledBytes>>10,
			r.Spilled.SpillPartitions, r.Spilled.SpillWaves,
			r.InMemory.PeakMemory>>10, r.Spilled.PeakMemory>>10, r.Slowdown)
	}
	buf, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("-> %s\n", out)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchscan:", err)
	os.Exit(1)
}
