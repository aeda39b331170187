package vxq

import (
	"encoding/json"
	"testing"

	"vxq/internal/bench"
)

// benchCacheEngine adapts Engine to bench.CacheEngine for the smoke test
// (internal/bench cannot import this package: this package's benchmarks
// import it).
type benchCacheEngine struct{ eng *Engine }

func (e benchCacheEngine) Query(q string) (bench.CacheRunStats, error) {
	res, err := e.eng.Query(q)
	if err != nil {
		return bench.CacheRunStats{}, err
	}
	return bench.CacheRunStats{
		Items:          len(res.Items),
		PlanHit:        res.Cache.PlanHit,
		ResultHit:      res.Cache.ResultHit,
		FilesSkipped:   res.Stats.FilesSkipped,
		MorselsSkipped: res.Stats.MorselsSkipped,
	}, nil
}

func (e benchCacheEngine) BuildIndex(collection, pathExpr string) error {
	return e.eng.BuildIndex(collection, pathExpr)
}

func (e benchCacheEngine) SidecarStats() bench.CacheSidecarStats {
	cs := e.eng.CacheStats()
	return bench.CacheSidecarStats{Loads: cs.SidecarLoads, Misses: cs.SidecarMisses, Writes: cs.SidecarWrites}
}

// TestCacheBenchSmoke runs the BENCH_cache.json benchmark at reduced scale
// and applies its acceptance gates: warm repeats >= 3x faster than cold with
// every repeat hitting the plan and result caches, and file- plus
// morsel-level skips from sidecars on the selective case. It then validates
// the report's JSON schema, which CI relies on when it publishes the
// artifact.
func TestCacheBenchSmoke(t *testing.T) {
	factory := func(dir string, resultCache bool) (bench.CacheEngine, error) {
		opts := Options{
			Partitions:     2,
			MorselSize:     64 << 10,
			IndexZoneGrain: 16 << 10,
		}
		if resultCache {
			opts.ResultCacheBytes = 16 << 20
		}
		eng := New(opts)
		eng.Mount("/sensors", dir)
		return benchCacheEngine{eng}, nil
	}
	rep, err := bench.RunCacheBench(bench.CacheBenchConfig{
		Dir:                  t.TempDir(),
		Files:                4,
		RecordsPerFile:       96,
		MeasurementsPerArray: 20,
		Repeats:              8,
		Concurrency:          4,
		ScanRepeats:          4,
	}, factory)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}
	for _, q := range rep.Queries {
		t.Logf("%s: cold %.4fs, warm scan %.4fs (%.1fx), hot repeat %.6fs (%.0fx)",
			q.Name, q.ColdSeconds, q.WarmScanSeconds, q.WarmScanSpeedup, q.WarmSeconds, q.Speedup)
	}
	t.Logf("selective: %d items, %d files skipped, %d morsels skipped",
		rep.Selective.Items, rep.Selective.FilesSkipped, rep.Selective.MorselsSkipped)

	// Schema: the keys CI's published artifact promises.
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"dataset", "repeats", "concurrency", "queries", "selective"} {
		if _, ok := m[k]; !ok {
			t.Errorf("report is missing top-level key %q", k)
		}
	}
	queries, ok := m["queries"].([]any)
	if !ok || len(queries) != 3 {
		t.Fatalf("queries = %v, want 3 entries", m["queries"])
	}
	for i, qv := range queries {
		q, ok := qv.(map[string]any)
		if !ok {
			t.Fatalf("queries[%d] is not an object", i)
		}
		for _, k := range []string{
			"name", "query", "items", "cold_seconds",
			"warm_scan_seconds", "warm_scan_repeats", "warm_scan_plan_hits", "warm_scan_speedup",
			"warm_seconds", "warm_repeats", "warm_result_hits", "speedup",
		} {
			if _, ok := q[k]; !ok {
				t.Errorf("queries[%d] is missing key %q", i, k)
			}
		}
	}
	sel, ok := m["selective"].(map[string]any)
	if !ok {
		t.Fatalf("selective is not an object")
	}
	for _, k := range []string{
		"query", "items", "seconds",
		"files_skipped", "morsels_skipped", "sidecar_loads",
	} {
		if _, ok := sel[k]; !ok {
			t.Errorf("selective is missing key %q", k)
		}
	}
}
