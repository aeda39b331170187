// Cache benchmark: cold versus warm latency of repeated queries over an
// on-disk collection, exercising all three persistence layers — zone-map
// index sidecars, the compiled-plan cache, and the result cache. The driver
// is parameterized over an injected engine: the root vxq package's own
// benchmarks import this package, so this package cannot import vxq.
// cmd/benchscan supplies the vxq-backed engine and writes BENCH_cache.json.
package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"vxq/internal/gen"
	"vxq/internal/runtime"
)

// CacheRunStats is what one query execution reports back to the cache
// benchmark: item count plus the cache and pruning counters the gates check.
type CacheRunStats struct {
	Items          int
	PlanHit        bool
	ResultHit      bool
	FilesSkipped   int64
	MorselsSkipped int64
}

// CacheSidecarStats counts an engine's sidecar traffic.
type CacheSidecarStats struct {
	Loads, Misses, Writes int64
}

// CacheEngine abstracts the caching engine under test.
type CacheEngine interface {
	Query(q string) (CacheRunStats, error)
	BuildIndex(collection, pathExpr string) error
	SidecarStats() CacheSidecarStats
}

// CacheEngineFactory opens a fresh engine over the dataset directory,
// mounted as the "/sensors" collection. Each call must return an engine
// with empty in-memory caches — a fresh process in miniature, so the only
// warmth that can carry over between engines is what sidecars persist.
// resultCache toggles the engine's result cache: the scan-repeat phase runs
// without it so every repeat demonstrates a plan-cache hit plus a real scan,
// not a memoized answer.
type CacheEngineFactory func(dir string, resultCache bool) (CacheEngine, error)

// CacheBenchConfig sizes the cache benchmark.
type CacheBenchConfig struct {
	// Dir is the dataset directory ("" = a temp dir, removed on return).
	// Sidecars are written next to the data files inside it.
	Dir string
	// Files / RecordsPerFile / MeasurementsPerArray size the generated
	// collection. Files must be >= 2 so file-level pruning has something
	// to skip; each file must exceed the engine's morsel size so scans
	// split into morsels that per-zone stats can prune.
	Files, RecordsPerFile, MeasurementsPerArray int
	// Repeats is the number of timed hot executions per query (result
	// cache on), spread over Concurrency goroutines sharing one engine.
	Repeats, Concurrency int
	// ScanRepeats is the number of timed warm-scan executions per query
	// (result cache off: plan-cache hit + full scan each time).
	ScanRepeats int
}

func (c CacheBenchConfig) withDefaults() CacheBenchConfig {
	if c.Files <= 0 {
		c.Files = 4
	}
	if c.RecordsPerFile <= 0 {
		c.RecordsPerFile = 192
	}
	if c.MeasurementsPerArray <= 0 {
		c.MeasurementsPerArray = 30
	}
	if c.Repeats <= 0 {
		c.Repeats = 32
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 4
	}
	if c.ScanRepeats <= 0 {
		c.ScanRepeats = 8
	}
	return c
}

// genConfig is the dataset shape: newline-split records (so byte-range
// morsels exist), one year per file (so a year-bounded predicate skips
// whole files), dates clustered within each file (so a month-bounded
// predicate skips morsels inside the surviving file).
func (c CacheBenchConfig) genConfig() gen.Config {
	return gen.Config{
		Seed:                 1,
		Files:                c.Files,
		RecordsPerFile:       c.RecordsPerFile,
		MeasurementsPerArray: c.MeasurementsPerArray,
		Stations:             50,
		YearMin:              2000,
		YearMax:              2000 + c.Files - 1,
		PartitionByYear:      true,
		SplitRecords:         true,
		ClusterDates:         true,
	}
}

// CacheQueryReport is the cold/warm comparison of one query.
type CacheQueryReport struct {
	Name  string `json:"name"`
	Query string `json:"query"`
	Items int    `json:"items"`

	// Cold: fresh engine, no sidecars on disk, nothing cached.
	ColdSeconds float64 `json:"cold_seconds"`

	// Warm scans: a fresh engine (empty caches, result cache off). After
	// one priming execution, ScanRepeats timed executions — each a
	// plan-cache hit plus a full scan. WarmScanSeconds is the per-execution
	// average.
	WarmScanSeconds  float64 `json:"warm_scan_seconds"`
	WarmScanRepeats  int     `json:"warm_scan_repeats"`
	WarmScanPlanHits int64   `json:"warm_scan_plan_hits"`
	WarmScanSpeedup  float64 `json:"warm_scan_speedup"`

	// Hot repeats: another fresh engine with the result cache on. After
	// one priming execution, Repeats timed executions under Concurrency
	// goroutines — each a result-cache hit. WarmSeconds is the
	// per-execution average.
	WarmSeconds    float64 `json:"warm_seconds"`
	WarmRepeats    int     `json:"warm_repeats"`
	WarmResultHits int64   `json:"warm_result_hits"`

	// Speedup is ColdSeconds / WarmSeconds.
	Speedup float64 `json:"speedup"`
}

// CacheSelectiveReport is the morsel-skip demonstration: a date-bounded
// selection over a date-indexed collection, run on a fresh engine whose
// only warmth is the sidecars a previous engine's BuildIndex left behind.
type CacheSelectiveReport struct {
	Query          string  `json:"query"`
	Items          int     `json:"items"`
	Seconds        float64 `json:"seconds"`
	FilesSkipped   int64   `json:"files_skipped"`
	MorselsSkipped int64   `json:"morsels_skipped"`
	SidecarLoads   int64   `json:"sidecar_loads"`
}

// CacheDatasetInfo describes the generated collection.
type CacheDatasetInfo struct {
	Files          int   `json:"files"`
	RecordsPerFile int   `json:"records_per_file"`
	Measurements   int   `json:"measurements"`
	Bytes          int64 `json:"bytes"`
}

// CacheBenchReport is the BENCH_cache.json schema.
type CacheBenchReport struct {
	Dataset     CacheDatasetInfo     `json:"dataset"`
	Repeats     int                  `json:"repeats"`
	Concurrency int                  `json:"concurrency"`
	Queries     []CacheQueryReport   `json:"queries"`
	Selective   CacheSelectiveReport `json:"selective"`
}

// Check enforces the acceptance gates on a finished report. It is shared by
// cmd/benchscan (so a regressing artifact fails the build) and the smoke
// test.
func (r *CacheBenchReport) Check() error {
	if len(r.Queries) == 0 {
		return fmt.Errorf("cachebench: no query results")
	}
	for _, q := range r.Queries {
		switch {
		case q.WarmScanPlanHits != int64(q.WarmScanRepeats):
			return fmt.Errorf("cachebench %s: %d/%d warm scans hit the plan cache",
				q.Name, q.WarmScanPlanHits, q.WarmScanRepeats)
		case q.WarmResultHits != int64(q.WarmRepeats):
			return fmt.Errorf("cachebench %s: %d/%d hot repeats hit the result cache",
				q.Name, q.WarmResultHits, q.WarmRepeats)
		case q.Speedup < 3:
			return fmt.Errorf("cachebench %s: warm repeats only %.2fx faster than cold, want >= 3x",
				q.Name, q.Speedup)
		}
	}
	s := r.Selective
	switch {
	case s.Items == 0:
		return fmt.Errorf("cachebench selective: query returned nothing; bad setup")
	case s.FilesSkipped == 0:
		return fmt.Errorf("cachebench selective: no files skipped")
	case s.MorselsSkipped == 0:
		return fmt.Errorf("cachebench selective: no morsels skipped")
	case s.SidecarLoads == 0:
		return fmt.Errorf("cachebench selective: no sidecars loaded")
	}
	return nil
}

// RunCacheBench generates the dataset and measures cold versus warm latency
// of Q0–Q2 plus the selective morsel-skip case. It does not apply the
// acceptance gates — call Check on the report for that.
func RunCacheBench(cfg CacheBenchConfig, newEngine CacheEngineFactory) (*CacheBenchReport, error) {
	cfg = cfg.withDefaults()
	dir := cfg.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "vxq-cachebench-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	gcfg := cfg.genConfig()
	bytes, err := gcfg.WriteDir(dir)
	if err != nil {
		return nil, err
	}
	rep := &CacheBenchReport{
		Dataset: CacheDatasetInfo{
			Files:          gcfg.Files,
			RecordsPerFile: gcfg.RecordsPerFile,
			Measurements:   gcfg.Measurements(),
			Bytes:          bytes,
		},
		Repeats:     cfg.Repeats,
		Concurrency: cfg.Concurrency,
	}
	for _, q := range []struct{ name, query string }{
		{"Q0", QueryQ0}, {"Q1", QueryQ1}, {"Q2", QueryQ2},
	} {
		qr, err := runCacheQuery(dir, q.name, q.query, cfg, newEngine)
		if err != nil {
			return nil, fmt.Errorf("cachebench %s: %w", q.name, err)
		}
		rep.Queries = append(rep.Queries, qr)
	}
	sel, err := runCacheSelective(dir, gcfg, newEngine)
	if err != nil {
		return nil, fmt.Errorf("cachebench selective: %w", err)
	}
	rep.Selective = sel
	return rep, nil
}

// removeSidecars deletes every sidecar in the dataset directory, resetting
// the on-disk warmth before a cold run.
func removeSidecars(dir string) error {
	matches, err := filepath.Glob(filepath.Join(dir, "*"+runtime.SidecarSuffix))
	if err != nil {
		return err
	}
	for _, m := range matches {
		if err := os.Remove(m); err != nil {
			return err
		}
	}
	return nil
}

func runCacheQuery(dir, name, query string, cfg CacheBenchConfig, newEngine CacheEngineFactory) (CacheQueryReport, error) {
	r := CacheQueryReport{Name: name, Query: query, WarmScanRepeats: cfg.ScanRepeats, WarmRepeats: cfg.Repeats}
	if err := removeSidecars(dir); err != nil {
		return r, err
	}

	// Cold: fresh engine, bare directory.
	cold, err := newEngine(dir, true)
	if err != nil {
		return r, err
	}
	start := time.Now()
	st, err := cold.Query(query)
	if err != nil {
		return r, err
	}
	r.ColdSeconds = time.Since(start).Seconds()
	r.Items = st.Items
	if st.PlanHit || st.ResultHit {
		return r, fmt.Errorf("cold run hit a cache (plan=%v result=%v): factory reuses state", st.PlanHit, st.ResultHit)
	}

	// Warm scans: fresh engine with the result cache off. One priming
	// execution compiles the plan; every timed execution then hits the
	// plan cache and re-runs the scan.
	scanEng, err := newEngine(dir, false)
	if err != nil {
		return r, err
	}
	st, err = scanEng.Query(query)
	if err != nil {
		return r, err
	}
	if st.Items != r.Items {
		return r, fmt.Errorf("warm scan returned %d items, cold returned %d", st.Items, r.Items)
	}
	start = time.Now()
	for i := 0; i < cfg.ScanRepeats; i++ {
		st, err = scanEng.Query(query)
		if err != nil {
			return r, err
		}
		if st.PlanHit {
			r.WarmScanPlanHits++
		}
	}
	r.WarmScanSeconds = time.Since(start).Seconds() / float64(cfg.ScanRepeats)
	if r.WarmScanSeconds > 0 {
		r.WarmScanSpeedup = r.ColdSeconds / r.WarmScanSeconds
	}

	// Hot repeats: fresh engine with the result cache on. One priming
	// execution stores the answer; Repeats timed executions under
	// Concurrency goroutines then serve it from the result cache.
	hot, err := newEngine(dir, true)
	if err != nil {
		return r, err
	}
	if st, err = hot.Query(query); err != nil {
		return r, err
	} else if st.Items != r.Items {
		return r, fmt.Errorf("hot priming run returned %d items, cold returned %d", st.Items, r.Items)
	}
	var (
		wg         sync.WaitGroup
		issued     int64
		resultHits int64
		errOnce    sync.Once
		firstErr   error
	)
	start = time.Now()
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for atomic.AddInt64(&issued, 1) <= int64(cfg.Repeats) {
				st, err := hot.Query(query)
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				if st.ResultHit {
					atomic.AddInt64(&resultHits, 1)
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	if firstErr != nil {
		return r, firstErr
	}
	r.WarmSeconds = wall / float64(cfg.Repeats)
	r.WarmResultHits = resultHits
	if r.WarmSeconds > 0 {
		r.Speedup = r.ColdSeconds / r.WarmSeconds
	}
	return r, nil
}

// DatePathExpr is the indexed path of the selective case, in the engine's
// BuildIndex syntax.
const DatePathExpr = `("root")()("results")()("date")`

func runCacheSelective(dir string, gcfg gen.Config, newEngine CacheEngineFactory) (CacheSelectiveReport, error) {
	// One month of the last year: PartitionByYear pins the year per file
	// (every other file skips at file level) and ClusterDates packs June
	// into a narrow byte range of the surviving file (most of its morsels
	// skip at zone level).
	year := gcfg.YearMax
	lo := fmt.Sprintf("%04d-06-01", year)
	hi := fmt.Sprintf("%04d-07-01", year)
	query := fmt.Sprintf(`
for $d in collection("/sensors")("root")()("results")()("date")
where $d ge %q and $d lt %q
return $d`, lo, hi)
	r := CacheSelectiveReport{Query: query}

	// An index build on one engine persists per-zone date stats into the
	// sidecars...
	builder, err := newEngine(dir, true)
	if err != nil {
		return r, err
	}
	if err := builder.BuildIndex("/sensors", DatePathExpr); err != nil {
		return r, err
	}
	if builder.SidecarStats().Writes == 0 {
		return r, fmt.Errorf("index build wrote no sidecars")
	}

	// ...and a fresh engine prunes from them alone.
	reader, err := newEngine(dir, true)
	if err != nil {
		return r, err
	}
	start := time.Now()
	st, err := reader.Query(query)
	if err != nil {
		return r, err
	}
	r.Seconds = time.Since(start).Seconds()
	r.Items = st.Items
	r.FilesSkipped = st.FilesSkipped
	r.MorselsSkipped = st.MorselsSkipped
	r.SidecarLoads = reader.SidecarStats().Loads
	return r, nil
}
