// Package vxq is a parallel and scalable processor for JSON data: a Go
// reproduction of "A Parallel and Scalable Processor for JSON Data"
// (Pavlopoulou et al., EDBT 2018), which extended Apache VXQuery with the
// JSONiq extension to XQuery and three categories of rewrite rules so that
// raw JSON files can be queried on the fly — no load phase, no
// pre-processing — with pipelined, partitioned-parallel execution and a
// small memory footprint.
//
// The engine stack mirrors the paper's (Fig. 1): a Hyracks-like dataflow
// engine at the bottom (frames of serialized tuples, push-based operators,
// exchange connectors), an Algebricks-like algebra layer in the middle
// (logical plans, rewrite rules to fixpoint, physical compilation), and the
// JSONiq front end with the paper's rule categories on top:
//
//   - path expression rules (§4.1): unnesting is merged with
//     keys-or-members so items stream one at a time;
//   - pipelining rules (§4.2): collection access becomes a DATASCAN whose
//     second argument — a projection path — is applied *while parsing*, so
//     only matching objects are ever materialized, and execution becomes
//     partitioned-parallel;
//   - group-by rules (§4.3): scalar aggregates over grouped sequences are
//     converted to incremental aggregates and pushed into the GROUP-BY,
//     enabling two-step (local/global) parallel aggregation.
//
// # Quick start
//
//	eng := vxq.New(vxq.Options{Partitions: 4})
//	eng.Mount("/sensors", "/data/sensors")  // a directory of JSON files
//	res, err := eng.Query(`
//	    for $r in collection("/sensors")("root")()("results")()
//	    where $r("dataType") eq "TMIN"
//	    group by $date := $r("date")
//	    return count($r("station"))`)
//	if err != nil { ... }
//	for _, it := range res.Items { fmt.Println(vxq.JSON(it)) }
package vxq

import (
	"fmt"
	"io"
	"sync/atomic"

	"vxq/internal/core"
	"vxq/internal/frame"
	"vxq/internal/hyracks"
	"vxq/internal/index"
	"vxq/internal/item"
	"vxq/internal/jsonparse"
	"vxq/internal/runtime"
)

// Item is a value of the JSONiq data model (object, array, string, number,
// boolean, null, or dateTime).
type Item = item.Item

// Sequence is an ordered sequence of items, the value domain of JSONiq
// expressions.
type Sequence = item.Sequence

// JSON renders an item as canonical JSON text.
func JSON(it Item) string { return item.JSON(it) }

// Options configures an Engine.
type Options struct {
	// Partitions is the degree of partitioned parallelism for collection
	// scans (the paper uses one partition per core). Default 1.
	Partitions int
	// DisablePathRules turns off the path expression rules (§4.1).
	DisablePathRules bool
	// DisablePipeliningRules turns off the pipelining rules (§4.2).
	DisablePipeliningRules bool
	// DisableGroupByRules turns off the group-by rules (§4.3).
	DisableGroupByRules bool
	// FrameSize is the dataflow frame capacity in bytes (default 32 KiB).
	FrameSize int
	// ScanChunkSize is the refill-buffer size, in bytes, of streaming
	// collection scans (default 64 KiB). Raw JSON files are never
	// materialized whole: the scan reads each file through a buffer of
	// this size, so per-scan peak memory is O(chunk), not O(file).
	ScanChunkSize int
	// MemoryLimit bounds the engine's accounted memory in bytes
	// (0 = unlimited). Exceeding it does not abort execution; it is
	// reported through Result.PeakMemory versus the limit.
	MemoryLimit int64
	// MorselSize is the byte-range granularity of morsel-driven scans
	// (default 4 MiB). Raw JSON files larger than this are split into
	// independently schedulable byte ranges, so a handful of oversized files
	// no longer serializes onto a single partition.
	MorselSize int64
	// ColdIndexMinBytes gates the cold-scan boundary pass: a raw JSON file at
	// least this large with no recorded record-boundary index gets one from
	// the speculative parallel indexer at scan setup, so even the first scan
	// of a huge file cuts morsels exactly on record starts (default 32 MiB;
	// negative disables the pass). The computed index is recorded in the
	// engine's registry, so only the first scan of a file pays.
	ColdIndexMinBytes int64
	// IndexWorkers is the worker count of parallel index passes — the
	// cold-scan boundary pass and large-file zone-map builds (default
	// GOMAXPROCS).
	IndexWorkers int
	// IndexZoneGrain is the byte width of the per-zone min/max stats a
	// BuildIndex/BuildIndexes pass records alongside its per-file ranges
	// (index.DefaultZoneGrain when 0; negative disables zone stats). Zones
	// finer than MorselSize let warm scans skip individual morsels whose
	// value range excludes a query's predicate, not just whole files.
	IndexZoneGrain int64
	// Staged runs the executor's sequential schedule (one task at a time,
	// clean per-task timing) instead of the default concurrent one (one
	// goroutine per task). Results are identical.
	Staged bool
	// Profile collects per-operator metrics during execution and attaches
	// the merged profile to Result.Profile. Collection wraps every operator
	// boundary; overhead is a few percent at most, and exactly zero when off.
	Profile bool
	// CacheDir is where persistent structural-index sidecars are written
	// ("" = next to each data file). Useful when data directories are
	// read-only.
	CacheDir string
	// DisableSidecars turns off sidecar persistence entirely: indexes and
	// record-boundary splits stay in-memory, nothing is written next to the
	// data, and nothing is loaded from prior runs.
	DisableSidecars bool
	// PlanCacheSize bounds the compiled-plan cache (entries): repeated
	// queries — same text modulo whitespace, same rule options — skip
	// parse, rewrite and physical planning. 0 means DefaultPlanCacheSize;
	// negative disables the cache.
	PlanCacheSize int
	// ResultCacheBytes bounds the result cache (bytes): a repeated
	// deterministic query whose scanned files are unchanged — validated by
	// each file's (size, mtime) identity and the engine's mount generation —
	// returns its cached result without executing. 0 disables the cache.
	ResultCacheBytes int64
	// OpMemoryBudget bounds the bytes any one blocking operator instance
	// (group-by, join build, sort) may hold before it goes out of core:
	// group-by and join grace-hash-partition their state to disk and recurse,
	// sort switches to external merge. Results are identical to in-memory
	// execution. 0 (the default) never spills.
	OpMemoryBudget int64
	// SpillDir is where out-of-core operators place their temporary partition
	// and run files ("" = the OS temp dir). Spill files are always removed
	// when the query finishes — success or failure.
	SpillDir string
}

func (o Options) ruleConfig() core.RuleConfig {
	return core.RuleConfig{
		PathRules:       !o.DisablePathRules,
		PipeliningRules: !o.DisablePipeliningRules,
		GroupByRules:    !o.DisableGroupByRules,
	}
}

// Engine compiles and executes JSONiq queries over mounted collections of
// raw JSON files.
type Engine struct {
	opts    Options
	mounts  map[string]string
	docs    map[string]map[string][]byte
	indexes *index.Registry
	plans   *planCache
	results *resultCache
	// mountGen counts mount-set changes; result-cache entries remember the
	// generation they were computed under and die when it moves, which
	// covers the in-memory documents no file identity can validate.
	mountGen atomic.Uint64
}

// New creates an engine.
func New(opts Options) *Engine {
	if opts.Partitions <= 0 {
		opts.Partitions = 1
	}
	e := &Engine{
		opts:    opts,
		mounts:  map[string]string{},
		docs:    map[string]map[string][]byte{},
		indexes: index.NewRegistry(),
	}
	if opts.PlanCacheSize >= 0 {
		size := opts.PlanCacheSize
		if size == 0 {
			size = DefaultPlanCacheSize
		}
		e.plans = newPlanCache(size)
	}
	if opts.ResultCacheBytes > 0 {
		e.results = newResultCache(opts.ResultCacheBytes)
	}
	if !opts.DisableSidecars {
		e.indexes.SetPersistence(&index.Persistence{
			Dir:   opts.CacheDir,
			Ident: func(file string) (runtime.FileIdent, bool) { return e.source().Ident(file) },
		})
	}
	return e
}

// Mount registers a directory of JSON files as a collection, addressable
// from queries as collection(name).
func (e *Engine) Mount(name, dir string) {
	e.mounts[name] = dir
	e.mountGen.Add(1)
}

// MountDocs registers an in-memory set of documents as a collection.
func (e *Engine) MountDocs(name string, docs map[string][]byte) {
	e.docs[name] = docs
	e.mountGen.Add(1)
}

// BuildIndex builds a zone-map (per-file min/max) index over a scalar path
// of a collection, written in JSONiq postfix syntax, e.g.
//
//	eng.BuildIndex("/sensors", `("root")()("results")()("date")`)
//
// Queries whose selections bound that path with constant comparisons then
// skip files whose value range cannot match — the paper's §6 future-work
// direction. The index reflects the collection at build time; rebuild it
// after the underlying files change.
func (e *Engine) BuildIndex(collection, path string) error {
	return e.BuildIndexes(collection, path)
}

// BuildIndexes builds zone maps over several scalar paths of one collection
// with a single scan of its files: each file is read once, every path's
// min/max feeds off the same parsed records, and one boundary pass — the
// speculative parallel indexer for large files — serves all of the maps.
func (e *Engine) BuildIndexes(collection string, paths ...string) error {
	if len(paths) == 0 {
		return fmt.Errorf("vxq: no index paths")
	}
	pp := make([]jsonparse.Path, len(paths))
	for i, s := range paths {
		p, err := jsonparse.ParsePath(s)
		if err != nil {
			return err
		}
		pp[i] = p
	}
	zms, err := index.BuildWith(e.source(), collection, pp,
		index.BuildOptions{Workers: e.opts.IndexWorkers, ZoneGrain: e.opts.IndexZoneGrain})
	if err != nil {
		return err
	}
	for _, zm := range zms {
		e.indexes.Add(zm)
	}
	return nil
}

// source builds the engine's data source view.
func (e *Engine) source() *compositeSource {
	return &compositeSource{
		dirs: &runtime.DirSource{Mounts: e.mounts},
		mem:  &runtime.MemSource{Collections: e.docs},
	}
}

type compositeSource struct {
	dirs *runtime.DirSource
	mem  *runtime.MemSource
}

func (s *compositeSource) Files(collection string) ([]string, error) {
	if _, ok := s.dirs.Mounts[collection]; ok {
		return s.dirs.Files(collection)
	}
	return s.mem.Files(collection)
}

// Open is the streaming read path: in-memory documents win, directory
// mounts are the fallback.
func (s *compositeSource) Open(path string) (io.ReadCloser, error) {
	if rc, err := s.mem.Open(path); err == nil {
		return rc, nil
	}
	return s.dirs.Open(path)
}

// OpenRange opens a file at a byte offset, enabling morsel-split scans over
// both in-memory documents and directory mounts.
func (s *compositeSource) OpenRange(path string, offset int64) (io.ReadCloser, error) {
	if rc, err := s.mem.OpenRange(path, offset); err == nil {
		return rc, nil
	}
	return s.dirs.OpenRange(path, offset)
}

// Size reports a file's size without reading it.
func (s *compositeSource) Size(path string) (int64, error) {
	if n, err := s.mem.Size(path); err == nil {
		return n, nil
	}
	return s.dirs.Size(path)
}

// Ident reports a file's durable identity. In-memory documents have none
// (ok=false), so persistent caches never cover them; directory files get
// their (size, mtime) from the filesystem.
func (s *compositeSource) Ident(path string) (runtime.FileIdent, bool) {
	if _, err := s.mem.Size(path); err == nil {
		return s.mem.Ident(path)
	}
	return s.dirs.Ident(path)
}

// CacheInfo reports how the engine's caches served one query.
type CacheInfo struct {
	// PlanHit is true when compilation was skipped (plan cache).
	PlanHit bool
	// ResultHit is true when execution was skipped entirely (result cache);
	// Stats and PeakMemory then describe the original run that produced the
	// cached result.
	ResultHit bool
}

// Result is a query's outcome.
type Result struct {
	// Items is the result sequence, one item per result tuple, in a
	// deterministic (sorted) order.
	Items []Item
	// Stats are the execution statistics (bytes read, tuples produced,
	// bytes shuffled between partitions, ...).
	Stats runtime.Stats
	// PeakMemory is the engine's accounted memory high-water mark.
	PeakMemory int64
	// OriginalPlan and OptimizedPlan are the logical plans before and
	// after the rewrite rules.
	OriginalPlan, OptimizedPlan string
	// PhysicalPlan is the compiled Hyracks job.
	PhysicalPlan string
	// Profile is the per-operator execution profile (nil unless
	// Options.Profile was set).
	Profile *hyracks.Profile
	// Cache reports which cache layers served this query.
	Cache CacheInfo
}

// Query compiles and executes a JSONiq query. With the caches enabled (see
// Options.PlanCacheSize and Options.ResultCacheBytes), a repeated query skips
// compilation, and — when its scanned files are verifiably unchanged —
// execution altogether; Result.Cache reports which layers served it.
func (e *Engine) Query(query string) (*Result, error) {
	key := normalizeQuery(query) + "\x00" + e.optionFingerprint()
	if e.results != nil && resultCacheable(key) {
		if res, ok := e.results.lookup(key, e.resultStillValid); ok {
			return res, nil
		}
	}
	compiled, planHit, err := e.compileCached(query, key)
	if err != nil {
		return nil, err
	}
	// Snapshot the scanned files before executing: if one changes mid-run,
	// the stored snapshot no longer matches the file's post-change identity,
	// so the very next lookup invalidates the (possibly torn) entry.
	var snapshot []collSnap
	if e.results != nil && resultCacheable(key) {
		snapshot = e.snapshotCollections(compiled.Job.ScanCollections())
	}
	gen := e.mountGen.Load()
	env := &hyracks.Env{
		Source:            e.source(),
		FrameSize:         e.opts.FrameSize,
		ChunkSize:         e.opts.ScanChunkSize,
		Accountant:        frame.NewAccountant(e.opts.MemoryLimit),
		Indexes:           e.indexes,
		MorselSize:        e.opts.MorselSize,
		ColdIndexMinBytes: e.opts.ColdIndexMinBytes,
		ColdIndexWorkers:  e.opts.IndexWorkers,
		Profile:           e.opts.Profile,
		OpMemoryBudget:    e.opts.OpMemoryBudget,
		SpillDir:          e.opts.SpillDir,
	}
	var res *hyracks.Result
	if e.opts.Staged {
		res, err = hyracks.RunStaged(compiled.Job, env)
	} else {
		res, err = hyracks.RunPipelined(compiled.Job, env)
	}
	if err != nil {
		return nil, err
	}
	// Canonical order for determinism — unless the query itself orders its
	// result, in which case that order is preserved.
	if !compiled.Ordered {
		res.SortRows()
	}
	out := &Result{
		Stats:         res.Stats,
		PeakMemory:    res.PeakMemory,
		OriginalPlan:  compiled.OriginalPlan,
		OptimizedPlan: compiled.OptimizedPlan,
		PhysicalPlan:  compiled.Job.String(),
		Profile:       res.Profile,
		Cache:         CacheInfo{PlanHit: planHit},
	}
	for _, row := range res.Rows {
		if len(row) != 1 {
			return nil, fmt.Errorf("vxq: internal error: result tuple with %d fields", len(row))
		}
		out.Items = append(out.Items, row[0]...)
	}
	if snapshot != nil {
		cached := *out
		cached.Profile = nil // profiles are per-execution, not part of the answer
		cached.Cache = CacheInfo{}
		e.results.store(&resultEntry{key: key, res: &cached, gen: gen, colls: snapshot})
	}
	return out, nil
}

// optionFingerprint encodes the compile-relevant options into the cache key:
// two engines (or one reconfigured engine) disagree on plans exactly when
// their fingerprints differ.
func (e *Engine) optionFingerprint() string {
	rc := e.opts.ruleConfig()
	return fmt.Sprintf("p%d:%t%t%t", e.opts.Partitions, rc.PathRules, rc.PipeliningRules, rc.GroupByRules)
}

// compileCached compiles through the plan cache. planHit reports whether
// compilation was skipped.
func (e *Engine) compileCached(query, key string) (c *core.Compiled, planHit bool, err error) {
	if e.plans == nil {
		c, err = e.compile(query)
		return c, false, err
	}
	if c, ok := e.plans.get(key); ok {
		return c, true, nil
	}
	c, err = e.compile(query)
	if err != nil {
		return nil, false, err
	}
	e.plans.put(key, c)
	return c, false, nil
}

// snapshotCollections records the file set and identities of the scanned
// collections. A nil return (any listing error) disables caching for this
// query rather than caching something unverifiable.
func (e *Engine) snapshotCollections(collections []string) []collSnap {
	src := e.source()
	out := make([]collSnap, 0, len(collections))
	for _, coll := range collections {
		files, err := src.Files(coll)
		if err != nil {
			return nil
		}
		cs := collSnap{name: coll, files: make([]fileSnap, len(files))}
		for i, f := range files {
			ident, ok := src.Ident(f)
			cs.files[i] = fileSnap{path: f, ident: ident, durable: ok}
		}
		out = append(out, cs)
	}
	return out
}

// resultStillValid revalidates one cached entry: the mount set must be the
// same generation, every scanned collection must list the same files, and
// every file with a durable identity must still carry the identity the
// snapshot saw.
func (e *Engine) resultStillValid(entry *resultEntry) bool {
	if entry.gen != e.mountGen.Load() {
		return false
	}
	src := e.source()
	for _, cs := range entry.colls {
		files, err := src.Files(cs.name)
		if err != nil || len(files) != len(cs.files) {
			return false
		}
		for i, f := range files {
			snap := cs.files[i]
			if f != snap.path {
				return false
			}
			ident, ok := src.Ident(f)
			if ok != snap.durable || ident != snap.ident {
				return false
			}
			if ok && !identReliable(ident) {
				// A coarse mtime cannot distinguish a same-size rewrite made
				// within its granularity from no change at all; miss
				// conservatively rather than serve a possibly stale result.
				return false
			}
		}
	}
	return true
}

// identReliable reports whether a file identity can actually witness change:
// an mtime of zero, or one truncated to whole seconds (a filesystem without
// sub-second timestamps), leaves same-size rewrites within one second
// invisible to the (size, mtime) comparison.
func identReliable(id runtime.FileIdent) bool {
	return id.ModTimeNanos != 0 && id.ModTimeNanos%1e9 != 0
}

// CacheStats is a snapshot of the engine's cache counters.
type CacheStats struct {
	// PlanHits / PlanMisses count compiled-plan cache outcomes.
	PlanHits, PlanMisses int64
	// ResultHits / ResultMisses count result cache outcomes.
	ResultHits, ResultMisses int64
	// ResultCacheBytes is the result cache's current accounted charge.
	ResultCacheBytes int64
	// SidecarLoads / SidecarMisses / SidecarWrites count persistent
	// structural-index sidecar traffic.
	SidecarLoads, SidecarMisses, SidecarWrites int64
}

// CacheStats reports the engine's cache counters.
func (e *Engine) CacheStats() CacheStats {
	var cs CacheStats
	if e.plans != nil {
		e.plans.mu.Lock()
		cs.PlanHits, cs.PlanMisses = e.plans.hits, e.plans.misses
		e.plans.mu.Unlock()
	}
	if e.results != nil {
		e.results.mu.Lock()
		cs.ResultHits, cs.ResultMisses = e.results.hits, e.results.misses
		e.results.mu.Unlock()
		cs.ResultCacheBytes = e.results.bytesUsed()
	}
	rs := e.indexes.Stats()
	cs.SidecarLoads, cs.SidecarMisses, cs.SidecarWrites = rs.SidecarLoads, rs.SidecarMisses, rs.SidecarWrites
	return cs
}

// Explain compiles a query and returns its plans without executing it.
func (e *Engine) Explain(query string) (original, optimized, physical string, err error) {
	compiled, err := e.compile(query)
	if err != nil {
		return "", "", "", err
	}
	return compiled.OriginalPlan, compiled.OptimizedPlan, compiled.Job.String(), nil
}

func (e *Engine) compile(query string) (*core.Compiled, error) {
	return core.CompileQuery(query, core.Options{
		Rules:      e.opts.ruleConfig(),
		Partitions: e.opts.Partitions,
	})
}
