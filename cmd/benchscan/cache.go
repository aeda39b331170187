package main

import (
	"encoding/json"
	"os"

	"vxq"
	"vxq/internal/bench"
)

// cacheEngine adapts vxq.Engine to bench.CacheEngine (the bench package
// cannot import vxq — the root package's benchmarks import bench).
type cacheEngine struct{ eng *vxq.Engine }

func (e cacheEngine) Query(q string) (bench.CacheRunStats, error) {
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

func (e cacheEngine) BuildIndex(collection, pathExpr string) error {
	return e.eng.BuildIndex(collection, pathExpr)
}

func (e cacheEngine) SidecarStats() bench.CacheSidecarStats {
	cs := e.eng.CacheStats()
	return bench.CacheSidecarStats{Loads: cs.SidecarLoads, Misses: cs.SidecarMisses, Writes: cs.SidecarWrites}
}

// cacheBenchEngine opens a fresh engine over the benchmark dataset. The
// morsel and zone sizes are shrunk so the benchmark's modest files still
// split into byte-range morsels that per-zone stats can prune, exactly as a
// multi-gigabyte file would under the defaults.
func cacheBenchEngine(dir string, resultCache bool) (bench.CacheEngine, error) {
	opts := vxq.Options{
		Partitions:     2,
		MorselSize:     64 << 10,
		IndexZoneGrain: 16 << 10,
	}
	if resultCache {
		opts.ResultCacheBytes = 16 << 20
	}
	eng := vxq.New(opts)
	eng.Mount("/sensors", dir)
	return cacheEngine{eng}, nil
}

func runCacheBench(out string, repeats, concurrency int) error {
	rep, err := bench.RunCacheBench(
		bench.CacheBenchConfig{Repeats: repeats, Concurrency: concurrency}, cacheBenchEngine)
	if err != nil {
		return err
	}
	if err := rep.Check(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(out, data, 0o644)
}
