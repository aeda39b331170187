package main

import (
	"fmt"
	"math/rand"
	"path/filepath"

	"vxq"
	"vxq/internal/bench"
	"vxq/internal/gen"
)

// collPath is the DATASCAN path every query and layer pass reads: one item
// per measurement object of the paper's sensor collection.
const collPath = `("root")()("results")()`

const coll = `collection("/sensors")` + collPath

// querySortTMAX orders TMAX measurements by value descending then date and
// returns the station; minValue < 0 keeps every TMAX measurement.
func querySortTMAX(minValue int) string {
	where := `$r("dataType") eq "TMAX"`
	if minValue >= 0 {
		where += fmt.Sprintf(` and $r("value") ge %d`, minValue)
	}
	return fmt.Sprintf(`
for $r in %s
where %s
order by $r("value") descending, $r("date")
return $r("station")`, coll, where)
}

// Dashboard query shapes. The date conjunct comes first so the range rule
// turns it into the scan's zone-map filter.
func queryWindow(lo, hi string) string {
	return fmt.Sprintf(`
for $r in %s
where $r("date") ge %q and $r("date") lt %q and $r("dataType") eq "TMAX"
return $r("value")`, coll, lo, hi)
}

func queryYearGroupBy(year int) string {
	return fmt.Sprintf(`
for $r in %s
where $r("date") ge "%04d-01-01" and $r("date") lt "%04d-01-01" and $r("dataType") eq "TMIN"
group by $date := $r("date")
return {"date": $date, "stations": count($r("station"))}`, coll, year, year+1)
}

func queryThresholdCount(lo, hi string, minValue int) string {
	return fmt.Sprintf(`
count(for $r in %s
where $r("date") ge %q and $r("date") lt %q and $r("value") ge %d
return $r)`, coll, lo, hi, minValue)
}

// query is one query text of a workload, with the spec the oracle uses to
// compute its expected answer.
type query struct {
	name string
	text string
	spec oracleSpec
}

// workload is one set of inputs the benchmark runs. Each exists to stress
// one set of layers and to bypass others; why says which.
type workload struct {
	name string
	why  string
	// clients is the number of closed-loop clients; each sends its next
	// query when the previous one returns.
	clients int
	// data is the generated collection for a seed; scale shrinks it (the
	// smoke test runs the same workloads on tiny inputs).
	data func(seed int64, scale float64) gen.Config
	// queries is the query set; each client runs passes over it, every pass
	// a seeded permutation, so every text runs equally often.
	queries func(rng *rand.Rand, cfg gen.Config) []query
	// options configures every engine the workload creates.
	options func(work string) vxq.Options
	// freshEngine creates a new engine for every query: no plan cache, no
	// registry, no sidecar warmth carries over.
	freshEngine bool
	// indexed builds a date zone-map index (writing sidecars) during setup,
	// then primes a new engine with every query text once.
	indexed bool
	// check fails the run when the workload no longer exercises the layers
	// it was chosen for.
	check func(r *runReport) error
}

// paperShaped is the gendata -split collection: ~37 KiB files of
// newline-delimited records, as in the paper's dataset.
func paperShaped(targetMiB float64) func(int64, float64) gen.Config {
	return func(seed int64, scale float64) gen.Config {
		c := gen.Default()
		c.Seed = seed
		c.SplitRecords = true
		return c.ScaleToBytes(int64(targetMiB * scale * (1 << 20)))
	}
}

var workloads = []*workload{
	{
		name:    "adhoc-cold",
		why:     "one-off Q0/Q0b/Q1/Q2/order-by queries, a fresh engine each: scan, projection, decode and scalar evaluation dominate; no pruning, sidecars or spill",
		clients: 1,
		data:    paperShaped(6),
		queries: func(*rand.Rand, gen.Config) []query {
			return []query{
				{"Q0", bench.QueryQ0, oracleSpec{kind: specQ0}},
				{"Q0b", bench.QueryQ0b, oracleSpec{kind: specQ0b}},
				{"Q1", bench.QueryQ1, oracleSpec{kind: specQ1}},
				{"Q2", bench.QueryQ2, oracleSpec{kind: specQ2}},
				{"QSORT", querySortTMAX(340), oracleSpec{kind: specSortTMAX, minValue: 340}},
			}
		},
		options: func(work string) vxq.Options {
			return vxq.Options{Partitions: 2, SpillDir: filepath.Join(work, "spill")}
		},
		freshEngine: true,
		check: func(r *runReport) error {
			if r.filesSkipped+r.morselsSkipped != 0 {
				return fmt.Errorf("pruned %d files and %d morsels; a cold ad-hoc scan must read everything",
					r.filesSkipped, r.morselsSkipped)
			}
			if r.spillPartitions != 0 {
				return fmt.Errorf("spilled %d partitions; ad-hoc queries must run in memory", r.spillPartitions)
			}
			if r.cache.SidecarLoads != 0 {
				return fmt.Errorf("loaded %d sidecars; nothing may persist between ad-hoc queries", r.cache.SidecarLoads)
			}
			if r.traced && r.scanEvalShare < 0.5 {
				return fmt.Errorf("scan, select and assign hold %.3f < 0.5 of the busy operator time", r.scanEvalShare)
			}
			return nil
		},
	},
	{
		name:    "dashboard-warm",
		why:     "2 clients repeat parameterised date-window queries on a restarted engine over indexed data: sidecar loads, file and morsel pruning and plan-cache hits do the work",
		clients: 2,
		data: func(seed int64, scale float64) gen.Config {
			// Eight year-partitioned files of ~8 MiB, each at least two 4 MiB
			// morsels, with dates clustered so per-zone stats are selective.
			records := int(3570 * scale)
			if records < 8 {
				records = 8
			}
			return gen.Config{
				Seed: seed, Files: 8, RecordsPerFile: records, MeasurementsPerArray: 30,
				Stations: 50, YearMin: 2007, YearMax: 2014,
				PartitionByYear: true, ClusterDates: true, SplitRecords: true,
			}
		},
		queries: dashboardQueries,
		options: func(work string) vxq.Options {
			return vxq.Options{Partitions: 1, SpillDir: filepath.Join(work, "spill")}
		},
		indexed: true,
		check: func(r *runReport) error {
			if r.coldIndexBuilds != 0 {
				return fmt.Errorf("%d cold index builds after priming; sidecars should serve every split", r.coldIndexBuilds)
			}
			if r.cache.SidecarLoads == 0 {
				return fmt.Errorf("no sidecar loads; the restarted engine did not use the persisted index")
			}
			if r.bytesReadRatio >= 1 {
				return fmt.Errorf("index.bytes_read_ratio %.3f >= 1; nothing was pruned", r.bytesReadRatio)
			}
			return nil
		},
	},
	{
		name:    "join-spill",
		why:     "Q1, Q2 and an order-by under a 96 KiB operator budget, below every operator's in-memory peak: grace-hash group-by and join, the exchange and spill I/O do the work",
		clients: 1,
		data:    paperShaped(8),
		queries: func(*rand.Rand, gen.Config) []query {
			return []query{
				{"Q1", bench.QueryQ1, oracleSpec{kind: specQ1}},
				{"Q2", bench.QueryQ2, oracleSpec{kind: specQ2}},
				{"SORT-TMAX", querySortTMAX(-1), oracleSpec{kind: specSortTMAX, minValue: -1}},
			}
		},
		options: func(work string) vxq.Options {
			return vxq.Options{Partitions: 2, OpMemoryBudget: 128 << 10, SpillDir: filepath.Join(work, "spill")}
		},
		check: func(r *runReport) error {
			if r.unspilledQueries != 0 {
				return fmt.Errorf("%d queries wrote no spill partitions; the budget no longer forces spilling", r.unspilledQueries)
			}
			return nil
		},
	},
}

// dashboardQueries draws the dashboard's parameters by seed from a small
// pool, so every text repeats and the plan cache hits. Each file holds one
// year with dates in file order and splits into two 4 MiB morsels and a
// small tail. At this commit a window in August to November skips the
// first morsel, while one in January to July reads the whole file: the
// zones around the morsel boundary reach into July, and the last zone's
// December records run on into January. Every draw takes one window and
// one count from each side, so the pool's cost does not depend on the seed.
func dashboardQueries(rng *rand.Rand, cfg gen.Config) []query {
	years := cfg.YearMax - cfg.YearMin + 1
	month := func(first, last int) (lo, hi string) {
		y := cfg.YearMin + rng.Intn(years)
		m := first + rng.Intn(last-first+1)
		return fmt.Sprintf("%04d-%02d-01", y, m), fmt.Sprintf("%04d-%02d-01", y, m+1)
	}
	var qs []query
	for _, months := range [][2]int{{1, 7}, {8, 11}} {
		lo, hi := month(months[0], months[1])
		qs = append(qs, query{"window-" + lo[:7], queryWindow(lo, hi),
			oracleSpec{kind: specWindow, lo: lo, hi: hi}})
		lo, hi = month(months[0], months[1])
		minValue := 200 + 10*rng.Intn(10)
		qs = append(qs, query{fmt.Sprintf("count-%s-ge%d", lo[:7], minValue), queryThresholdCount(lo, hi, minValue),
			oracleSpec{kind: specThresholdCount, lo: lo, hi: hi, minValue: minValue}})
	}
	for _, y := range rng.Perm(years)[:2] {
		y += cfg.YearMin
		qs = append(qs, query{fmt.Sprintf("groupby-%d", y), queryYearGroupBy(y),
			oracleSpec{kind: specYearGroupBy, lo: fmt.Sprintf("%04d-01-01", y), hi: fmt.Sprintf("%04d-01-01", y+1)}})
	}
	return qs
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
