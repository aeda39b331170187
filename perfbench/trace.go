package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"vxq"
	"vxq/internal/item"
	"vxq/internal/jsonparse"
	vxrt "vxq/internal/runtime"
)

// The traced run records spans from the benchmark's own code: one per
// query, with the compile call and the operator self times the engine
// returns in Result.Profile as its children, and one per layer pass. Spans
// stay in memory and are written out when the run ends.

type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	QueryID int    `json:"query_id"`
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	SelfNS  int64  `json:"self_ns,omitempty"`
}

type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(s span) int {
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// queries records the loop's query spans. The epoch moves back to the first
// query so every offset is non-negative.
func (t *tracer) queries(r *runner, samples []sample) {
	for _, s := range samples {
		if begin := s.start.Add(-s.compile); begin.Before(t.epoch) {
			t.epoch = begin
		}
	}
	for i, s := range samples {
		begin := s.start.Add(-s.compile)
		id := t.add(span{QueryID: i + 1, Name: r.qs[s.q].name, Kind: "query",
			StartNS: t.ns(begin), EndNS: t.ns(s.start.Add(s.lat))})
		t.add(span{Parent: id, QueryID: i + 1, Name: "Engine.Explain", Kind: "compile",
			StartNS: t.ns(begin), EndNS: t.ns(s.start)})
		if s.res == nil || s.res.Profile == nil {
			continue
		}
		for _, sp := range s.res.Profile.Spans {
			t.add(span{Parent: id, QueryID: i + 1, Name: sp.Name, Kind: "op:" + sp.Kind,
				StartNS: t.ns(s.start) + sp.StartNS, EndNS: t.ns(s.start) + sp.EndNS, SelfNS: sp.SelfNS})
		}
	}
}

// timed runs fn as a layer-pass span and returns its duration.
func (t *tracer) timed(name string, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	t.add(span{Name: name, Kind: "layer", StartNS: t.ns(start), EndNS: t.ns(end)})
	return end.Sub(start), err
}

func (t *tracer) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// overheadRatio runs one pass of the workload's queries twice, untraced and
// traced, alternating which goes first, and returns traced / untraced wall.
func (r *runner) overheadRatio() (float64, error) {
	plain := r.opts
	plain.Profile = false
	var engPlain, engTraced *vxq.Engine
	if !r.w.freshEngine {
		engTraced = r.eng
		engPlain = r.newEngine(plain)
		if r.w.indexed {
			// Load the sidecars, as the traced engine's priming did.
			if _, err := r.prime(engPlain); err != nil {
				return 0, err
			}
		}
	}
	var sum [2]time.Duration
	for qi := range r.qs {
		for k := 0; k < 2; k++ {
			traced := (qi+k)%2 == 1
			e := engPlain
			if traced {
				e = engTraced
			}
			if r.w.freshEngine {
				o := plain
				o.Profile = traced
				e = r.newEngine(o)
			}
			s := r.runQuery(e, qi, traced)
			if s.err != nil {
				return 0, fmt.Errorf("overhead pass %s: %w", r.qs[qi].name, s.err)
			}
			if traced {
				sum[1] += s.lat + s.compile
			} else {
				sum[0] += s.lat
			}
		}
	}
	return sum[1].Seconds() / sum[0].Seconds(), nil
}

// decodeCap bounds the records the item pass keeps encoded in memory.
const decodeCap = 200_000

// layerPasses times each layer's public functions over the run's files:
// raw reads through Source.Open, the DATASCAN projection, and the binary
// item decode of the projected records.
func (r *runner) layerPasses(tr *tracer) (map[string]metric, error) {
	src := &vxrt.DirSource{Mounts: map[string]string{"/sensors": r.dataDir}}
	files, err := src.Files("/sensors")
	if err != nil {
		return nil, err
	}
	path, err := jsonparse.ParsePath(collPath)
	if err != nil {
		return nil, err
	}
	mib := float64(r.total) / (1 << 20)
	const reps = 3
	m := map[string]metric{}

	var rates []float64
	for i := 0; i < reps; i++ {
		d, err := tr.timed("runtime.Source.Open", func() error {
			for _, f := range files {
				rc, err := src.Open(f)
				if err != nil {
					return err
				}
				_, err = io.Copy(io.Discard, rc)
				rc.Close()
				if err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		rates = append(rates, mib/d.Seconds())
	}
	m["runtime.raw_read_mb_per_s"] = metric{median(rates), "MiB/s"}

	// Projection: the DATASCAN record model (ScanValues over a stream
	// lexer), the path the engine's scans run.
	project := func(emit func(item.Item) error) error {
		for _, f := range files {
			rc, err := src.Open(f)
			if err != nil {
				return err
			}
			_, err = jsonparse.ScanValues(jsonparse.NewStreamLexer(rc, 0), path, -1, emit)
			rc.Close()
			if err != nil {
				return fmt.Errorf("project %s: %w", f, err)
			}
		}
		return nil
	}
	rates = rates[:0]
	var allocs []float64
	for i := 0; i < reps; i++ {
		var records int64
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		d, err := tr.timed("jsonparse.ScanValues", func() error {
			return project(func(item.Item) error { records++; return nil })
		})
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, err
		}
		rates = append(rates, mib/d.Seconds())
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(records))
	}
	m["jsonparse.project_mb_per_s"] = metric{median(rates), "MiB/s"}
	m["jsonparse.allocs_per_record"] = metric{median(allocs), "allocs/record"}

	// Item decode of the projected records, in their binary encoding.
	var buf []byte
	var offs []int
	stop := errors.New("enough records")
	if err := project(func(it item.Item) error {
		offs = append(offs, len(buf))
		buf = item.Encode(buf, it)
		if len(offs) == decodeCap {
			return stop
		}
		return nil
	}); err != nil && !errors.Is(err, stop) {
		return nil, err
	}
	var nsPer []float64
	for i := 0; i < reps; i++ {
		d, err := tr.timed("item.Decode", func() error {
			for _, off := range offs {
				if _, _, err := item.Decode(buf[off:]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		nsPer = append(nsPer, float64(d.Nanoseconds())/float64(len(offs)))
	}
	m["item.decode_ns_per_record"] = metric{median(nsPer), "ns/record"}
	return m, nil
}

// perLayer fills the per-layer metrics the loop's results carry. Counts are
// means per completed query unless the name says otherwise.
func (rep *runReport) perLayer(m map[string]metric, overhead float64) {
	n := float64(rep.ok)
	perQuery := func(v int64) float64 { return float64(v) / n }
	secPerQuery := func(ns int64) float64 { return float64(ns) / 1e9 / n }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	covered := float64(rep.coveredBytes)

	m["core.compile_ms"] = metric{float64(rep.compileNS) / 1e6 / n, "ms"}
	m["vxq.plan_hit_ratio"] = metric{ratio(rep.planHits, rep.planLookups), "ratio"}

	build := 0.0
	if len(rep.buildS) > 0 {
		build = median(rep.buildS)
	}
	m["index.build_s"] = metric{build, "s"}
	m["index.sidecar_loads"] = metric{float64(rep.cache.SidecarLoads), "count"}
	m["index.sidecar_misses"] = metric{float64(rep.cache.SidecarMisses), "count"}
	m["index.sidecar_writes"] = metric{float64(rep.cache.SidecarWrites + rep.builderWrites), "count"}
	m["index.files_skipped"] = metric{perQuery(rep.filesSkipped), "count"}
	m["index.morsels_skipped"] = metric{perQuery(rep.morselsSkipped), "count"}
	m["index.cold_index_builds"] = metric{float64(rep.coldIndexBuilds), "count"}
	m["index.bytes_read_ratio"] = metric{rep.bytesReadRatio, "ratio"}

	for _, k := range []string{"scan", "select", "assign", "groupby", "join", "sort", "other"} {
		m["hyracks."+k+"_self_s"] = metric{secPerQuery(rep.selfNS[k]), "s"}
	}
	m["hyracks.exchange_self_s"] = metric{secPerQuery(rep.selfNS["exchange"] + rep.selfNS["receive"]), "s"}
	m["hyracks.scan_share"] = metric{rep.scanShare, "ratio"}
	m["hyracks.tuples_produced"] = metric{perQuery(rep.tuplesProduced), "count"}
	m["hyracks.tuples_shuffled"] = metric{perQuery(rep.tuplesShuffled), "count"}
	m["hyracks.bytes_shuffled"] = metric{perQuery(rep.bytesShuffled), "B"}
	m["hyracks.morsels"] = metric{perQuery(rep.morsels), "count"}
	m["hyracks.morsel_steals"] = metric{perQuery(rep.steals), "count"}
	m["hyracks.hash_collisions"] = metric{perQuery(rep.collisions), "count"}
	m["hyracks.op_mem_peak_mb"] = metric{float64(rep.opMemPeak) / (1 << 20), "MiB"}

	m["spill.bytes"] = metric{perQuery(rep.spilledBytes), "B"}
	m["spill.partitions"] = metric{perQuery(rep.spillPartitions), "count"}
	m["spill.waves"] = metric{perQuery(rep.spillWaves), "count"}
	m["spill.bytes_per_input_byte"] = metric{float64(rep.spilledBytes) / covered, "ratio"}
	m["spill.partitions_per_input_mb"] = metric{float64(rep.spillPartitions) / (covered / (1 << 20)), "count/MiB"}

	m["trace.overhead_ratio"] = metric{overhead, "ratio"}
}
