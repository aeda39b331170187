package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"vxq"
	"vxq/internal/bench"
)

type config struct {
	seed    int64
	seconds float64
	traced  bool
	// scale multiplies the workload's collection size (1 in the benchmark).
	scale float64
	// work is the run's private directory for data and spill files; the
	// caller removes it.
	work string
	// traceOut is where a traced run writes its spans ("" = nowhere).
	traceOut string
}

// sample is one query of the timed loop.
type sample struct {
	q          int
	client     int
	pass       int // index into the client's passes
	start      time.Time
	lat        time.Duration
	compile    time.Duration // traced runs: the Engine.Explain call before the query
	res        *vxq.Result
	err        error
	violations []string
	cache      vxq.CacheStats // fresh-engine workloads: the query's own engine
}

// runReport accumulates what the self-checks and per-layer metrics read.
type runReport struct {
	traced bool
	ok     int // queries that returned the right answer with no violation

	filesSkipped, morselsSkipped, coldIndexBuilds int64
	spilledBytes, spillPartitions, spillWaves     int64
	unspilledQueries                              int
	bytesRead, coveredBytes                       int64
	tuplesProduced, tuplesShuffled, bytesShuffled int64
	morsels, steals, collisions, opMemPeak        int64
	selfNS                                        map[string]int64
	compileNS                                     int64
	peakMemory                                    int64
	latencies                                     []float64

	cache          vxq.CacheStats // sidecar traffic of every engine the loop used
	planHits       int64
	planLookups    int64
	builderWrites  int64
	buildS         []float64
	scanShare      float64 // scan self time / busy self time
	scanEvalShare  float64 // scan, select and assign self time / busy self time
	bytesReadRatio float64
}

// runner holds one run's inputs and engines.
type runner struct {
	w        *workload
	cfg      config
	opts     vxq.Options
	dataDir  string
	spillDir string
	files    []string
	names    map[string]bool
	total    int64
	qs       []query
	scans    []int
	want     []answer
	eng      *vxq.Engine // shared engine (unless freshEngine)
	// plan-cache lookups and hits on the shared engine before the loop
	planBase, planHitBase int64
}

func (r *runner) newEngine(o vxq.Options) *vxq.Engine {
	e := vxq.New(o)
	e.Mount("/sensors", r.dataDir)
	return e
}

// runWorkload runs one workload end to end. tamper, when set, edits the
// oracle's expected answers before the loop (the smoke test corrupts one to
// prove a wrong answer is counted).
func runWorkload(w *workload, cfg config, tamper func([]answer)) (*output, error) {
	out := &output{}
	out.Info = info{Host: hostInfo(), Workload: w.name, Why: w.why, Seed: cfg.seed, Traced: cfg.traced,
		Clients: w.clients, TailBeyond: tailBeyond}
	r := &runner{w: w, cfg: cfg, dataDir: filepath.Join(cfg.work, "data"), spillDir: filepath.Join(cfg.work, "spill")}
	if err := os.MkdirAll(r.spillDir, 0o755); err != nil {
		return nil, err
	}

	// Inputs and expected answers: the benchmark's own cost, not timed.
	gcfg := w.data(cfg.seed, cfg.scale)
	total, err := gcfg.WriteDir(r.dataDir)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", w.name, err)
	}
	r.total = total
	if r.files, err = listFiles(r.dataDir); err != nil {
		return nil, err
	}
	r.names = map[string]bool{}
	for _, f := range r.files {
		r.names[filepath.Base(f)] = true
	}
	out.Info.Data.Files, out.Info.Data.Bytes, out.Info.Data.Measurements = len(r.files), total, gcfg.Measurements()
	r.qs = w.queries(rand.New(rand.NewSource(cfg.seed)), gcfg)
	ms, err := readMeasurements(r.files)
	if err != nil {
		return nil, err
	}
	for _, q := range r.qs {
		a, err := expect(q.spec, ms)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.name, err)
		}
		r.want = append(r.want, a)
		r.scans = append(r.scans, strings.Count(q.text, "collection("))
	}
	if tamper != nil {
		tamper(r.want)
	}
	r.opts = w.options(cfg.work)
	r.opts.Profile = cfg.traced

	rep := &runReport{traced: cfg.traced, selfNS: map[string]int64{}}
	setup, err := r.setup(rep)
	if err != nil {
		return nil, err
	}
	out.Info.SetupReps = len(setup)

	lr := r.loop()
	res := &out.Result
	var errs []string
	byQuery := map[string][]float64{}
	passBytes := make([][]int64, len(lr.passes))
	for c := range lr.passes {
		passBytes[c] = make([]int64, len(lr.passes[c]))
	}
	for _, s := range lr.samples {
		res.Attempted++
		if msg := r.verify(s); msg != "" {
			res.Failed++
			if len(errs) < 5 {
				errs = append(errs, fmt.Sprintf("%s: %s", r.qs[s.q].name, msg))
			}
			continue
		}
		rep.add(r, s)
		passBytes[s.client][s.pass] += r.total * int64(r.scans[s.q])
		byQuery[r.qs[s.q].name] = append(byQuery[r.qs[s.q].name], s.lat.Seconds())
	}
	out.Info.QueryP50 = map[string]float64{}
	for name, lats := range byQuery {
		out.Info.QueryP50[name] = median(lats)
	}
	if len(lr.violations) > 0 {
		// A run-level invariant (goroutines, spill dir) charges one query.
		if res.Attempted == res.Failed {
			res.Attempted++
		}
		res.Failed++
		errs = append(errs, lr.violations...)
	}
	out.Info.Errors = errs
	if res.Attempted > 0 {
		out.Info.ErrorRate = float64(res.Failed) / float64(res.Attempted)
	}
	out.Info.Samples = len(rep.latencies)
	if len(rep.latencies) <= tailBeyond {
		return nil, fmt.Errorf("%s: %d queries completed; the tail needs more than %d", w.name, len(rep.latencies), tailBeyond)
	}
	rep.finish(r)

	res.Metrics = map[string]metric{}
	if cfg.traced {
		overhead, err := r.overheadRatio()
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		tr.queries(r, lr.samples)
		layers, err := r.layerPasses(tr)
		if err != nil {
			return nil, err
		}
		for k, v := range layers {
			res.Metrics[k] = v
		}
		rep.perLayer(res.Metrics, overhead)
		if cfg.traceOut != "" {
			if err := tr.write(cfg.traceOut, w.name, cfg.seed); err != nil {
				return nil, err
			}
			out.Info.TraceFile = cfg.traceOut
		}
	} else {
		tail, pct := tailLatency(rep.latencies)
		out.Info.TailPercentile = pct
		res.Metrics["setup_s"] = metric{median(setup), "s"}
		// Each client's covered MiB per second is the median over its
		// passes, so a burst of outside load in part of the run moves it no
		// more than it moves the median latency; the clients' rates add up.
		var mibPerS float64
		for c, ps := range lr.passes {
			var rates []float64
			for p, sp := range ps {
				rates = append(rates, float64(passBytes[c][p])/(1<<20)/sp.end.Sub(sp.start).Seconds())
			}
			mibPerS += median(rates)
		}
		res.Metrics["input_mb_per_s"] = metric{mibPerS, "MiB/s"}
		res.Metrics["latency_p50_s"] = metric{median(rep.latencies), "s"}
		res.Metrics["latency_tail_s"] = metric{tail, "s"}
		res.Metrics["peak_mem_mb"] = metric{float64(rep.peakMemory) / (1 << 20), "MiB"}
		res.Metrics["alloc_bytes_per_input_byte"] = metric{float64(lr.allocBytes) / float64(rep.coveredBytes), "ratio"}
	}
	res.Correct = res.Failed == 0
	if err := w.check(rep); err != nil {
		res.Correct = false
		out.Info.Failure = fmt.Sprintf("self-check: %v", err)
	} else if res.Failed > 0 {
		out.Info.Failure = fmt.Sprintf("%d of %d queries failed", res.Failed, res.Attempted)
	}
	return out, nil
}

// setup creates the engine state the timed loop starts from, several times
// over, and returns each repetition's seconds. Only system work is timed:
// engine creation, mounts, the index build and the priming pass.
func (r *runner) setup(rep *runReport) ([]float64, error) {
	if !r.w.indexed {
		// Engine creation and a mount take about a microsecond: time single
		// ones after a warm-up, which brings the heap and caches to a
		// steady state, and report their median.
		const warmup, reps = 20000, 5001
		for i := 0; i < warmup; i++ {
			r.eng = r.newEngine(r.opts)
		}
		runtime.GC()
		times := make([]float64, reps)
		for i := range times {
			t0 := time.Now()
			r.eng = r.newEngine(r.opts)
			times[i] = time.Since(t0).Seconds()
		}
		return times, nil
	}
	const reps = 5
	var times []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		builder := r.newEngine(r.opts)
		if err := builder.BuildIndexes("/sensors", bench.DatePathExpr); err != nil {
			return nil, fmt.Errorf("build index: %w", err)
		}
		rep.buildS = append(rep.buildS, time.Since(t0).Seconds())
		r.eng = r.newEngine(r.opts)
		primed, err := r.prime(r.eng)
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		for qi, res := range primed {
			if msg := r.verify(sample{q: qi, res: res}); msg != "" {
				return nil, fmt.Errorf("priming %s: %s", r.qs[qi].name, msg)
			}
		}
		rep.builderWrites = builder.CacheStats().SidecarWrites
	}
	return times, nil
}

// prime runs every query text once on e.
func (r *runner) prime(e *vxq.Engine) ([]*vxq.Result, error) {
	var out []*vxq.Result
	for _, q := range r.qs {
		res, err := e.Query(q.text)
		if err != nil {
			return nil, fmt.Errorf("priming %s: %w", q.name, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// runQuery runs query qi on e; a traced run first times Engine.Explain,
// the compile call, as its own span.
func (r *runner) runQuery(e *vxq.Engine, qi int, traced bool) sample {
	s := sample{q: qi}
	if traced {
		t := time.Now()
		if _, _, _, err := e.Explain(r.qs[qi].text); err != nil {
			s.err = err
			return s
		}
		s.compile = time.Since(t)
	}
	s.start = time.Now()
	s.res, s.err = e.Query(r.qs[qi].text)
	s.lat = time.Since(s.start)
	return s
}

// interval is one client's pass over the workload's queries.
type interval struct{ start, end time.Time }

// loopResult is what the timed loop observed.
type loopResult struct {
	samples    []sample
	passes     [][]interval // per client
	allocBytes uint64       // Go heap bytes allocated during the loop
	violations []string     // run-level invariant violations
}

// loop is the timed closed loop. Each client runs whole passes, each a
// seeded permutation of the workload's queries, until the deadline.
func (r *runner) loop() loopResult {
	if !r.w.freshEngine {
		cs := r.eng.CacheStats()
		r.planBase = cs.PlanHits + cs.PlanMisses
		r.planHitBase = cs.PlanHits
	}
	runtime.GC()
	baseline := runtime.NumGoroutine()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	deadline := time.Now().Add(time.Duration(r.cfg.seconds * float64(time.Second)))
	per := make([][]sample, r.w.clients)
	passes := make([][]interval, r.w.clients)
	var wg sync.WaitGroup
	for c := 0; c < r.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(r.cfg.seed*7919 + int64(c) + 1))
			for time.Now().Before(deadline) {
				pass := interval{start: time.Now()}
				for _, qi := range rng.Perm(len(r.qs)) {
					e := r.eng
					if r.w.freshEngine {
						e = r.newEngine(r.opts)
					}
					s := r.runQuery(e, qi, r.cfg.traced)
					s.client, s.pass = c, len(passes[c])
					if r.w.freshEngine {
						s.cache = e.CacheStats()
					}
					if r.w.clients == 1 {
						// The client's own goroutine is the one above baseline.
						s.violations = r.invariants(baseline + 1)
					}
					per[c] = append(per[c], s)
				}
				pass.end = time.Now()
				passes[c] = append(passes[c], pass)
			}
		}(c)
	}
	wg.Wait()
	runtime.ReadMemStats(&m1)
	lr := loopResult{passes: passes, allocBytes: m1.TotalAlloc - m0.TotalAlloc, violations: r.invariants(baseline)}
	for _, p := range per {
		lr.samples = append(lr.samples, p...)
	}
	return lr
}

// invariants checks from outside the program what must hold after every
// query: the spill directory is empty, no goroutine outlives the query, and
// (on workloads that build no index) nothing was written next to the data.
func (r *runner) invariants(goroutines int) []string {
	var v []string
	if ents, err := os.ReadDir(r.spillDir); err != nil || len(ents) != 0 {
		v = append(v, fmt.Sprintf("spill dir holds %d entries (%v)", len(ents), err))
	}
	n := runtime.NumGoroutine()
	for wait := 0; n > goroutines && wait < 200; wait++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > goroutines {
		v = append(v, fmt.Sprintf("%d goroutines, baseline %d", n, goroutines))
	}
	if !r.w.indexed {
		ents, err := os.ReadDir(r.dataDir)
		if err != nil {
			v = append(v, err.Error())
		}
		for _, e := range ents {
			if !r.names[e.Name()] {
				v = append(v, fmt.Sprintf("unexpected file %s in the data dir", e.Name()))
			}
		}
	}
	return v
}

// verify returns "" when the sample succeeded with the expected answer and
// no invariant violation, else what went wrong.
func (r *runner) verify(s sample) string {
	if s.err != nil {
		return s.err.Error()
	}
	if len(s.violations) > 0 {
		return strings.Join(s.violations, "; ")
	}
	got := make([]string, len(s.res.Items))
	for i, it := range s.res.Items {
		c, err := canonicalText(vxq.JSON(it))
		if err != nil {
			return fmt.Sprintf("result item %d is not JSON: %v", i, err)
		}
		got[i] = c
	}
	if err := r.want[s.q].matches(got); err != nil {
		return "wrong answer: " + err.Error()
	}
	return ""
}

// add folds one correct sample into the report.
func (rep *runReport) add(r *runner, s sample) {
	rep.ok++
	st := s.res.Stats
	rep.latencies = append(rep.latencies, s.lat.Seconds())
	rep.coveredBytes += r.total * int64(r.scans[s.q])
	rep.bytesRead += st.BytesRead
	rep.filesSkipped += st.FilesSkipped
	rep.morselsSkipped += st.MorselsSkipped
	rep.coldIndexBuilds += st.ColdIndexBuilds
	rep.spilledBytes += st.SpilledBytes
	rep.spillPartitions += st.SpillPartitions
	rep.spillWaves += st.SpillWaves
	if st.SpillPartitions == 0 {
		rep.unspilledQueries++
	}
	rep.tuplesProduced += st.TuplesProduced
	rep.tuplesShuffled += st.TuplesShuffled
	rep.bytesShuffled += st.BytesShuffled
	rep.compileNS += s.compile.Nanoseconds()
	if s.res.PeakMemory > rep.peakMemory {
		rep.peakMemory = s.res.PeakMemory
	}
	if r.w.freshEngine {
		rep.cache.SidecarLoads += s.cache.SidecarLoads
		rep.cache.SidecarMisses += s.cache.SidecarMisses
		rep.cache.SidecarWrites += s.cache.SidecarWrites
		rep.planHits += s.cache.PlanHits
		rep.planLookups += s.cache.PlanHits + s.cache.PlanMisses
	}
	if p := s.res.Profile; p != nil {
		for _, sp := range p.Spans {
			rep.selfNS[opCategory(sp.Kind)] += sp.SelfNS
			rep.morsels += sp.Morsels
			rep.steals += sp.MorselSteals
			rep.collisions += sp.HashCollisions
			if sp.MemPeak > rep.opMemPeak {
				rep.opMemPeak = sp.MemPeak
			}
		}
	}
}

// finish derives the ratios the self-checks read.
func (rep *runReport) finish(r *runner) {
	if !r.w.freshEngine {
		cs := r.eng.CacheStats()
		rep.cache = cs
		rep.planHits = cs.PlanHits - r.planHitBase
		rep.planLookups = cs.PlanHits + cs.PlanMisses - r.planBase
	}
	if rep.coveredBytes > 0 {
		rep.bytesReadRatio = float64(rep.bytesRead) / float64(rep.coveredBytes)
	}
	// Under the pipelined executor a receive's self time is the time it
	// blocked on its input channels: waiting, not work.
	var busy int64
	for k, ns := range rep.selfNS {
		if k != "receive" {
			busy += ns
		}
	}
	if busy > 0 {
		rep.scanShare = float64(rep.selfNS["scan"]) / float64(busy)
		rep.scanEvalShare = float64(rep.selfNS["scan"]+rep.selfNS["select"]+rep.selfNS["assign"]) / float64(busy)
	}
}

// opCategory maps a profile span kind to its self-time bucket. Exchange
// sinks and receives stay apart so busy time can leave out the receives'
// waiting; hyracks.exchange_self_s reports both.
func opCategory(kind string) string {
	switch kind {
	case "scan", "select", "assign", "join", "sort":
		return kind
	case "group-by":
		return "groupby"
	case "exchange", "receive":
		return kind
	default:
		return "other"
	}
}

func listFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		files = append(files, filepath.Join(dir, e.Name()))
	}
	sort.Strings(files)
	return files, nil
}
