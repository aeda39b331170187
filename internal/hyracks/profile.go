package hyracks

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"vxq/internal/frame"
)

// This file implements the query profiler: EXPLAIN ANALYZE-style per-operator
// metrics collected on both schedules of the executor.
//
// Collection works by boundary wrapping. When Env.Profile is set, each task
// builds its operator chain through buildTaskChain, which inserts a profWriter
// between every pair of adjacent stages (source | op 1 | ... | op n | sink).
// The wrapper at stage k times the *inclusive* cost of stage k and everything
// downstream of it — Push(k) returns only after the frame has flowed through
// the rest of the chain — and counts the frames, tuples, and bytes entering
// the stage. Exclusive ("self") time falls out at merge by telescoping:
//
//	self(k)      = inclusive(k) - inclusive(k+1)        for k >= 1
//	self(source) = task elapsed - inclusive(first stage)
//
// so the per-task self times sum to the task's elapsed time exactly (modulo
// clamping of sub-microsecond timer jitter to zero). On the sequential
// schedule, where tasks run one at a time, the self times over all spans
// therefore sum to the measured job wall time minus only the executor's own
// setup; on the concurrent schedule a source's self time additionally
// includes the time the task spent blocked on its input channels, which is
// exactly what a flame graph of a pipelined run should show.
//
// Each task accumulates into its own taskProf — per-worker state, no sharing —
// and the executor merges all tasks into one Profile after every task has
// finished. Operators that keep interesting internal counters (hash-table
// collision chains, arena reservations, held-memory high-water, forwarded vs
// rebuilt exchange frames) expose them through the optional opStatser
// interface, read once at Close.

// OpMetrics is the structured per-operator-instance measurement of one span
// (one operator on one partition), and, summed, of one profile-tree node.
// Byte counts are framed bytes (frame.Frame.Size), not decoded field bytes.
type OpMetrics struct {
	// PushNS is the inclusive time spent in Push: this stage and everything
	// downstream of it. OpenCloseNS is the inclusive time of Open plus Close
	// (a blocking operator like sort or group-by does its real work in
	// Close). SelfNS is the exclusive time attributed to this stage alone.
	PushNS      int64 `json:"push_ns"`
	OpenCloseNS int64 `json:"open_close_ns"`
	SelfNS      int64 `json:"self_ns"`

	FramesIn int64 `json:"frames_in"`
	TuplesIn int64 `json:"tuples_in"`
	BytesIn  int64 `json:"bytes_in"`

	FramesOut int64 `json:"frames_out"`
	TuplesOut int64 `json:"tuples_out"`
	BytesOut  int64 `json:"bytes_out"`

	// Exchange sinks: frames handed to a destination untouched vs re-framed
	// tuple by tuple (hash routing).
	FramesForwarded int64 `json:"frames_forwarded"`
	FramesRebuilt   int64 `json:"frames_rebuilt"`

	// Keyed operators (group-by, join, sort): held-memory high-water as
	// charged to the accountant, hash-chain collision count (a chain entry
	// compared and not matched), and bytes reserved by the key arena.
	MemPeak        int64 `json:"mem_peak"`
	HashCollisions int64 `json:"hash_collisions"`
	ArenaBytes     int64 `json:"arena_bytes"`

	// Out-of-core operators (group-by, join, sort): bytes written to spill
	// files, partition files (or sort runs) produced, and grace-hash waves
	// (or sort-run flushes) taken.
	SpilledBytes    int64 `json:"spilled_bytes"`
	SpillPartitions int64 `json:"spill_partitions"`
	SpillWaves      int64 `json:"spill_waves"`

	// Scan sources: morsels processed, how many of those were steals
	// (taken off the static round-robin deal by a faster partition), and how
	// many the queue build pruned via per-zone zone-map stats before they
	// were ever scheduled.
	Morsels        int64 `json:"morsels"`
	MorselSteals   int64 `json:"morsel_steals"`
	MorselsSkipped int64 `json:"morsels_skipped"`
}

func (m *OpMetrics) add(o *OpMetrics) {
	m.PushNS += o.PushNS
	m.OpenCloseNS += o.OpenCloseNS
	m.SelfNS += o.SelfNS
	m.FramesIn += o.FramesIn
	m.TuplesIn += o.TuplesIn
	m.BytesIn += o.BytesIn
	m.FramesOut += o.FramesOut
	m.TuplesOut += o.TuplesOut
	m.BytesOut += o.BytesOut
	m.FramesForwarded += o.FramesForwarded
	m.FramesRebuilt += o.FramesRebuilt
	m.MemPeak += o.MemPeak
	m.HashCollisions += o.HashCollisions
	m.ArenaBytes += o.ArenaBytes
	m.SpilledBytes += o.SpilledBytes
	m.SpillPartitions += o.SpillPartitions
	m.SpillWaves += o.SpillWaves
	m.Morsels += o.Morsels
	m.MorselSteals += o.MorselSteals
	m.MorselsSkipped += o.MorselsSkipped
}

// Span is one operator-partition measurement, the flame-graph-friendly unit
// of the machine-readable trace: stage 0 is the fragment's source, rising
// stage numbers flow downstream, and the last stage is the fragment's sink
// (exchange or result collector). StartNS/EndNS are relative to job start.
type Span struct {
	Fragment  int    `json:"fragment"`
	Partition int    `json:"partition"`
	Stage     int    `json:"stage"`
	Name      string `json:"name"`
	Kind      string `json:"kind"`
	StartNS   int64  `json:"start_ns"`
	EndNS     int64  `json:"end_ns"`
	OpMetrics
}

// ProfileNode is one operator of the profile tree, which mirrors the
// compiled plan: within a fragment the chain runs sink → operators → source,
// and a source fed by exchanges has the producing fragments' trees as
// additional children (build side before probe side for joins). Metrics are
// summed over the fragment's partitions.
type ProfileNode struct {
	Fragment   int       `json:"fragment"`
	Stage      int       `json:"stage"`
	Name       string    `json:"name"`
	Kind       string    `json:"kind"`
	Partitions int       `json:"partitions"`
	Metrics    OpMetrics `json:"metrics"`

	Children []*ProfileNode `json:"children,omitempty"`
}

// Profile is the merged result of a profiled job execution.
type Profile struct {
	// WallNS is the measured wall-clock time of the whole job.
	WallNS int64 `json:"wall_ns"`
	// Root is the profile tree, rooted at the collector fragment's sink.
	Root *ProfileNode `json:"root"`
	// Spans are the raw per-operator-partition measurements.
	Spans []Span `json:"spans"`
}

// SelfSumNS reports the total exclusive time over all spans. On the
// sequential schedule it accounts for the job wall time minus executor setup
// (the acceptance bound: within 10% of WallNS on non-trivial jobs).
func (p *Profile) SelfSumNS() int64 {
	var n int64
	for i := range p.Spans {
		n += p.Spans[i].SelfNS
	}
	return n
}

// WriteTrace writes the machine-readable JSON trace: the whole profile,
// span per operator-partition, in the schema documented in DESIGN.md.
func (p *Profile) WriteTrace(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// --- collection ------------------------------------------------------------

// opExtras are the optional per-operator counters read once at Close.
type opExtras struct {
	memPeak        int64
	hashCollisions int64
	arenaBytes     int64

	spilledBytes    int64
	spillPartitions int64
	spillWaves      int64

	framesForwarded int64
	framesRebuilt   int64
	framesOut       int64
	tuplesOut       int64
	bytesOut        int64

	morsels        int64
	morselSteals   int64
	morselsSkipped int64
}

// opStatser is implemented by operators that keep internal counters worth
// surfacing in their span (group-by, sort, join, exchange). The profiling
// wrapper queries it after Close.
type opStatser interface{ profExtras(x *opExtras) }

// stageProf accumulates one stage of one task. It is written by exactly one
// goroutine (the task's own) and read only after the task finished.
type stageProf struct {
	name, kind string
	started    bool
	startNS    int64
	endNS      int64

	pushNS      int64
	openCloseNS int64
	framesIn    int64
	tuplesIn    int64
	bytesIn     int64

	x opExtras
}

// taskProf is the per-task profile accumulator: stage 0 is the source,
// stages 1..n the operators, stage n+1 the sink.
type taskProf struct {
	fragment  int
	partition int
	epoch     time.Time // job start; span times are relative to it
	startNS   int64
	taskNS    int64
	stages    []stageProf
}

// newTaskProf lays out the stage accumulators for one fragment-partition
// task, mirroring the chain buildTaskChain will build.
func newTaskProf(job *Job, f *Fragment, partition int, epoch time.Time) *taskProf {
	t := &taskProf{fragment: f.ID, partition: partition, epoch: epoch,
		stages: make([]stageProf, len(f.Ops)+2)}
	t.stages[0] = stageProf{name: f.Source.sourceName(), kind: sourceKind(f.Source)}
	for i, op := range f.Ops {
		t.stages[i+1] = stageProf{name: op.Name(), kind: opKind(op)}
	}
	sink := &t.stages[len(f.Ops)+1]
	if f.SinkExchange >= 0 {
		e := job.exchange(f.SinkExchange)
		sink.name = fmt.Sprintf("EXCHANGE exch#%d[%s]", e.ID, e.Kind)
		sink.kind = "exchange"
	} else {
		sink.name = "RESULT"
		sink.kind = "sink"
	}
	return t
}

// finish stamps the task's elapsed time and attributes the source-side
// counters that are collected on the TaskCtx rather than through a Writer.
func (t *taskProf) finish(ctx *TaskCtx, startNS, taskNS int64) {
	t.startNS = startNS
	t.taskNS = taskNS
	src := &t.stages[0]
	src.started = true
	src.startNS = startNS
	src.endNS = startNS + taskNS
	src.x.morsels = int64(ctx.MorselsScanned)
	src.x.morselSteals = int64(ctx.MorselsStolen)
	// The skipped count is a property of the fragment's shared queue, not of
	// any one task; attribute it to partition 0 so the merged profile counts
	// it exactly once.
	if ctx.morsels != nil && ctx.Partition == 0 {
		src.x.morselsSkipped = ctx.morsels.skipped
	}
}

func sourceKind(s SourceSpec) string {
	switch s.(type) {
	case ETSSource:
		return "ets"
	case ScanSource:
		return "scan"
	case ExchangeSource:
		return "receive"
	case JoinSource:
		return "join"
	default:
		return "source"
	}
}

func opKind(s OpSpec) string {
	switch s.(type) {
	case *AssignSpec:
		return "assign"
	case *SelectSpec:
		return "select"
	case *UnnestSpec:
		return "unnest"
	case *ProjectSpec:
		return "project"
	case *AggregateSpec:
		return "aggregate"
	case *GroupBySpec:
		return "group-by"
	case *SubplanSpec:
		return "subplan"
	case *SortSpec:
		return "sort"
	default:
		return "op"
	}
}

// profWriter wraps one stage boundary: it times the inclusive cost of its
// inner writer (the stage and everything downstream) and counts the input
// flow. It holds no shared state — one instance per stage per task.
type profWriter struct {
	inner Writer
	t     *taskProf
	idx   int
}

func (w *profWriter) Open() error {
	st := &w.t.stages[w.idx]
	t0 := time.Now()
	if !st.started {
		st.started = true
		st.startNS = t0.Sub(w.t.epoch).Nanoseconds()
	}
	err := w.inner.Open()
	st.openCloseNS += time.Since(t0).Nanoseconds()
	return err
}

func (w *profWriter) Push(fr *frame.Frame) error {
	st := &w.t.stages[w.idx]
	st.framesIn++
	st.tuplesIn += int64(fr.TupleCount())
	st.bytesIn += int64(fr.Size())
	t0 := time.Now()
	err := w.inner.Push(fr)
	st.pushNS += time.Since(t0).Nanoseconds()
	return err
}

func (w *profWriter) Close() error {
	t0 := time.Now()
	err := w.inner.Close()
	d := time.Since(t0).Nanoseconds()
	st := &w.t.stages[w.idx]
	st.openCloseNS += d
	st.endNS = t0.Sub(w.t.epoch).Nanoseconds() + d
	if os, ok := w.inner.(opStatser); ok {
		os.profExtras(&st.x)
	}
	return err
}

// buildTaskChain composes a fragment's operator chain over the terminal
// writer, inserting a profWriter at every stage boundary when the task is
// profiled. With profiling off it is exactly BuildChain — the wrappers do
// not exist and cost nothing.
func buildTaskChain(ctx *TaskCtx, f *Fragment, terminal Writer) Writer {
	if ctx.prof == nil {
		return BuildChain(ctx, f.Ops, terminal)
	}
	t := ctx.prof
	var w Writer = &profWriter{inner: terminal, t: t, idx: len(f.Ops) + 1}
	for i := len(f.Ops) - 1; i >= 0; i-- {
		w = &profWriter{inner: f.Ops[i].Build(ctx, w), t: t, idx: i + 1}
	}
	return w
}

// jobProf gathers the per-task accumulators. Tasks only append their own
// finished taskProf (under the mutex, as concurrent tasks finish); nothing is
// shared while a task runs.
type jobProf struct {
	epoch time.Time
	mu    sync.Mutex
	tasks []*taskProf
}

func (jp *jobProf) add(t *taskProf) {
	jp.mu.Lock()
	jp.tasks = append(jp.tasks, t)
	jp.mu.Unlock()
}

// --- merge -----------------------------------------------------------------

// buildProfile merges the finished task accumulators into spans and the
// plan-shaped tree.
func (jp *jobProf) buildProfile(job *Job, wallNS int64) *Profile {
	p := &Profile{WallNS: wallNS}
	// Per (fragment, stage) aggregation for the tree.
	type nodeKey struct{ fragment, stage int }
	nodes := make(map[nodeKey]*ProfileNode)
	for _, t := range jp.tasks {
		n := len(t.stages)
		// inclusive(k) per stage; inclusive(n) = 0 (past the sink).
		incl := func(k int) int64 {
			if k >= n {
				return 0
			}
			return t.stages[k].pushNS + t.stages[k].openCloseNS
		}
		for k := 0; k < n; k++ {
			st := &t.stages[k]
			var self int64
			if k == 0 {
				self = t.taskNS - incl(1)
			} else {
				self = incl(k) - incl(k+1)
			}
			if self < 0 {
				self = 0 // timer jitter; keeps every span non-negative
			}
			sp := Span{
				Fragment:  t.fragment,
				Partition: t.partition,
				Stage:     k,
				Name:      st.name,
				Kind:      st.kind,
				StartNS:   st.startNS,
				EndNS:     st.endNS,
			}
			sp.PushNS = st.pushNS
			sp.OpenCloseNS = st.openCloseNS
			if k == 0 {
				// The source stage is driven directly (no Writer boundary
				// above it): its cost is the whole task minus the chain.
				sp.PushNS = t.taskNS - incl(1)
				if sp.PushNS < 0 {
					sp.PushNS = 0
				}
			}
			sp.SelfNS = self
			sp.FramesIn = st.framesIn
			sp.TuplesIn = st.tuplesIn
			sp.BytesIn = st.bytesIn
			if k+1 < n {
				// A stage's output is the next stage's input.
				nx := &t.stages[k+1]
				sp.FramesOut = nx.framesIn
				sp.TuplesOut = nx.tuplesIn
				sp.BytesOut = nx.bytesIn
			} else if st.x.framesOut+st.x.tuplesOut+st.x.bytesOut > 0 {
				sp.FramesOut = st.x.framesOut
				sp.TuplesOut = st.x.tuplesOut
				sp.BytesOut = st.x.bytesOut
			} else {
				// Result sink: everything that came in was materialized.
				sp.FramesOut = st.framesIn
				sp.TuplesOut = st.tuplesIn
				sp.BytesOut = st.bytesIn
			}
			sp.FramesForwarded = st.x.framesForwarded
			sp.FramesRebuilt = st.x.framesRebuilt
			sp.MemPeak = st.x.memPeak
			sp.HashCollisions = st.x.hashCollisions
			sp.ArenaBytes = st.x.arenaBytes
			sp.SpilledBytes = st.x.spilledBytes
			sp.SpillPartitions = st.x.spillPartitions
			sp.SpillWaves = st.x.spillWaves
			sp.Morsels = st.x.morsels
			sp.MorselSteals = st.x.morselSteals
			sp.MorselsSkipped = st.x.morselsSkipped
			p.Spans = append(p.Spans, sp)

			key := nodeKey{t.fragment, k}
			node := nodes[key]
			if node == nil {
				node = &ProfileNode{Fragment: t.fragment, Stage: k, Name: st.name, Kind: st.kind}
				nodes[key] = node
			}
			node.Partitions++
			node.Metrics.add(&sp.OpMetrics)
		}
	}
	sort.Slice(p.Spans, func(i, j int) bool {
		a, b := p.Spans[i], p.Spans[j]
		if a.Fragment != b.Fragment {
			return a.Fragment < b.Fragment
		}
		if a.Partition != b.Partition {
			return a.Partition < b.Partition
		}
		return a.Stage > b.Stage // sink first, source last: downstream-up like the plan rendering
	})

	// Link each fragment's chain sink → ... → source, then attach producer
	// fragments under the sources they feed.
	tops := make(map[int]*ProfileNode) // fragment id -> sink node
	srcs := make(map[int]*ProfileNode) // fragment id -> source node
	byExchange := make(map[int][]*ProfileNode)
	for _, f := range job.Fragments {
		var top, prev *ProfileNode
		for k := len(f.Ops) + 1; k >= 0; k-- {
			node := nodes[nodeKey{f.ID, k}]
			if node == nil {
				continue
			}
			if prev == nil {
				top = node
			} else {
				prev.Children = append(prev.Children, node)
			}
			prev = node
		}
		if top == nil {
			continue
		}
		tops[f.ID] = top
		srcs[f.ID] = prev
		if f.SinkExchange >= 0 {
			byExchange[f.SinkExchange] = append(byExchange[f.SinkExchange], top)
		} else {
			p.Root = top
		}
	}
	for _, f := range job.Fragments {
		src := srcs[f.ID]
		if src == nil {
			continue
		}
		switch s := f.Source.(type) {
		case ExchangeSource:
			src.Children = append(src.Children, byExchange[s.Exchange]...)
		case JoinSource:
			src.Children = append(src.Children, byExchange[s.Build]...)
			src.Children = append(src.Children, byExchange[s.Probe]...)
		}
	}
	return p
}

// --- rendering -------------------------------------------------------------

func fmtNS(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	}
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// String pretty-prints the profile as the annotated plan: the tree mirrors
// the compiled job (Job.String's shape), each operator carrying its summed
// metrics. It is what `cmd/vxq -profile` shows.
func (p *Profile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "profile: wall %s, operator self-time %s (%.1f%% of wall)\n",
		fmtNS(p.WallNS), fmtNS(p.SelfSumNS()), 100*float64(p.SelfSumNS())/float64(max64(p.WallNS, 1)))
	if p.Root != nil {
		writeNode(&b, p.Root, 0)
	}
	return b.String()
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func writeNode(b *strings.Builder, n *ProfileNode, depth int) {
	m := &n.Metrics
	fmt.Fprintf(b, "%s%s (x%d)  self %s push %s open+close %s",
		strings.Repeat("  ", depth), n.Name, n.Partitions,
		fmtNS(m.SelfNS), fmtNS(m.PushNS), fmtNS(m.OpenCloseNS))
	if m.FramesIn > 0 {
		fmt.Fprintf(b, "  in %dt/%df/%s", m.TuplesIn, m.FramesIn, fmtBytes(m.BytesIn))
	}
	if m.FramesOut > 0 {
		fmt.Fprintf(b, "  out %dt/%df/%s", m.TuplesOut, m.FramesOut, fmtBytes(m.BytesOut))
	}
	if m.FramesForwarded > 0 || m.FramesRebuilt > 0 {
		fmt.Fprintf(b, "  fwd %d rebuilt %d", m.FramesForwarded, m.FramesRebuilt)
	}
	if m.MemPeak > 0 {
		fmt.Fprintf(b, "  mem %s", fmtBytes(m.MemPeak))
	}
	if m.ArenaBytes > 0 {
		fmt.Fprintf(b, "  arena %s", fmtBytes(m.ArenaBytes))
	}
	if m.HashCollisions > 0 {
		fmt.Fprintf(b, "  collisions %d", m.HashCollisions)
	}
	if m.SpilledBytes > 0 {
		fmt.Fprintf(b, "  spilled %s (%d parts, %d waves)", fmtBytes(m.SpilledBytes), m.SpillPartitions, m.SpillWaves)
	}
	if m.Morsels > 0 || m.MorselsSkipped > 0 {
		fmt.Fprintf(b, "  morsels %d (%d stolen, %d skipped)", m.Morsels, m.MorselSteals, m.MorselsSkipped)
	}
	b.WriteString("\n")
	for _, c := range n.Children {
		writeNode(b, c, depth+1)
	}
}
