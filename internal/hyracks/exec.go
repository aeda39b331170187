package hyracks

import (
	"fmt"
	"io"
	"sort"
	"time"

	"vxq/internal/frame"
	"vxq/internal/item"
	"vxq/internal/jsonparse"
	"vxq/internal/runtime"
)

// Env configures a job execution.
type Env struct {
	Source    runtime.Source
	FrameSize int
	// Accountant is charged every byte the run holds (a private one per
	// run when nil); Result.PeakMemory reports its high-water mark.
	Accountant *frame.Accountant
	// ChunkSize is the refill-buffer size of streaming scans
	// (jsonparse.DefaultChunkSize when <= 0).
	ChunkSize int
	// Indexes provides zone-map lookups for DATASCAN file pruning (may be
	// nil).
	Indexes runtime.IndexLookup
	// MorselSize is the byte-range granularity of morsel-driven scans
	// (DefaultMorselSize when <= 0): raw-JSON files larger than this are
	// split into independently schedulable byte ranges.
	MorselSize int64
	// EagerReference runs the job with TaskCtx.EagerDecode set: operators use
	// their decoded-sequence reference implementations instead of the lazy
	// encoded-domain paths. Differential tests compare both modes; benchmarks
	// use it as the baseline.
	EagerReference bool
	// Profile collects per-operator metrics (Result.Profile): every stage
	// boundary is wrapped with timing and flow counters, gathered per task
	// and merged once at job end. Off by default — an unprofiled run builds
	// exactly the unwrapped chain and pays nothing.
	Profile bool
	// OpMemoryBudget bounds the bytes any one blocking operator instance
	// (group-by, join build, sort) may hold before it goes out of core:
	// group-by and join grace-hash-partition to disk, sort switches to
	// external merge. 0 (the default) never spills. Eager reference mode
	// never spills either — it stays the pure in-memory baseline.
	OpMemoryBudget int64
	// SpillDir is where spill files are created (the OS temp dir when empty).
	// All spill files are removed when the operator finishes — success,
	// error, or cancellation.
	SpillDir string
}

// buildScanQueues prepares one morsel queue per scan fragment (pruning
// zone-map-excluded files and morsels as a side effect) so every task of a
// fragment drains the same queue. It returns the queues and the merged
// pruning counters.
func buildScanQueues(job *Job, env *Env, shared bool) (map[int]*morselQueue, queueStats, error) {
	var (
		queues map[int]*morselQueue
		qs     queueStats
	)
	for _, f := range job.Fragments {
		s, ok := f.Source.(ScanSource)
		if !ok {
			continue
		}
		q, sk, err := buildMorselQueue(env.Source, s, env.Indexes, f.Partitions, env.MorselSize, shared)
		if err != nil {
			return nil, queueStats{}, err
		}
		if queues == nil {
			queues = make(map[int]*morselQueue)
		}
		queues[f.ID] = q
		qs.add(sk)
	}
	return queues, qs, nil
}

// TaskTime records the measured wall-clock work of one fragment-partition
// task. The sequential schedule (RunStaged) produces clean single-threaded
// measurements that the virtual-time scheduler consumes.
type TaskTime struct {
	Fragment  int
	Partition int
	Elapsed   time.Duration
	// Morsels is the number of scan morsels this task processed (0 for
	// non-scan fragments). Under the shared queue it shows how work-stealing
	// balanced a skewed file set; under the static deal it shows the
	// deterministic per-partition split.
	Morsels int
	// Steals is how many of those morsels were taken off another partition's
	// static share (always 0 under the sequential schedule's round-robin
	// deal).
	Steals int
}

// Result is the outcome of a job execution.
type Result struct {
	// Rows are the collector's tuples, one []item.Sequence per tuple.
	Rows [][]item.Sequence
	// Tasks are the per-fragment-partition work measurements.
	Tasks []TaskTime
	// Stats are the merged execution statistics.
	Stats runtime.Stats
	// PeakMemory is the accountant's high-water mark in bytes.
	PeakMemory int64
	// Profile is the per-operator profile tree and span list (nil unless
	// Env.Profile was set).
	Profile *Profile
}

// SortRows orders the result canonically (for deterministic comparison
// across schedules and partition counts).
func (r *Result) SortRows() {
	sortRows(r.Rows)
}

func sortRows(rows [][]item.Sequence) {
	// Stable, like sortOp: rows that compare equal on every position keep
	// their relative order, so repeated canonicalizations agree bytewise.
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		n := min(len(a), len(b))
		for k := 0; k < n; k++ {
			if c := item.CompareSeq(a[k], b[k]); c != 0 {
				return c < 0
			}
		}
		return len(a) < len(b)
	})
}

// --- task plumbing shared by both schedules --------------------------------

// frameDest receives the frames routed to one consumer partition.
type frameDest interface {
	send(fr *frame.Frame) error
}

// destWriter adapts a frameDest to the Writer interface. When it belongs to
// an exchange it counts the re-framed ("rebuilt") output flowing through it.
type destWriter struct {
	d  frameDest
	ew *exchangeWriter
}

func (w destWriter) Open() error { return nil }
func (w destWriter) Push(fr *frame.Frame) error {
	if w.ew != nil {
		w.ew.rebuilt++
		w.ew.tuplesOut += int64(fr.TupleCount())
		w.ew.bytesOut += int64(fr.Size())
	}
	return w.d.send(fr)
}
func (w destWriter) Close() error { return nil }

// exchangeWriter is the sink side of an exchange: it routes tuples to
// consumer partitions according to the exchange kind. Hash exchanges route
// per tuple, hashing the encoded key bytes directly (no field decode) unless
// EagerDecode asks for the decoded reference path. Merge and 1:1 exchanges
// route the entire input frame to a single destination, so they forward the
// frame itself — ownership passes to the receiver and no tuple is re-framed.
type exchangeWriter struct {
	ctx      *TaskCtx
	exch     *Exchange
	dests    []frameDest
	builders []*frameBuilder
	keys     *keyEncoder

	// Profile counters (a handful of adds per frame; see profExtras).
	forwarded int64 // whole frames handed to a destination untouched
	rebuilt   int64 // frames re-framed tuple by tuple through the builders
	tuplesOut int64
	bytesOut  int64
}

func newExchangeWriter(ctx *TaskCtx, exch *Exchange, dests []frameDest) *exchangeWriter {
	return &exchangeWriter{ctx: ctx, exch: exch, dests: dests}
}

func (w *exchangeWriter) Open() error {
	if w.exch.Kind == ExchangeHash {
		// Only hash exchanges re-frame tuples; merge and 1:1 forward whole
		// frames and need no builders.
		w.builders = make([]*frameBuilder, len(w.dests))
		for i, d := range w.dests {
			w.builders[i] = newFrameBuilder(w.ctx, destWriter{d: d, ew: w})
		}
		if !w.ctx.EagerDecode {
			w.keys = newKeyEncoder(w.exch.Keys)
		}
	}
	return nil
}

func (w *exchangeWriter) Push(fr *frame.Frame) error {
	if w.exch.Kind != ExchangeHash {
		// Whole-frame forwarding: account the shuffle stats for the frame's
		// tuples, then hand the frame itself to the one destination.
		if fr.TupleCount() == 0 {
			w.ctx.recycle(fr)
			return nil
		}
		p, err := w.route(nil)
		if err != nil {
			w.ctx.recycle(fr)
			return err
		}
		if st := w.ctx.RT.Stats; st != nil {
			st.TuplesShuffled += int64(fr.TupleCount())
			sz, err := fr.FieldsSize()
			if err != nil {
				w.ctx.recycle(fr)
				return err
			}
			st.BytesShuffled += sz
		}
		w.forwarded++
		w.tuplesOut += int64(fr.TupleCount())
		w.bytesOut += int64(fr.Size())
		return w.dests[p].send(fr)
	}
	defer w.ctx.recycle(fr)
	if w.ctx.EagerDecode {
		return forEachTuple(fr, func(fields []item.Sequence, raw [][]byte) error {
			p, err := w.route(fields)
			if err != nil {
				return err
			}
			return w.ship(p, raw)
		})
	}
	n := uint64(len(w.dests))
	return forEachTupleView(fr, false, func(lt *frame.LazyTuple) error {
		_, h, err := w.keys.resolve(w.ctx, lt)
		if err != nil {
			return err
		}
		return w.ship(int(h%n), lt.Raw())
	})
}

func (w *exchangeWriter) ship(p int, raw [][]byte) error {
	if st := w.ctx.RT.Stats; st != nil {
		st.TuplesShuffled++
		st.BytesShuffled += int64(tupleBytes(raw))
	}
	return w.builders[p].emit(raw)
}

func (w *exchangeWriter) route(fields []item.Sequence) (int, error) {
	n := len(w.dests)
	switch w.exch.Kind {
	case ExchangeMerge:
		return 0, nil
	case ExchangeOneToOne:
		if w.ctx.Partition >= n {
			return 0, fmt.Errorf("hyracks: 1:1 exchange with mismatched partition counts")
		}
		return w.ctx.Partition, nil
	case ExchangeHash:
		var h uint64 = 1469598103934665603
		for _, k := range w.exch.Keys {
			v, err := k.Eval(w.ctx.RT, runtime.SeqTuple(fields))
			if err != nil {
				return 0, err
			}
			h = h*1099511628211 ^ item.HashSeq(v)
		}
		return int(h % uint64(n)), nil
	default:
		return 0, fmt.Errorf("hyracks: unknown exchange kind %v", w.exch.Kind)
	}
}

func (w *exchangeWriter) Close() error {
	// Flush every builder even after a failure (first error wins): the
	// remaining frames must reach their destinations or be recycled there,
	// not sit forgotten in the builders.
	var err error
	for _, b := range w.builders {
		if ferr := b.flush(); err == nil {
			err = ferr
		}
	}
	return err
}

// profExtras implements opStatser: the exchange's forwarded-vs-rebuilt frame
// split and its outbound flow.
func (w *exchangeWriter) profExtras(x *opExtras) {
	x.framesForwarded = w.forwarded
	x.framesRebuilt = w.rebuilt
	x.framesOut = w.forwarded + w.rebuilt
	x.tuplesOut = w.tuplesOut
	x.bytesOut = w.bytesOut
}

// runSource drives a fragment's source, pushing its tuples through w
// (already the head of the operator chain); exchange-fed fragments receive
// their partition's frames from tr.
func runSource(ctx *TaskCtx, f *Fragment, w Writer, tr transport) error {
	if err := w.Open(); err != nil {
		// Operators downstream of the failure point may have opened and
		// charged memory; Close releases it (builders are nil-safe).
		_ = w.Close()
		return err
	}
	if err := feedSource(ctx, f, w, tr); err != nil {
		// Best-effort close after failure; report the original error.
		_ = w.Close()
		return err
	}
	return w.Close()
}

func feedSource(ctx *TaskCtx, f *Fragment, w Writer, tr transport) error {
	switch s := f.Source.(type) {
	case ETSSource:
		fr := ctx.newFrame()
		fr.AppendTuple(nil)
		return w.Push(fr)
	case ScanSource:
		return runScan(ctx, s, w)
	case ExchangeSource:
		return tr.recv(s.Exchange, ctx.Partition, w.Push)
	case JoinSource:
		j := newJoiner(ctx, s.Spec)
		defer j.release()
		if err := tr.recv(s.Build, ctx.Partition, j.build); err != nil {
			return err
		}
		if err := j.finishBuild(); err != nil {
			return err
		}
		b := newFrameBuilder(ctx, w)
		if err := tr.recv(s.Probe, ctx.Partition, func(fr *frame.Frame) error {
			return j.probe(fr, b)
		}); err != nil {
			b.discard()
			return err
		}
		if err := j.finishProbe(b); err != nil {
			b.discard()
			return err
		}
		if err := b.flush(); err != nil {
			return err
		}
		if ctx.prof != nil {
			// The joiner is part of the source stage (it feeds the chain, it
			// is not a Writer in it); attach its counters to the source span
			// before release drops the arena.
			j.profExtras(&ctx.prof.stages[0].x)
		}
		return nil
	default:
		return fmt.Errorf("hyracks: unknown source %T", f.Source)
	}
}

// runScan drains the fragment's morsel queue and emits one single-field
// tuple per projected item. Raw JSON morsels stream through a fixed chunk
// buffer (charged to the accountant) and each projected value is transcoded
// from lexer tokens straight into its encoded field, so scan memory is
// O(chunk + emitted item), independent of the file size, and no item tree
// is built. The queue is the one the executor built for the fragment
// before any task started (buildScanQueues).
func runScan(ctx *TaskCtx, s ScanSource, w Writer) error {
	q := ctx.morsels
	sc := &scanState{ctx: ctx, b: newFrameBuilder(ctx, w), field: make([][]byte, 1)}
	for {
		m, stolen, ok := q.take(ctx.Partition)
		if !ok {
			break
		}
		ctx.MorselsScanned++
		if stolen {
			ctx.MorselsStolen++
		}
		if err := scanMorsel(ctx, sc, s, m); err != nil {
			sc.b.discard()
			return m.wrap(err)
		}
	}
	return sc.b.flush()
}

// scanState is the per-task scratch of a scan: the lexer (with its chunk and
// token buffers), the transcoder and its encode buffer, and the one-field
// tuple slice are all reused across every morsel and every emitted item, so
// the steady-state emit path allocates nothing beyond what the frame builder
// copies in.
type scanState struct {
	ctx   *TaskCtx
	b     *frameBuilder
	lx    *jsonparse.Lexer
	tc    jsonparse.Transcoder
	enc   []byte   // encode buffer of the ADM path
	field [][]byte // len 1, the field being emitted
}

// emit appends one projected item, already in the encoded one-item sequence
// form, to the current frame (which copies the bytes, so the caller's buffer
// is free again). The accountant is charged the encoded bytes held meanwhile.
func (sc *scanState) emit(seq []byte) error {
	if st := sc.ctx.RT.Stats; st != nil {
		st.TuplesProduced++
	}
	n := int64(len(seq))
	sc.ctx.accountHold(n)
	sc.field[0] = seq
	err := sc.b.emit(sc.field)
	sc.field[0] = nil
	sc.ctx.releaseHold(n)
	return err
}

// emitItem encodes an item (the ADM path, which decodes whole documents)
// and emits it.
func (sc *scanState) emitItem(it item.Item) error {
	sc.enc = item.Encode(append(sc.enc[:0], 1), it)
	return sc.emit(sc.enc)
}

// scanMorsel streams one morsel's records into the frame builder. Errors are
// wrapped with the morsel's location by the caller.
func scanMorsel(ctx *TaskCtx, sc *scanState, s ScanSource, m morsel) error {
	if s.Format == FormatADM {
		return scanADM(ctx, sc, s, m)
	}
	src := ctx.RT.Source
	st := ctx.RT.Stats
	var (
		rc   io.ReadCloser
		base int64
		err  error
	)
	if m.start > 0 {
		ro, ok := src.(runtime.RangeOpener)
		if !ok {
			return fmt.Errorf("source cannot open byte ranges")
		}
		// Open one byte early: if the byte at start-1 is the separating
		// newline, the first record of this morsel starts exactly at start.
		base = m.start - 1
		rc, err = ro.OpenRange(m.file, base)
	} else {
		rc, err = src.Open(m.file)
	}
	if err != nil {
		return err
	}
	if st != nil && m.countsFile {
		st.FilesRead++
	}
	chunk := ctx.RT.ScanChunkSize()
	cr := &runtime.CountingReader{R: rc}
	if sc.lx == nil {
		sc.lx = jsonparse.NewStreamLexerAt(cr, chunk, base)
	} else {
		sc.lx.ResetStream(cr, base)
	}
	release := ctx.account(int64(chunk))
	err = scanMorselRecords(sc, s, m)
	release()
	if st != nil {
		st.BytesRead += cr.N
	}
	if cerr := rc.Close(); err == nil {
		err = cerr
	}
	return err
}

func scanMorselRecords(sc *scanState, s ScanSource, m morsel) error {
	if !m.first {
		// Align to the first record boundary at or after m.start: skip past
		// the next newline. No newline left means no record starts here.
		ok, err := sc.lx.SkipPastNewline()
		if err != nil || !ok {
			return err
		}
	}
	limit := m.end
	if m.wholeFile() {
		limit = -1
	}
	_, err := sc.tc.ScanEncoded(sc.lx, s.Project, limit, sc.emit)
	return err
}

// scanADM streams one binary pre-converted document through a chunked
// decoder: the raw encoding is never materialized whole, only the decoded
// item tree is (whole-document materialization is inherent to the format —
// the AsterixDB behaviour the paper attributes the performance gap to — but
// the former whole-file read buffer is gone). ADM files are never split, so
// the morsel always covers the whole file.
func scanADM(ctx *TaskCtx, sc *scanState, s ScanSource, m morsel) error {
	rc, err := ctx.RT.Source.Open(m.file)
	if err != nil {
		return err
	}
	defer rc.Close()
	if st := ctx.RT.Stats; st != nil {
		st.FilesRead++
	}
	chunk := ctx.RT.ScanChunkSize()
	// Small pre-converted documents are common (record-granular ADM); cap the
	// decode buffer at the file size plus the trailing-bytes probe so a tiny
	// file does not pay (or account) a full chunk.
	if szr, ok := ctx.RT.Source.(runtime.Sizer); ok {
		if sz, serr := szr.Size(m.file); serr == nil && sz+1 < int64(chunk) {
			chunk = int(sz) + 1
		}
	}
	cr := &runtime.CountingReader{R: rc}
	release := ctx.account(int64(chunk))
	dec, doc, err := item.DecodeReader(cr, chunk)
	if err == nil {
		var trailing bool
		if trailing, err = dec.TrailingByte(); err == nil && trailing {
			err = fmt.Errorf("trailing bytes after ADM document (offset %d)", dec.Consumed())
		}
	}
	release()
	if st := ctx.RT.Stats; st != nil {
		st.BytesRead += cr.N
	}
	if err != nil {
		return err
	}
	releaseDoc := ctx.account(item.SizeBytes(doc))
	defer releaseDoc()
	for _, it := range jsonparse.ApplyPath(doc, s.Project) {
		if err := sc.emitItem(it); err != nil {
			return err
		}
	}
	return nil
}
