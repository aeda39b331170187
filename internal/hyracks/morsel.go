package hyracks

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"

	"vxq/internal/jsonparse"
	"vxq/internal/runtime"
)

// DefaultMorselSize is the default byte-range granularity of morsel-driven
// scans: files larger than this are split into independently schedulable
// byte ranges, so one oversized file no longer serializes onto a single
// partition (the skew problem of static file striding).
const DefaultMorselSize int64 = 4 << 20

// DefaultColdIndexMinBytes is the file size at which a cold scan — a
// raw-JSON file with no recorded record-boundary index — runs the
// speculative parallel indexer at queue-build time to compute exact splits
// before cutting morsels. Below it the probe-and-realign fallback is cheap
// enough that the extra phase-1 pass isn't worth scheduling.
const DefaultColdIndexMinBytes int64 = 32 << 20

// coldIndexSplitGrain is the record-start sampling granularity of the
// cold-scan boundary pass. It matches the zone-map build's default
// (index.DefaultSplitGrain) so recorded cold-scan indexes are
// indistinguishable from build-time ones.
const coldIndexSplitGrain int64 = 4 << 10

// morselOptions bundles the tuning knobs of a morsel-queue build.
type morselOptions struct {
	// morselSize is the byte-range granularity (DefaultMorselSize when <= 0).
	morselSize int64
	// coldIndexMin gates the cold-scan boundary pass
	// (DefaultColdIndexMinBytes when 0, disabled when negative).
	coldIndexMin int64
	// coldIndexWorkers is the parallel indexer's worker count (GOMAXPROCS
	// when <= 0).
	coldIndexWorkers int
}

// morsel is one unit of scan work: a byte range of one file. A record whose
// line start (the offset just past the '\n' preceding it, or offset 0)
// lies inside [start, end) belongs to this morsel, even when its tail
// extends past end — the record-alignment rule borrowed from Hadoop's line
// reader, valid because a raw '\n' never occurs inside a JSON string
// (control characters must be escaped), so newline-delimited values can be
// re-aligned from any offset. Anchoring ownership at the line start (not
// the record's first non-whitespace byte) keeps producer and consumer
// consistent when whitespace follows the separating newline, and means a
// final record without a trailing newline is owned by exactly the morsel
// its line begins in, no matter how many morsel boundaries it straddles.
type morsel struct {
	file  string
	start int64
	end   int64 // exclusive ownership limit; -1 = the whole rest of the file
	first bool  // first morsel of its file (no alignment skip)
	// aligned marks a morsel whose start is a known record start (from a
	// zone-map split index), so the consumer opens at start directly and
	// skips the probe-byte + SkipPastNewline re-alignment. Ownership is
	// unchanged: an aligned start is its own line start, so [start, end)
	// still bounds exactly the records whose line starts fall inside it.
	aligned bool
	// countsFile marks the one morsel of its file that increments
	// Stats.FilesRead. It starts out on the first morsel but moves to the
	// earliest survivor when zone pruning drops the first — first itself
	// cannot move, because it also encodes "no alignment skip at start 0".
	countsFile bool
}

// wholeFile reports whether the morsel covers its file entirely.
func (m morsel) wholeFile() bool { return m.start == 0 && m.end < 0 }

// wrap attaches the failing location to a scan error: the file path for a
// whole-file morsel, the file path plus the byte range for a split one.
func (m morsel) wrap(err error) error {
	if m.wholeFile() {
		return fmt.Errorf("%s: %w", m.file, err)
	}
	return fmt.Errorf("%s[%d:%d): %w", m.file, m.start, m.end, err)
}

// morselQueue is the per-scan-fragment work queue. In shared mode (the
// concurrent schedule) every task drains one atomic cursor, which is
// work-stealing in effect: a task that finishes its morsel takes the next
// available one, so fast partitions absorb the tail of a skewed file set.
// In static mode (the sequential schedule, which runs tasks one at a time to
// measure clean per-task times) morsels are dealt round-robin by index, so
// each task's workload — and therefore its measured time — is deterministic.
type morselQueue struct {
	morsels []morsel
	shared  bool
	parts   int
	cursor  atomic.Int64
	local   []int // static mode: per-partition count of morsels already taken
	// skipped is the number of morsels the queue build pruned via per-zone
	// stats — set once at build time, surfaced by the profiler.
	skipped int64
}

func newMorselQueue(morsels []morsel, partitions int, shared bool) *morselQueue {
	if partitions <= 0 {
		partitions = 1
	}
	return &morselQueue{
		morsels: morsels,
		shared:  shared,
		parts:   partitions,
		local:   make([]int, partitions),
	}
}

// take returns the next morsel for the given partition, or ok=false when the
// partition's work is exhausted. Safe for concurrent use in shared mode.
// stolen reports whether the morsel would have been dealt to a different
// partition under the static round-robin deal — the work-stealing signal the
// profiler surfaces per scan task.
func (q *morselQueue) take(partition int) (m morsel, stolen, ok bool) {
	if q.shared {
		i := q.cursor.Add(1) - 1
		if i >= int64(len(q.morsels)) {
			return morsel{}, false, false
		}
		return q.morsels[i], int(i%int64(q.parts)) != partition, true
	}
	if partition < 0 || partition >= q.parts {
		return morsel{}, false, false
	}
	i := q.local[partition]*q.parts + partition
	if i >= len(q.morsels) {
		return morsel{}, false, false
	}
	q.local[partition]++
	return q.morsels[i], false, true
}

// queueStats counts the pruning and cold-index work of a morsel-queue build.
type queueStats struct {
	filesSkipped    int64 // files pruned by a file-level zone-map range
	morselsSkipped  int64 // morsels pruned by per-zone min/max stats
	coldIndexBuilds int64 // cold-scan structural-index passes run
}

func (q *queueStats) add(other queueStats) {
	q.filesSkipped += other.filesSkipped
	q.morselsSkipped += other.morselsSkipped
	q.coldIndexBuilds += other.coldIndexBuilds
}

// buildMorselQueue lists a scan's files, prunes those a zone-map index rules
// out, and splits the survivors into morsels. Raw-JSON files are split when
// the source can report their size and reopen them at an offset; everything
// else (binary ADM documents, sources without range support) degrades to one
// whole-file morsel, which is exactly the pre-morsel behaviour. Large files
// with no recorded boundary index get one from the speculative parallel
// indexer at build time (see coldIndexSplits). When the index carries
// per-zone stats for the filter's path, morsels whose every overlapping zone
// excludes the predicate are pruned before they are ever scheduled. It
// returns the queue and the pruning/cold-index counters.
func buildMorselQueue(src runtime.Source, s ScanSource, idx runtime.IndexLookup,
	partitions int, opts morselOptions, shared bool) (*morselQueue, queueStats, error) {
	var qs queueStats
	if src == nil {
		return nil, qs, fmt.Errorf("hyracks: scan without a data source")
	}
	files, err := src.Files(s.Collection)
	if err != nil {
		return nil, qs, err
	}
	morselSize := opts.morselSize
	if morselSize <= 0 {
		morselSize = DefaultMorselSize
	}
	_, canRange := src.(runtime.RangeOpener)
	sz, canSize := src.(runtime.Sizer)
	var zl runtime.ZoneLookup
	if s.Filter != nil {
		zl, _ = idx.(runtime.ZoneLookup)
	}
	var morsels []morsel
	for _, file := range files {
		if s.Filter != nil && idx != nil {
			if r, ok := idx.FileRange(s.Collection, s.Filter.Path, file); ok && !s.Filter.Admits(r) {
				qs.filesSkipped++
				continue
			}
		}
		base := len(morsels)
		split := false
		if s.Format == FormatJSON && canRange && canSize {
			size, err := sz.Size(file)
			if err == nil && size > morselSize {
				var splits []int64
				if sl, ok := idx.(runtime.SplitLookup); ok {
					splits, _ = sl.FileSplits(s.Collection, file)
				}
				if len(splits) == 0 {
					if splits = coldIndexSplits(src, s.Collection, file, size, idx, opts); splits != nil {
						qs.coldIndexBuilds++
					}
				}
				if len(splits) > 0 {
					morsels = appendAlignedMorsels(morsels, file, size, morselSize, splits)
				} else {
					for off := int64(0); off < size; off += morselSize {
						end := off + morselSize
						if end > size {
							end = size
						}
						morsels = append(morsels, morsel{file: file, start: off, end: end,
							first: off == 0, countsFile: off == 0})
					}
				}
				split = true
			}
		}
		if !split {
			morsels = append(morsels, morsel{file: file, start: 0, end: -1, first: true, countsFile: true})
		}
		if zl != nil {
			if zones, ok := zl.FileZones(s.Collection, s.Filter.Path, file); ok {
				kept := pruneMorsels(morsels[base:], zones, s.Filter)
				qs.morselsSkipped += int64(len(morsels) - base - kept)
				morsels = morsels[:base+kept]
			}
		}
	}
	q := newMorselQueue(morsels, partitions, shared)
	q.skipped = qs.morselsSkipped
	return q, qs, nil
}

// pruneMorsels filters one file's morsels in place against the file's
// per-zone stats, keeping a morsel when any overlapping zone admits the
// filter — or when part of its range is not covered by any zone (unknown is
// never pruned). It returns the number of morsels kept. Pruning is sound
// because zones and morsel ownership share the line-start anchor: every
// record a morsel [ms, me) owns has its line start, and therefore its zone,
// inside [ms, me), so if all zones overlapping the range exclude the
// predicate, no owned record can match. If the file's first morsel is
// pruned, its FilesRead-counting duty moves to the earliest survivor.
func pruneMorsels(ms []morsel, zones []runtime.Zone, f *ScanFilter) int {
	kept := 0
	droppedCounter := false
	for _, m := range ms {
		if morselAdmitted(m, zones, f) {
			if droppedCounter {
				m.countsFile = true
				droppedCounter = false
			}
			ms[kept] = m
			kept++
		} else if m.countsFile {
			droppedCounter = true
		}
	}
	return kept
}

// morselAdmitted reports whether a morsel's byte range can hold a matching
// record according to the per-zone stats. Zones are ascending and
// non-overlapping and by the ZoneLookup contract cover [0, fileSize), so
// the last zone's End is the file size; any byte of the morsel's effective
// range the zones do not cover counts as unknown and admits the morsel.
func morselAdmitted(m morsel, zones []runtime.Zone, f *ScanFilter) bool {
	if len(zones) == 0 {
		return true
	}
	start, end := m.start, m.end
	size := zones[len(zones)-1].End
	if end < 0 || end > size {
		end = size // -1 means "the whole rest of the file"
	}
	if start >= end {
		return true // degenerate range: nothing to reason about, keep it
	}
	covered := start
	i := sort.Search(len(zones), func(i int) bool { return zones[i].End > start })
	for ; i < len(zones) && zones[i].Start < end; i++ {
		z := zones[i]
		if z.Start > covered {
			return true // gap in coverage: unknown, keep the morsel
		}
		if f.Admits(z.Range) {
			return true
		}
		if z.End > covered {
			covered = z.End
		}
	}
	return covered < end
}

// appendAlignedMorsels cuts one file on known record starts: each nominal cut
// (the multiples of morselSize) snaps forward to the first recorded split at
// or after it. Snapping never moves a cut backward, so morsels can run over
// morselSize by up to one record plus the split-sampling grain, and a nominal
// cut with no split before the file end simply merges the tail into the last
// morsel. Every non-first morsel starts exactly on a record start and is
// marked aligned: the consumer opens it at start directly, with no probe byte
// and no newline re-alignment. Ownership is identical to the probing path —
// the split offsets are precisely the line starts the probe would find — so
// exactly-once delivery is preserved record for record.
func appendAlignedMorsels(morsels []morsel, file string, size, morselSize int64, splits []int64) []morsel {
	prev := int64(0)
	for target := morselSize; target < size; target += morselSize {
		i := sort.Search(len(splits), func(i int) bool { return splits[i] >= target })
		if i == len(splits) {
			break
		}
		b := splits[i]
		if b <= prev {
			continue
		}
		if b >= size {
			break
		}
		morsels = append(morsels, morsel{file: file, start: prev, end: b,
			first: prev == 0, countsFile: prev == 0, aligned: prev != 0})
		prev = b
	}
	return append(morsels, morsel{file: file, start: prev, end: size,
		first: prev == 0, countsFile: prev == 0, aligned: prev != 0})
}

// coldIndexSplits computes the record-boundary index of one cold file — a
// raw-JSON file big enough to morsel-split but with no splits on record —
// by running the speculative parallel indexer's phase 1 over the file's byte
// ranges. The result is recorded back through the index registry when it
// implements runtime.SplitRecorder, so only the first scan of a file pays;
// every later queue build finds the splits via the ordinary SplitLookup.
// Any failure (or a source without range reads) degrades to nil and the
// caller falls back to nominal cuts with probe-based re-alignment —
// alignment is an optimization, never a correctness dependency.
func coldIndexSplits(src runtime.Source, collection, file string, size int64,
	idx runtime.IndexLookup, opts morselOptions) []int64 {
	min := opts.coldIndexMin
	if min < 0 {
		return nil
	}
	if min == 0 {
		min = DefaultColdIndexMinBytes
	}
	if size < min {
		return nil
	}
	ro, ok := src.(runtime.RangeOpener)
	if !ok {
		return nil
	}
	pi := jsonparse.ParallelIndexer{Workers: opts.coldIndexWorkers}
	splits, err := pi.SplitsRange(func(off int64) (io.ReadCloser, error) {
		return ro.OpenRange(file, off)
	}, size, coldIndexSplitGrain, 0)
	if err != nil || len(splits) == 0 {
		return nil
	}
	if rec, ok := idx.(runtime.SplitRecorder); ok {
		rec.RecordFileSplits(collection, file, splits)
	}
	return splits
}
