package hyracks

import (
	"math/bits"

	"vxq/internal/spill"
)

// This file holds the plumbing the out-of-core operators share: the spill
// configuration carried on TaskCtx, the depth-rotated partition routing, and
// spillParts — a lazily created set of partition writers at one recursion
// depth. The operators themselves (grace-hash group-by and join, external
// merge sort) live in ops.go and join.go.

const (
	// spillFanout is the partition fan-out of one grace-hash spill wave.
	spillFanout = 8
	// maxSpillDepth bounds grace-hash recursion. A partition still over
	// budget at this depth (pathological key skew or a hash that no rotation
	// can split) is finished in memory — correctness never depends on the
	// budget holding.
	maxSpillDepth = 6
)

// Spill record tags: raw is an unmodified input tuple; partial is a flushed
// group — key fields first, then one item.EncodeSeq'd aggregate snapshot per
// aggregate. Within any one partition file every partial precedes every raw
// record for its key, so replaying a file merges state in original arrival
// order and float accumulation stays bit-identical to the in-memory path.
const (
	spillTagRaw     byte = 0
	spillTagPartial byte = 1
)

// spillBlockSize sizes one spill stream's buffer so that a full fan-out of
// writers stays well inside the operator budget.
func (c *TaskCtx) spillBlockSize() int {
	bs := spill.DefaultBlockSize
	if c.SpillBudget > 0 {
		if per := int(c.SpillBudget) / (2 * spillFanout); per < bs {
			bs = per
		}
	}
	if bs < spill.MinBlockSize {
		bs = spill.MinBlockSize
	}
	return bs
}

// releaseHold returns previously hold-charged bytes to the accountant before
// Close: the out-of-core operators free their tables (and run buffers)
// mid-run when they spill, which is the whole point of spilling.
func (c *TaskCtx) releaseHold(n int64) {
	if c.RT != nil && c.RT.Accountant != nil && n != 0 {
		c.RT.Accountant.Release(n)
	}
}

// addSpillStats folds an operator's spill counters into the task stats (the
// operators call it from deferred Close blocks so failed jobs count too).
func (c *TaskCtx) addSpillStats(bytes, parts, waves int64) {
	if c.RT == nil || c.RT.Stats == nil {
		return
	}
	st := c.RT.Stats
	st.SpilledBytes += bytes
	st.SpillPartitions += parts
	st.SpillWaves += waves
}

// spillRoute maps a key hash to a partition at the given recursion depth.
// Each depth looks at a rotated window of the same 64-bit hash, so a
// partition that overflows re-splits on fresh bits instead of collapsing
// into one child again.
func spillRoute(h uint64, depth, fanout int) int {
	if r := uint(depth*21) % 64; r != 0 {
		h = bits.RotateLeft64(h, -int(r))
	}
	return int(h % uint64(fanout))
}

// spillParts is one wave of grace-hash partition writers. Writers are created
// on first use (empty partitions cost nothing), their block buffers are
// charged to the accountant while open, and finish/abort is idempotent so an
// operator can always clean up from a deferred block.
type spillParts struct {
	ctx     *TaskCtx
	depth   int
	bsize   int
	ws      []*spill.Writer
	charged int64
	done    bool
}

func newSpillParts(ctx *TaskCtx, depth int) *spillParts {
	return &spillParts{ctx: ctx, depth: depth, bsize: ctx.spillBlockSize(),
		ws: make([]*spill.Writer, spillFanout)}
}

// write routes one record by its key hash and reports the bytes appended.
func (s *spillParts) write(h uint64, tag byte, fields [][]byte) (int, error) {
	return s.writeTo(spillRoute(h, s.depth, len(s.ws)), tag, fields)
}

// writeTo appends one record to an explicit partition — the join probe side
// uses it to mirror the build side's routing and to skip partitions with no
// build data.
func (s *spillParts) writeTo(p int, tag byte, fields [][]byte) (int, error) {
	w := s.ws[p]
	if w == nil {
		var err error
		w, err = spill.NewWriter(s.ctx.SpillDir, s.bsize)
		if err != nil {
			return 0, err
		}
		s.ws[p] = w
		s.ctx.accountHold(int64(s.bsize))
		s.charged += int64(s.bsize)
	}
	return w.Write(tag, fields)
}

// finish seals every active writer, releasing the buffer charges. The
// returned slice is indexed by partition; empty partitions are nil. On error
// all files (sealed or not) are removed.
func (s *spillParts) finish() ([]*spill.Run, error) {
	if s.done {
		return nil, nil
	}
	s.done = true
	defer s.releaseCharge()
	runs := make([]*spill.Run, len(s.ws))
	var firstErr error
	for i, w := range s.ws {
		if w == nil {
			continue
		}
		if firstErr != nil {
			w.Abort()
			continue
		}
		r, err := w.Finish()
		if err != nil {
			firstErr = err
			spill.RemoveRuns(runs)
			continue
		}
		runs[i] = r
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return runs, nil
}

// abort discards every active writer and its file.
func (s *spillParts) abort() {
	if s.done {
		return
	}
	s.done = true
	for _, w := range s.ws {
		if w != nil {
			w.Abort()
		}
	}
	s.releaseCharge()
}

func (s *spillParts) releaseCharge() {
	s.ctx.releaseHold(s.charged)
	s.charged = 0
}

// countRuns reports how many partitions actually received data.
func countRuns(runs []*spill.Run) int64 {
	var n int64
	for _, r := range runs {
		if r != nil {
			n++
		}
	}
	return n
}

// chainKeyHash combines already-encoded key fields exactly like
// keyEncoder.resolve does, so a partial record (whose original raw tuple is
// gone) routes and buckets identically to the raw tuples of its key.
func chainKeyHash(fields [][]byte) (uint64, error) {
	var h uint64 = 1469598103934665603
	for _, f := range fields {
		hf, err := hashEncodedField(f)
		if err != nil {
			return 0, err
		}
		h = h*1099511628211 ^ hf
	}
	return h, nil
}
