package frame

import (
	"fmt"

	"vxq/internal/item"
)

// LazyTuple is an on-demand view of one tuple: the raw encoded field slices
// plus a per-field decode-on-first-access memo. Operators that only route,
// filter on one field, or copy bytes never pay for decoding the fields they
// don't touch — the binary-tuple discipline Hyracks operators follow.
//
// A LazyTuple also carries appended (computed) fields, so assign-style
// operators can extend a tuple without re-encoding its existing fields.
// Raw slices alias the frame buffer and must not be retained past the
// frame's lifetime; decoded sequences are freshly allocated by DecodeSeq and
// are safe to retain indefinitely.
//
// The zero value is an empty tuple; Reset rebinds the view to a new tuple
// while reusing the memo storage, so iterating a frame with one LazyTuple
// performs no per-tuple allocation beyond the decodes actually requested.
type LazyTuple struct {
	raw   [][]byte        // encoded base fields, aliasing the frame
	seqs  []item.Sequence // memoized decodes, parallel to raw
	dec   []bool          // which entries of seqs are populated
	extra []item.Sequence // computed fields appended past the base fields
}

// Reset rebinds the view to the given raw fields, dropping memoized decodes
// and appended fields but keeping their storage for reuse.
func (t *LazyTuple) Reset(raw [][]byte) {
	t.raw = raw
	if cap(t.seqs) < len(raw) {
		t.seqs = make([]item.Sequence, len(raw))
		t.dec = make([]bool, len(raw))
	} else {
		t.seqs = t.seqs[:len(raw)]
		t.dec = t.dec[:len(raw)]
		for i := range t.dec {
			t.dec[i] = false
			t.seqs[i] = nil
		}
	}
	t.extra = t.extra[:0]
}

// FieldCount reports the total number of fields: raw plus appended.
func (t *LazyTuple) FieldCount() int { return len(t.raw) + len(t.extra) }

// RawFieldCount reports the number of raw (encoded) base fields.
func (t *LazyTuple) RawFieldCount() int { return len(t.raw) }

// RawField returns the encoded bytes of base field i. Appended fields have
// no raw encoding; callers encode them when emitting.
func (t *LazyTuple) RawField(i int) []byte { return t.raw[i] }

// Raw returns the raw base field slices. The slice and its contents alias
// the frame buffer.
func (t *LazyTuple) Raw() [][]byte { return t.raw }

// EncodedField returns the encoded bytes of base field i while it has not
// been decoded. Once it is decoded (eager mode decodes every field up
// front), and for an appended field, it reports false: reading the decoded
// field with Field is then the cheaper path.
func (t *LazyTuple) EncodedField(i int) ([]byte, bool) {
	if i < 0 || i >= len(t.raw) || t.dec[i] {
		return nil, false
	}
	return t.raw[i], true
}

// Field decodes field i on first access and memoizes the result. Appended
// fields are returned as stored. The returned sequence is freshly allocated
// (never aliases frame bytes) and may be retained by the caller.
func (t *LazyTuple) Field(i int) (item.Sequence, error) {
	if i < 0 || i >= t.FieldCount() {
		return nil, fmt.Errorf("frame: field index %d out of range [0,%d)", i, t.FieldCount())
	}
	if i >= len(t.raw) {
		return t.extra[i-len(t.raw)], nil
	}
	if !t.dec[i] {
		s, err := item.DecodeSeq(t.raw[i])
		if err != nil {
			return nil, err
		}
		t.seqs[i] = s
		t.dec[i] = true
	}
	return t.seqs[i], nil
}

// Append adds a computed field after the base fields.
func (t *LazyTuple) Append(s item.Sequence) { t.extra = append(t.extra, s) }

// DecodeAll eagerly decodes every base field — the reference mode that
// reproduces the pre-lazy pipeline's decode-everything behaviour.
func (t *LazyTuple) DecodeAll() error {
	for i := range t.raw {
		if _, err := t.Field(i); err != nil {
			return err
		}
	}
	return nil
}
