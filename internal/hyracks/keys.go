package hyracks

import (
	"bytes"

	"vxq/internal/frame"
	"vxq/internal/item"
	"vxq/internal/runtime"
)

// keyEncoder resolves a tuple's key expressions into encoded key fields and
// their combined hash without decoding or re-allocating anything in the
// steady state. Column-reference keys (the overwhelmingly common case after
// the rewrite rules) are sliced straight out of the tuple's raw fields;
// field keys (value($v, "k") over a raw column) copy the field's encoded
// bytes out of the tuple behind a sequence count; other computed keys are
// evaluated and encoded into a reusable buffer.
//
// The returned field slices are scratch: they alias either the frame or the
// encoder's buffer and are only valid until the next resolve call. Callers
// that retain keys (group tables, join builds) must copy them (byteArena).
type keyEncoder struct {
	evals  []runtime.Evaluator
	fields [][]byte // scratch: resolved encoded key fields
	buf    []byte   // scratch: encodings of field and computed keys
	spans  [][2]int // scratch: each key's bytes in buf; {-1, -1} for raw keys
}

// testHashEncodedField, when non-nil, replaces item.HashEncoded so tests can
// force hash collisions onto the bucket-chain/byte-compare path.
var testHashEncodedField func([]byte) (uint64, error)

func hashEncodedField(b []byte) (uint64, error) {
	if testHashEncodedField != nil {
		return testHashEncodedField(b)
	}
	return item.HashEncoded(b)
}

func newKeyEncoder(evals []runtime.Evaluator) *keyEncoder {
	return &keyEncoder{evals: evals, fields: make([][]byte, len(evals)), spans: make([][2]int, len(evals))}
}

// resolve computes the encoded key fields and combined hash of one tuple.
// The hash combine matches the decoded path exactly: h starts at
// 1469598103934665603 and folds each key's sequence hash with h*prime ^ hk,
// where HashEncoded == HashSeq by the item package's consistency guarantee.
func (ke *keyEncoder) resolve(ctx *TaskCtx, lt *frame.LazyTuple) ([][]byte, uint64, error) {
	// Buffer-backed keys record spans and are sliced after the loop,
	// because append may move the buffer while later keys are encoded.
	ke.buf = ke.buf[:0]
	nraw := lt.RawFieldCount()
	for i, ev := range ke.evals {
		ke.spans[i] = [2]int{-1, -1}
		start := len(ke.buf)
		switch e := ev.(type) {
		case runtime.ColumnEval:
			if e.Col >= 0 && e.Col < nraw {
				ke.fields[i] = lt.RawField(e.Col)
				continue
			}
		case runtime.FieldEval:
			if e.Col >= 0 && e.Col < nraw {
				v, ok, err := item.FieldEncoded(lt.RawField(e.Col), e.Key)
				if err == nil && ok {
					if v == nil {
						ke.buf = append(ke.buf, 0)
					} else {
						ke.buf = append(append(ke.buf, 1), v...)
					}
					ke.spans[i] = [2]int{start, len(ke.buf)}
					continue
				}
			}
		}
		v, err := ev.Eval(ctx.RT, lt)
		if err != nil {
			return nil, 0, err
		}
		ke.buf = item.EncodeSeq(ke.buf, v)
		ke.spans[i] = [2]int{start, len(ke.buf)}
	}
	for i, sp := range ke.spans {
		if sp[0] >= 0 {
			ke.fields[i] = ke.buf[sp[0]:sp[1]]
		}
	}
	var h uint64 = 1469598103934665603
	for _, f := range ke.fields {
		hf, err := hashEncodedField(f)
		if err != nil {
			return nil, 0, err
		}
		h = h*1099511628211 ^ hf
	}
	return ke.fields, h, nil
}

// matchEncodedKey compares two resolved key-field lists. Byte equality is
// the fast path; on mismatch it falls back to the structural EqualEncoded,
// because equal values may encode differently (object key order, -0.0).
// Byte-equal encodings are treated as equal without the structural walk,
// which coincides with EqualSeq for everything JSON can express (only NaN,
// unrepresentable in JSON, is bitwise-equal yet unequal).
func matchEncodedKey(a, b [][]byte) (bool, error) {
	for i := range a {
		if bytes.Equal(a[i], b[i]) {
			continue
		}
		eq, err := item.EqualEncoded(a[i], b[i])
		if err != nil || !eq {
			return false, err
		}
	}
	return true, nil
}
