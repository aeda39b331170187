package jsonparse

import (
	"bytes"
	"fmt"
	"slices"

	"vxq/internal/item"
)

// Transcoder writes the binary item encoding (item.Encode's layout) of JSON
// values straight from lexer tokens into a reusable buffer, never building
// an item.Item tree: strings are copied unescaped, numbers converted by
// Lexer.NumValue, and array and object counts back-patched once the closing
// token is seen. Its output and its errors are identical to encoding the
// item parseValue builds (Encode(parseValue(...)), the reference the tests
// compare against), duplicate object keys included.
//
// The zero value is ready to use. A Transcoder keeps its buffers across
// calls and is not safe for concurrent use.
type Transcoder struct {
	buf  []byte    // the current emission: a one-item sequence encoding
	keys []keySpan // keys of the open objects, innermost last
	dups []keySpan // scratch for the duplicate check of large objects
	emit func(seq []byte) error
}

// keySpan locates one object key's bytes in the Transcoder buffer. Spans
// stay valid while their object is open: a count back-patch only shifts
// bytes after the patched container's header, and every key recorded after
// that header belongs to an object already closed.
type keySpan struct{ off, n int }

// ScanEncoded is ScanValues for the binary tuple format: each projected item
// is handed to emit as the encoding of a one-item sequence
// (item.EncodeSeq of the item). The slice is reused for the next item, so
// emit must copy what it keeps.
func (t *Transcoder) ScanEncoded(l *Lexer, path Path, limit int64, emit func(seq []byte) error) (int, error) {
	t.emit = emit
	n, err := scanRecords(l, path, limit, t, nil)
	t.emit = nil
	return n, err
}

func (t *Transcoder) value(l *Lexer) error {
	t.buf = append(t.buf[:0], 1)
	t.keys = t.keys[:0]
	if err := t.appendValue(l); err != nil {
		return err
	}
	return t.emit(t.buf)
}

func (t *Transcoder) key(_ *Lexer, k []byte) error {
	t.buf = item.AppendString(append(t.buf[:0], 1), k)
	return t.emit(t.buf)
}

// appendValue appends the encoding of the value whose first token is
// current; on return the current token is the value's last token. It
// mirrors parseValue step for step, so both fail at the same token with the
// same error.
func (t *Transcoder) appendValue(l *Lexer) error {
	switch l.Kind {
	case TokNull:
		t.buf = item.AppendNull(t.buf)
	case TokTrue:
		t.buf = item.AppendBool(t.buf, true)
	case TokFalse:
		t.buf = item.AppendBool(t.buf, false)
	case TokNumber:
		n, err := l.NumValue()
		if err != nil {
			return err
		}
		t.buf = item.AppendNumber(t.buf, n)
	case TokString:
		t.buf = item.AppendString(t.buf, l.str)
	case TokLBracket:
		return t.appendArray(l)
	case TokLBrace:
		return t.appendObject(l)
	case TokEOF:
		return fmt.Errorf("json: unexpected end of input")
	default:
		return fmt.Errorf("json: offset %d: unexpected token %s", l.Offset(), l.Kind)
	}
	return nil
}

func (t *Transcoder) appendArray(l *Lexer) error {
	var slot int
	t.buf, slot = item.AppendArrayHeader(t.buf)
	if err := l.Next(); err != nil {
		return err
	}
	if l.Kind == TokRBracket {
		return nil
	}
	for n := 1; ; n++ {
		if err := t.appendValue(l); err != nil {
			return err
		}
		if err := l.Next(); err != nil {
			return err
		}
		switch l.Kind {
		case TokComma:
			if err := l.Next(); err != nil {
				return err
			}
		case TokRBracket:
			t.buf = item.PatchCount(t.buf, slot, n)
			return nil
		default:
			return fmt.Errorf("json: offset %d: expected ',' or ']', got %s", l.Offset(), l.Kind)
		}
	}
}

func (t *Transcoder) appendObject(l *Lexer) error {
	var slot int
	t.buf, slot = item.AppendObjectHeader(t.buf)
	if err := l.Next(); err != nil {
		return err
	}
	if l.Kind == TokRBrace {
		return nil
	}
	base := len(t.keys)
	for {
		if l.Kind != TokString {
			return fmt.Errorf("json: offset %d: expected object key, got %s", l.Offset(), l.Kind)
		}
		t.buf = item.AppendKey(t.buf, l.str)
		t.keys = append(t.keys, keySpan{off: len(t.buf) - len(l.str), n: len(l.str)})
		if err := l.Next(); err != nil {
			return err
		}
		if l.Kind != TokColon {
			return fmt.Errorf("json: offset %d: expected ':', got %s", l.Offset(), l.Kind)
		}
		if err := l.Next(); err != nil {
			return err
		}
		if err := t.appendValue(l); err != nil {
			return err
		}
		if err := l.Next(); err != nil {
			return err
		}
		switch l.Kind {
		case TokComma:
			if err := l.Next(); err != nil {
				return err
			}
		case TokRBrace:
			// Like parseObject, which hands its keys to item.NewObject
			// only at the closing brace: a syntax error inside the object
			// wins over a duplicate key.
			if err := t.checkKeys(t.keys[base:]); err != nil {
				return err
			}
			t.buf = item.PatchCount(t.buf, slot, len(t.keys)-base)
			t.keys = t.keys[:base]
			return nil
		default:
			return fmt.Errorf("json: offset %d: expected ',' or '}', got %s", l.Offset(), l.Kind)
		}
	}
}

func (t *Transcoder) keyBytes(k keySpan) []byte { return t.buf[k.off : k.off+k.n] }

// checkKeys reports item.DuplicateKeyError for the first key (in order) that
// repeats an earlier one, exactly as item.NewObject does. Small objects are
// scanned pairwise; large ones are sorted by key bytes (stably, so within a
// run of equal keys the earliest comes first), and the first duplicate is
// the smallest second member of any run.
func (t *Transcoder) checkKeys(keys []keySpan) error {
	const pairwise = 8
	if len(keys) <= pairwise {
		for j := 1; j < len(keys); j++ {
			for i := 0; i < j; i++ {
				if bytes.Equal(t.keyBytes(keys[i]), t.keyBytes(keys[j])) {
					return item.DuplicateKeyError(string(t.keyBytes(keys[j])))
				}
			}
		}
		return nil
	}
	t.dups = append(t.dups[:0], keys...)
	slices.SortStableFunc(t.dups, func(a, b keySpan) int {
		return bytes.Compare(t.keyBytes(a), t.keyBytes(b))
	})
	first := -1
	for i := 1; i < len(t.dups); i++ {
		a, b := t.dups[i-1], t.dups[i]
		if bytes.Equal(t.keyBytes(a), t.keyBytes(b)) && (first < 0 || b.off < t.dups[first].off) {
			first = i
		}
	}
	if first >= 0 {
		return item.DuplicateKeyError(string(t.keyBytes(t.dups[first])))
	}
	return nil
}
