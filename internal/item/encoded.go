package item

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
)

// Encoded-form kernels: hashing and equality computed directly over the
// binary encoding produced by Encode/EncodeSeq, without materializing Items.
// Hyracks-style operators (group-by tables, hash exchanges, join build/probe)
// use these so that routing and key comparison never pay for decoding.
//
// Consistency guarantee (property-tested in encoded_test.go): for any
// sequences s and t,
//
//	HashEncoded(EncodeSeq(nil, s))  == HashSeq(s)
//	EqualEncoded(EncodeSeq(nil, s), EncodeSeq(nil, t)) == EqualSeq(s, t)
//
// In particular the kernels preserve the decoded forms' semantics exactly:
// numbers compare by float64 value (so -0.0 == 0.0 and NaN != NaN, even
// though NaN hashes by its bit pattern — the same pre-existing asymmetry the
// decoded Equal/Hash64 pair has), and object equality and hashing are
// independent of key order. Because equal values can therefore have
// different encodings (object key order, negative zero), byte equality of
// encodings implies value equality only for non-NaN data; callers that
// byte-compare as a fast path must fall back to EqualEncoded on mismatch.
//
// All kernels expect well-formed encodings (the only producers are
// Encode/EncodeSeq); malformed input yields an error, never a panic.

const fnvOffset64 = 14695981039346656037

// HashEncoded hashes an encoded sequence, returning exactly
// HashSeq(DecodeSeq(buf)).
func HashEncoded(buf []byte) (uint64, error) {
	n, w := binary.Uvarint(buf)
	if w <= 0 {
		return 0, fmt.Errorf("item: bad sequence count")
	}
	var h uint64 = fnvOffset64
	h = hashUint64(h, n)
	pos := w
	var err error
	for i := uint64(0); i < n; i++ {
		h, pos, err = hashEncodedItem(h, buf, pos)
		if err != nil {
			return 0, err
		}
	}
	if pos != len(buf) {
		return 0, fmt.Errorf("item: %d trailing bytes after sequence", len(buf)-pos)
	}
	return h, nil
}

// EqualEncoded reports equality of two encoded sequences, returning exactly
// EqualSeq(DecodeSeq(a), DecodeSeq(b)). It never decodes items: strings and
// keys compare as raw bytes, numbers by their float64 value, objects by a
// key-order-independent pair scan.
func EqualEncoded(a, b []byte) (bool, error) {
	na, wa := binary.Uvarint(a)
	if wa <= 0 {
		return false, fmt.Errorf("item: bad sequence count")
	}
	nb, wb := binary.Uvarint(b)
	if wb <= 0 {
		return false, fmt.Errorf("item: bad sequence count")
	}
	if na != nb {
		return false, nil
	}
	ap, bp := wa, wb
	for i := uint64(0); i < na; i++ {
		eq, nap, nbp, err := equalEncodedItem(a, ap, b, bp)
		if err != nil || !eq {
			return false, err
		}
		ap, bp = nap, nbp
	}
	return true, nil
}

// SeqCountEncoded returns the number of items in an encoded sequence by
// reading only the leading count — the fast path for count() aggregates.
func SeqCountEncoded(buf []byte) (int64, error) {
	n, w := binary.Uvarint(buf)
	if w <= 0 {
		return 0, fmt.Errorf("item: bad sequence count")
	}
	return int64(n), nil
}

// IsEmptySeqEncoded reports whether buf encodes the empty sequence.
func IsEmptySeqEncoded(buf []byte) bool {
	n, w := binary.Uvarint(buf)
	return w > 0 && n == 0
}

// FieldEncoded is value(obj, key) over an encoded sequence, the pointable
// access that lets an evaluator read one field of a tuple without decoding
// the object around it. When buf encodes exactly one object it returns the
// encoded item stored under key (a sub-slice of buf, nil when the object has
// no such key) and ok = true. For any other shape (an empty or multi-item
// sequence, or a single non-object) ok is false and the caller evaluates
// value() on decoded items instead. The whole buffer is validated either
// way, so truncated or malformed input yields an error, never a panic.
func FieldEncoded(buf []byte, key string) (val []byte, ok bool, err error) {
	n, pos, err := encodedCount(buf, 0, "sequence")
	if err != nil {
		return nil, false, err
	}
	ok = n == 1 && pos < len(buf) && buf[pos] == tagObject
	if ok {
		var m uint64
		if m, pos, err = encodedCount(buf, pos+1, "object"); err != nil {
			return nil, false, err
		}
		for i := uint64(0); i < m; i++ {
			k, vpos, err := encodedKey(buf, pos)
			if err != nil {
				return nil, false, err
			}
			if pos, err = skipEncodedItem(buf, vpos); err != nil {
				return nil, false, err
			}
			if val == nil && string(k) == key {
				val = buf[vpos:pos]
			}
		}
	} else {
		for i := uint64(0); i < n; i++ {
			if pos, err = skipEncodedItem(buf, pos); err != nil {
				return nil, false, err
			}
		}
	}
	if pos != len(buf) {
		return nil, false, fmt.Errorf("item: %d trailing bytes after sequence", len(buf)-pos)
	}
	return val, ok, nil
}

// hashEncodedItem folds one encoded item at buf[pos:] into h, mirroring
// hashItem over the decoded form, and returns the new hash and the position
// just past the item.
func hashEncodedItem(h uint64, buf []byte, pos int) (uint64, int, error) {
	if pos >= len(buf) {
		return 0, 0, fmt.Errorf("item: decode on empty buffer")
	}
	tag := buf[pos]
	pos++
	switch tag {
	case tagNull:
		return hashByte(h, byte(KindNull)), pos, nil
	case tagFalse:
		return hashByte(hashByte(h, byte(KindBool)), 0), pos, nil
	case tagTrue:
		return hashByte(hashByte(h, byte(KindBool)), 1), pos, nil
	case tagNumber:
		if pos+8 > len(buf) {
			return 0, 0, fmt.Errorf("item: truncated number")
		}
		h = hashByte(h, byte(KindNumber))
		// The encoding stores the float64 bits little-endian, which is the
		// exact byte order hashUint64 consumes — hash the raw bytes.
		for i := 0; i < 8; i++ {
			h = hashByte(h, buf[pos+i])
		}
		return h, pos + 8, nil
	case tagString:
		n, w := binary.Uvarint(buf[pos:])
		if w <= 0 {
			return 0, 0, fmt.Errorf("item: bad string length")
		}
		pos += w
		end := pos + int(n)
		if int(n) < 0 || end > len(buf) {
			return 0, 0, fmt.Errorf("item: truncated string")
		}
		h = hashByte(h, byte(KindString))
		for ; pos < end; pos++ {
			h = hashByte(h, buf[pos])
		}
		return h, end, nil
	case tagArray:
		n, w := binary.Uvarint(buf[pos:])
		if w <= 0 {
			return 0, 0, fmt.Errorf("item: bad array count")
		}
		pos += w
		h = hashByte(h, byte(KindArray))
		h = hashUint64(h, n)
		var err error
		for i := uint64(0); i < n; i++ {
			h, pos, err = hashEncodedItem(h, buf, pos)
			if err != nil {
				return 0, 0, err
			}
		}
		return h, pos, nil
	case tagObject:
		n, w := binary.Uvarint(buf[pos:])
		if w <= 0 {
			return 0, 0, fmt.Errorf("item: bad object count")
		}
		pos += w
		h = hashByte(h, byte(KindObject))
		h = hashUint64(h, n)
		// Key-order independence: combine per-pair hashes with XOR, exactly
		// as hashItem does over the decoded object.
		var acc uint64
		for i := uint64(0); i < n; i++ {
			kl, kw := binary.Uvarint(buf[pos:])
			if kw <= 0 {
				return 0, 0, fmt.Errorf("item: bad object key length")
			}
			pos += kw
			kend := pos + int(kl)
			if int(kl) < 0 || kend > len(buf) {
				return 0, 0, fmt.Errorf("item: truncated object key")
			}
			var ph uint64 = fnvOffset64
			for ; pos < kend; pos++ {
				ph = hashByte(ph, buf[pos])
			}
			var err error
			ph, pos, err = hashEncodedItem(ph, buf, pos)
			if err != nil {
				return 0, 0, err
			}
			acc ^= ph
		}
		return hashUint64(h, acc), pos, nil
	case tagDateTime:
		y, w := binary.Uvarint(buf[pos:])
		if w <= 0 {
			return 0, 0, fmt.Errorf("item: bad dateTime year")
		}
		pos += w
		if pos+5 > len(buf) {
			return 0, 0, fmt.Errorf("item: truncated dateTime")
		}
		h = hashByte(h, byte(KindDateTime))
		packed := y<<40 | uint64(buf[pos])<<32 | uint64(buf[pos+1])<<24 |
			uint64(buf[pos+2])<<16 | uint64(buf[pos+3])<<8 | uint64(buf[pos+4])
		return hashUint64(h, packed), pos + 5, nil
	default:
		return 0, 0, fmt.Errorf("item: unknown tag 0x%02x", tag)
	}
}

// equalEncodedItem compares the encoded items at a[ap:] and b[bp:],
// returning whether they are equal and, when they are, the positions just
// past each. When eq is false the returned positions are meaningless.
func equalEncodedItem(a []byte, ap int, b []byte, bp int) (bool, int, int, error) {
	if ap >= len(a) || bp >= len(b) {
		return false, 0, 0, fmt.Errorf("item: decode on empty buffer")
	}
	ta, tb := a[ap], b[bp]
	switch {
	case ta == tagNull && tb == tagNull:
		return true, ap + 1, bp + 1, nil
	case (ta == tagFalse || ta == tagTrue) && (tb == tagFalse || tb == tagTrue):
		return ta == tb, ap + 1, bp + 1, nil
	case ta == tagNumber && tb == tagNumber:
		if ap+9 > len(a) || bp+9 > len(b) {
			return false, 0, 0, fmt.Errorf("item: truncated number")
		}
		// Compare by float64 value, not by bytes: -0.0 == 0.0 and
		// NaN != NaN, matching the decoded Equal.
		fa := math.Float64frombits(binary.LittleEndian.Uint64(a[ap+1:]))
		fb := math.Float64frombits(binary.LittleEndian.Uint64(b[bp+1:]))
		return fa == fb, ap + 9, bp + 9, nil
	case ta == tagString && tb == tagString:
		sa, nap, err := encodedBytes(a, ap+1, "string")
		if err != nil {
			return false, 0, 0, err
		}
		sb, nbp, err := encodedBytes(b, bp+1, "string")
		if err != nil {
			return false, 0, 0, err
		}
		return bytes.Equal(sa, sb), nap, nbp, nil
	case ta == tagArray && tb == tagArray:
		na, ap2, err := encodedCount(a, ap+1, "array")
		if err != nil {
			return false, 0, 0, err
		}
		nb, bp2, err := encodedCount(b, bp+1, "array")
		if err != nil {
			return false, 0, 0, err
		}
		if na != nb {
			return false, 0, 0, nil
		}
		for i := uint64(0); i < na; i++ {
			eq, nap, nbp, err := equalEncodedItem(a, ap2, b, bp2)
			if err != nil || !eq {
				return false, 0, 0, err
			}
			ap2, bp2 = nap, nbp
		}
		return true, ap2, bp2, nil
	case ta == tagObject && tb == tagObject:
		return equalEncodedObject(a, ap, b, bp)
	case ta == tagDateTime && tb == tagDateTime:
		ya, ap2, err := encodedCount(a, ap+1, "dateTime")
		if err != nil || ap2+5 > len(a) {
			return false, 0, 0, truncated(err, "dateTime")
		}
		yb, bp2, err := encodedCount(b, bp+1, "dateTime")
		if err != nil || bp2+5 > len(b) {
			return false, 0, 0, truncated(err, "dateTime")
		}
		eq := ya == yb && bytes.Equal(a[ap2:ap2+5], b[bp2:bp2+5])
		return eq, ap2 + 5, bp2 + 5, nil
	default:
		// Distinct kinds never compare equal; still reject unknown tags.
		if !validTag(ta) {
			return false, 0, 0, fmt.Errorf("item: unknown tag 0x%02x", ta)
		}
		if !validTag(tb) {
			return false, 0, 0, fmt.Errorf("item: unknown tag 0x%02x", tb)
		}
		return false, 0, 0, nil
	}
}

// equalEncodedObject compares two encoded objects key-order-independently:
// for each pair of a it scans b for the first pair with a byte-equal key
// (object keys are unique, so the first match is the only one) and compares
// the values. ap and bp point at the object tags.
func equalEncodedObject(a []byte, ap int, b []byte, bp int) (bool, int, int, error) {
	na, apos, err := encodedCount(a, ap+1, "object")
	if err != nil {
		return false, 0, 0, err
	}
	nb, bpairs, err := encodedCount(b, bp+1, "object")
	if err != nil {
		return false, 0, 0, err
	}
	if na != nb {
		return false, 0, 0, nil
	}
	// The scan below visits b's pairs out of order, so compute b's end
	// position up front with a single structural skip.
	bEnd, err := skipEncodedItem(b, bp)
	if err != nil {
		return false, 0, 0, err
	}
	for i := uint64(0); i < na; i++ {
		akey, aval, err := encodedKey(a, apos)
		if err != nil {
			return false, 0, 0, err
		}
		found := false
		sp := bpairs
		for j := uint64(0); j < nb; j++ {
			bkey, bval, err := encodedKey(b, sp)
			if err != nil {
				return false, 0, 0, err
			}
			if bytes.Equal(akey, bkey) {
				eq, nap, _, err := equalEncodedItem(a, aval, b, bval)
				if err != nil || !eq {
					return false, 0, 0, err
				}
				apos = nap
				found = true
				break
			}
			if sp, err = skipEncodedItem(b, bval); err != nil {
				return false, 0, 0, err
			}
		}
		if !found {
			return false, 0, 0, nil
		}
	}
	return true, apos, bEnd, nil
}

// skipEncodedItem advances past the encoded item at buf[pos:] without
// interpreting it beyond its structure.
func skipEncodedItem(buf []byte, pos int) (int, error) {
	if pos >= len(buf) {
		return 0, fmt.Errorf("item: decode on empty buffer")
	}
	tag := buf[pos]
	pos++
	switch tag {
	case tagNull, tagFalse, tagTrue:
		return pos, nil
	case tagNumber:
		if pos+8 > len(buf) {
			return 0, fmt.Errorf("item: truncated number")
		}
		return pos + 8, nil
	case tagString:
		_, pos, err := encodedBytes(buf, pos, "string")
		return pos, err
	case tagArray:
		n, pos, err := encodedCount(buf, pos, "array")
		if err != nil {
			return 0, err
		}
		for i := uint64(0); i < n; i++ {
			if pos, err = skipEncodedItem(buf, pos); err != nil {
				return 0, err
			}
		}
		return pos, nil
	case tagObject:
		n, pos, err := encodedCount(buf, pos, "object")
		if err != nil {
			return 0, err
		}
		for i := uint64(0); i < n; i++ {
			_, vpos, err := encodedKey(buf, pos)
			if err != nil {
				return 0, err
			}
			if pos, err = skipEncodedItem(buf, vpos); err != nil {
				return 0, err
			}
		}
		return pos, nil
	case tagDateTime:
		_, pos, err := encodedCount(buf, pos, "dateTime")
		if err != nil {
			return 0, err
		}
		if pos+5 > len(buf) {
			return 0, fmt.Errorf("item: truncated dateTime")
		}
		return pos + 5, nil
	default:
		return 0, fmt.Errorf("item: unknown tag 0x%02x", tag)
	}
}

// encodedCount reads a uvarint at buf[pos:] (an array/object count or a
// dateTime year) and returns it with the following position.
func encodedCount(buf []byte, pos int, what string) (uint64, int, error) {
	n, w := binary.Uvarint(buf[pos:])
	if w <= 0 {
		return 0, 0, fmt.Errorf("item: bad %s count", what)
	}
	return n, pos + w, nil
}

// encodedBytes reads a uvarint-length-prefixed byte run at buf[pos:]
// (a string payload or an object key) and returns it with the following
// position.
func encodedBytes(buf []byte, pos int, what string) ([]byte, int, error) {
	n, w := binary.Uvarint(buf[pos:])
	if w <= 0 {
		return nil, 0, fmt.Errorf("item: bad %s length", what)
	}
	pos += w
	if n > uint64(len(buf)-pos) {
		return nil, 0, fmt.Errorf("item: truncated %s", what)
	}
	end := pos + int(n)
	return buf[pos:end], end, nil
}

// encodedKey reads the key of an object pair at buf[pos:], returning the key
// bytes and the position of the pair's value.
func encodedKey(buf []byte, pos int) ([]byte, int, error) {
	return encodedBytes(buf, pos, "object key")
}

func validTag(t byte) bool { return t <= tagDateTime }

func truncated(err error, what string) error {
	if err != nil {
		return err
	}
	return fmt.Errorf("item: truncated %s", what)
}
