package item

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary encoding of items and sequences, used as the tuple-field format
// inside Hyracks frames.
//
// Item layout:
//
//	null      0x00
//	false     0x01
//	true      0x02
//	number    0x03 <8-byte little-endian float64 bits>
//	string    0x04 <uvarint len> <bytes>
//	array     0x05 <uvarint count> <items...>
//	object    0x06 <uvarint count> (<uvarint keylen> <key> <item>)...
//	dateTime  0x07 <uvarint year> <5 bytes month..second>
//
// Sequence layout: <uvarint count> <items...>.

const (
	tagNull     = 0x00
	tagFalse    = 0x01
	tagTrue     = 0x02
	tagNumber   = 0x03
	tagString   = 0x04
	tagArray    = 0x05
	tagObject   = 0x06
	tagDateTime = 0x07
)

// Encode appends the binary encoding of it to dst and returns the extended
// slice.
func Encode(dst []byte, it Item) []byte {
	switch x := it.(type) {
	case Null:
		return AppendNull(dst)
	case Bool:
		return AppendBool(dst, bool(x))
	case Number:
		return AppendNumber(dst, float64(x))
	case String:
		return AppendString(dst, x)
	case Array:
		dst = append(dst, tagArray)
		dst = binary.AppendUvarint(dst, uint64(len(x)))
		for _, m := range x {
			dst = Encode(dst, m)
		}
		return dst
	case *Object:
		dst = append(dst, tagObject)
		dst = binary.AppendUvarint(dst, uint64(len(x.keys)))
		for i, k := range x.keys {
			dst = AppendKey(dst, k)
			dst = Encode(dst, x.vals[i])
		}
		return dst
	case DateTime:
		dst = append(dst, tagDateTime)
		dst = binary.AppendUvarint(dst, uint64(x.Year))
		return append(dst, byte(x.Month), byte(x.Day), byte(x.Hour), byte(x.Minute), byte(x.Second))
	default:
		panic(fmt.Sprintf("item: cannot encode %T", it))
	}
}

// The Append* functions write Encode's layout piece by piece, for producers
// that build the encoding straight from another representation (the raw-JSON
// transcoder) without materializing an Item. Their output is byte-identical
// to Encode of the corresponding item.

// AppendNull appends the encoding of Null.
func AppendNull(dst []byte) []byte { return append(dst, tagNull) }

// AppendBool appends the encoding of Bool(b).
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, tagTrue)
	}
	return append(dst, tagFalse)
}

// AppendNumber appends the encoding of Number(f).
func AppendNumber(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(append(dst, tagNumber), math.Float64bits(f))
}

// AppendString appends the encoding of String(s).
func AppendString[S ~string | ~[]byte](dst []byte, s S) []byte {
	dst = binary.AppendUvarint(append(dst, tagString), uint64(len(s)))
	return append(dst, s...)
}

// AppendKey appends one object pair's key; the pair's value follows it.
func AppendKey[S ~string | ~[]byte](dst []byte, k S) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(k)))
	return append(dst, k...)
}

// AppendArrayHeader and AppendObjectHeader open a container whose member
// count is not known yet: they append the tag and a one-byte count
// placeholder and return its position, which PatchCount fills once the
// members have been appended.
func AppendArrayHeader(dst []byte) ([]byte, int) {
	return append(dst, tagArray, 0), len(dst) + 1
}

// AppendObjectHeader is AppendArrayHeader for an object; each pair is then
// AppendKey followed by the value's encoding.
func AppendObjectHeader(dst []byte) ([]byte, int) {
	return append(dst, tagObject, 0), len(dst) + 1
}

// PatchCount writes the member count n into the placeholder at slot. A count
// above 127 needs a longer uvarint, so the bytes after the placeholder shift
// right to make room; the result stays the canonical (minimal) encoding.
func PatchCount(dst []byte, slot, n int) []byte {
	if n < 0x80 {
		dst[slot] = byte(n)
		return dst
	}
	var tmp [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(tmp[:], uint64(n))
	old := len(dst)
	dst = append(dst, tmp[:w-1]...)
	copy(dst[slot+w:], dst[slot+1:old])
	copy(dst[slot:], tmp[:w])
	return dst
}

// Decode decodes one item from buf, returning the item and the number of
// bytes consumed.
func Decode(buf []byte) (Item, int, error) {
	if len(buf) == 0 {
		return nil, 0, fmt.Errorf("item: decode on empty buffer")
	}
	tag := buf[0]
	switch tag {
	case tagNull:
		return Null{}, 1, nil
	case tagFalse:
		return Bool(false), 1, nil
	case tagTrue:
		return Bool(true), 1, nil
	case tagNumber:
		if len(buf) < 9 {
			return nil, 0, fmt.Errorf("item: truncated number")
		}
		bits := binary.LittleEndian.Uint64(buf[1:9])
		return Number(math.Float64frombits(bits)), 9, nil
	case tagString:
		n, w := binary.Uvarint(buf[1:])
		if w <= 0 {
			return nil, 0, fmt.Errorf("item: bad string length")
		}
		start := 1 + w
		end := start + int(n)
		if end > len(buf) || int(n) < 0 {
			return nil, 0, fmt.Errorf("item: truncated string")
		}
		return String(buf[start:end]), end, nil
	case tagArray:
		n, w := binary.Uvarint(buf[1:])
		if w <= 0 {
			return nil, 0, fmt.Errorf("item: bad array count")
		}
		pos := 1 + w
		arr := make(Array, 0, n)
		for i := uint64(0); i < n; i++ {
			it, used, err := Decode(buf[pos:])
			if err != nil {
				return nil, 0, err
			}
			arr = append(arr, it)
			pos += used
		}
		return arr, pos, nil
	case tagObject:
		n, w := binary.Uvarint(buf[1:])
		if w <= 0 {
			return nil, 0, fmt.Errorf("item: bad object count")
		}
		pos := 1 + w
		keys := make([]string, 0, n)
		vals := make([]Item, 0, n)
		for i := uint64(0); i < n; i++ {
			kl, kw := binary.Uvarint(buf[pos:])
			if kw <= 0 {
				return nil, 0, fmt.Errorf("item: bad object key length")
			}
			pos += kw
			if pos+int(kl) > len(buf) {
				return nil, 0, fmt.Errorf("item: truncated object key")
			}
			keys = append(keys, string(buf[pos:pos+int(kl)]))
			pos += int(kl)
			it, used, err := Decode(buf[pos:])
			if err != nil {
				return nil, 0, err
			}
			vals = append(vals, it)
			pos += used
		}
		return &Object{keys: keys, vals: vals}, pos, nil
	case tagDateTime:
		y, w := binary.Uvarint(buf[1:])
		if w <= 0 {
			return nil, 0, fmt.Errorf("item: bad dateTime year")
		}
		pos := 1 + w
		if pos+5 > len(buf) {
			return nil, 0, fmt.Errorf("item: truncated dateTime")
		}
		d := DateTime{
			Year:   int(y),
			Month:  int(buf[pos]),
			Day:    int(buf[pos+1]),
			Hour:   int(buf[pos+2]),
			Minute: int(buf[pos+3]),
			Second: int(buf[pos+4]),
		}
		return d, pos + 5, nil
	default:
		return nil, 0, fmt.Errorf("item: unknown tag 0x%02x", tag)
	}
}

// EncodeSeq appends the binary encoding of a sequence to dst.
func EncodeSeq(dst []byte, s Sequence) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	for _, it := range s {
		dst = Encode(dst, it)
	}
	return dst
}

// DecodeSeq decodes a full sequence from buf. The whole buffer must be
// consumed; trailing bytes are an error.
func DecodeSeq(buf []byte) (Sequence, error) {
	n, w := binary.Uvarint(buf)
	if w <= 0 {
		return nil, fmt.Errorf("item: bad sequence count")
	}
	pos := w
	if n == 0 {
		if pos != len(buf) {
			return nil, fmt.Errorf("item: %d trailing bytes after sequence", len(buf)-pos)
		}
		return nil, nil
	}
	s := make(Sequence, 0, n)
	for i := uint64(0); i < n; i++ {
		it, used, err := Decode(buf[pos:])
		if err != nil {
			return nil, err
		}
		s = append(s, it)
		pos += used
	}
	if pos != len(buf) {
		return nil, fmt.Errorf("item: %d trailing bytes after sequence", len(buf)-pos)
	}
	return s, nil
}
