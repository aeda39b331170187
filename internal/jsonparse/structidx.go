// Structural index kernel: the word-at-a-time (SWAR) phase-1 pass of the
// two-phase parse design (simdjson; Keiser & Lemire, "On-Demand JSON").
//
// Phase 1 consumes the input 8 bytes at a time and emits, per 64-byte block,
// bitmaps of the characters that can change the scanner's state: quotes,
// backslashes, the structural characters {}[],:, newlines and control bytes.
// From the quote and backslash bitmaps it derives the two masks that make
// phase 2 trivial: the escape mask (characters following an odd-length
// backslash run, computed branch-free with the carry-save trick simdjson
// uses) and the in-string mask (a prefix XOR over unescaped quotes). Both
// carry state across 64-bit words and across chunk refills, exactly the way
// the byte-at-a-time raw-skip state machine carries depth/string state.
//
// Phase 2 consumers never re-lex: the indexed skip (lexer.go) jumps
// structural-to-structural through the Open/Close bitmaps, the indexed string
// scan jumps to the next quote/backslash event, and the record-boundary
// scanner (BoundaryScanner) turns the newline-outside-string bitmap into
// exact morsel split points.
//
// Everything here is pure SWAR over uint64 words — no assembly, no unsafe —
// so it runs on every GOARCH at a large multiple of the byte-loop's
// throughput (see BENCH_parse.json, bitmap_builder).
package jsonparse

import (
	"encoding/binary"
	"math/bits"
)

// SWAR broadcast constants. A pattern like swarQuote holds the target byte
// replicated into every lane; swarLo/swarHi are the classic low-bit/high-bit
// lane masks of the zero-byte test.
const (
	swarLo    uint64 = 0x0101010101010101
	swarHi    uint64 = 0x8080808080808080
	swar7F    uint64 = 0x7f7f7f7f7f7f7f7f
	swarQuote uint64 = 0x2222222222222222 // '"'
	swarBsl   uint64 = 0x5c5c5c5c5c5c5c5c // '\\'
	swarNL    uint64 = 0x0a0a0a0a0a0a0a0a // '\n'
	swarComma uint64 = 0x2c2c2c2c2c2c2c2c // ','
	swarColon uint64 = 0x3a3a3a3a3a3a3a3a // ':'
	swarCtl   uint64 = 0xe0e0e0e0e0e0e0e0 // top-3-bits mask: (b & 0xE0)==0 <=> b < 0x20
	swarBit5  uint64 = 0x2020202020202020 // ORing bit 5 folds {,[ together and },] together
	swarOpen  uint64 = 0x7b7b7b7b7b7b7b7b // '{' (and '[' after |0x20)
	swarClose uint64 = 0x7d7d7d7d7d7d7d7d // '}' (and ']' after |0x20)
	swarEven  uint64 = 0x5555555555555555 // bits at even positions
	swarOdd   uint64 = 0xaaaaaaaaaaaaaaaa // bits at odd positions
	swar05    uint64 = 0x0505050505050505 // range bias: lane + 5 overflows bit 7 iff lane >= 0x7b
)

// zeroLanes returns a mask with the high bit of every all-zero byte lane set.
// This is the exact (carry-free) variant: each lane is decided independently,
// so the result is usable as a per-position bitmap, not just a "was there a
// zero" flag.
func zeroLanes(v uint64) uint64 {
	return ^(((v & swar7F) + swar7F) | v | swar7F)
}

// looseZeroLanes is the cheap three-op zero test. Borrows from lower lanes
// can set false-positive bits, but only ABOVE the lowest true zero lane: the
// lowest set bit is always a real match, and a zero result exactly means "no
// zero lane". Use it to find the first event in a word or to prove a word
// empty; never as a positional bitmap.
func looseZeroLanes(v uint64) uint64 {
	return (v - swarLo) &^ v
}

// packHighBits collapses the 8 lane-high bits of a zeroLanes-style mask into
// the low 8 bits (bit i = lane i), via the classic multiply gather. The
// magic constant places each lane's bit at a distinct position of the top
// byte with no carry interference.
func packHighBits(m uint64) uint64 {
	return ((m >> 7) * 0x0102040810204080) >> 56
}

// prefixXor computes the running XOR of all lower bits for every bit
// position: bit i of the result is the parity of bits [0..i] of m. Applied
// to an unescaped-quote bitmap it yields the in-string mask (the opening
// quote is marked inside, the closing quote outside), the SWAR stand-in for
// the carry-less multiply simdjson uses.
func prefixXor(m uint64) uint64 {
	m ^= m << 1
	m ^= m << 2
	m ^= m << 4
	m ^= m << 8
	m ^= m << 16
	m ^= m << 32
	return m
}

// StructState carries the two bits of scanner state that cross word, block
// and chunk boundaries: whether the next byte is escaped (a backslash run of
// odd length ended exactly at the boundary) and whether the next byte is
// inside a string. The zero value is the state at any position that is
// outside a string and not preceded by a dangling backslash — e.g. right
// after a structural character, which is where every indexed scan starts.
type StructState struct {
	prevEscaped  uint64 // bit 0 set: the next processed byte is escaped
	prevInString uint64 // all-ones: the next processed byte is inside a string
}

func (st *StructState) inString() bool    { return st.prevInString != 0 }
func (st *StructState) nextEscaped() bool { return st.prevEscaped != 0 }

// findEscaped returns the mask of characters that follow an odd-length run
// of backslashes (i.e. are escaped), given the backslash bitmap of one
// block, and updates the cross-block carry. Branch-free: odd-length runs are
// found by adding the run starts on odd positions into the run bodies and
// watching which sums land on even positions (simdjson's algorithm).
func (st *StructState) findEscaped(bslash uint64) uint64 {
	bslash &^= st.prevEscaped // an escaped backslash does not itself escape
	follows := bslash<<1 | st.prevEscaped
	oddStarts := bslash & swarOdd &^ follows
	seq, carry := bits.Add64(oddStarts, bslash, 0)
	st.prevEscaped = carry
	return (swarEven ^ (seq << 1)) & follows
}

// BlockMasks is the full structural index of one 64-byte block: the raw
// per-character bitmaps plus the derived escape/in-string masks. Bit i
// describes byte i of the block.
type BlockMasks struct {
	Quote      uint64 // '"' bytes (raw, including escaped ones)
	Backslash  uint64 // '\\' bytes
	Escaped    uint64 // bytes following an odd-length backslash run
	InString   uint64 // bytes inside a string (opening quote in, closing out)
	Structural uint64 // {}[],: outside strings
	Open       uint64 // '{' and '[' outside strings
	Close      uint64 // '}' and ']' outside strings
	Newline    uint64 // '\n' outside strings (record separators)
	CtlInStr   uint64 // unescaped control characters inside strings (errors)
}

// rawMasks holds the parity-independent byte-classification bitmaps of one
// 64-byte block: pure character classes, before any escape or string state
// is applied. The speculative parallel indexer (specidx.go) keeps these raw
// layers per block so a chunk's masks can be finalized under either
// in-string parity after stitching.
type rawMasks struct {
	quote, bslash, open, close, comma, colon, nl, ctl uint64
}

// classifyBlock runs the SWAR character classification over one full 64-byte
// block, writing the result through r. b must have at least 64 bytes.
//
// The outparam shape (instead of returning rawMasks by value) is what lets
// IndexBlock and the speculative indexer share this one loop: the eight
// accumulators live in registers for the whole loop and are stored exactly
// once at the end, so a caller whose *rawMasks is a non-escaping stack slot
// pays one 64-byte store instead of the return-slot copy that made the
// by-value version ~14% slower for the fused sequential builder.
func classifyBlock(b []byte, r *rawMasks) {
	var quote, bslash, open, close, comma, colon, nl, ctl uint64
	_ = b[63]
	for w := 0; w < 8; w++ {
		x := binary.LittleEndian.Uint64(b[8*w:])
		m := x | swarBit5
		sh := uint(8 * w)
		quote |= packHighBits(zeroLanes(x^swarQuote)) << sh
		bslash |= packHighBits(zeroLanes(x^swarBsl)) << sh
		open |= packHighBits(zeroLanes(m^swarOpen)) << sh
		close |= packHighBits(zeroLanes(m^swarClose)) << sh
		comma |= packHighBits(zeroLanes(x^swarComma)) << sh
		colon |= packHighBits(zeroLanes(x^swarColon)) << sh
		nl |= packHighBits(zeroLanes(x^swarNL)) << sh
		ctl |= packHighBits(zeroLanes(x&swarCtl)) << sh
	}
	*r = rawMasks{quote, bslash, open, close, comma, colon, nl, ctl}
}

// derive applies resolved escape and in-string masks to the raw character
// classes, producing the block's final structural index.
func (r rawMasks) derive(escaped, inStr uint64) BlockMasks {
	return BlockMasks{
		Quote:      r.quote,
		Backslash:  r.bslash,
		Escaped:    escaped,
		InString:   inStr,
		Structural: (r.open | r.close | r.comma | r.colon) &^ inStr,
		Open:       r.open &^ inStr,
		Close:      r.close &^ inStr,
		Newline:    r.nl &^ inStr,
		CtlInStr:   r.ctl & inStr &^ escaped,
	}
}

// IndexBlock runs phase 1 over one full 64-byte block, emitting every bitmap
// layer. b must have at least 64 bytes. It is the reference entry point the
// differential tests and the bitmap-builder benchmark exercise; the skip and
// string hot loops use slimmer internal variants of the same arithmetic.
//
// The classification loop is shared with the speculative indexer via
// classifyBlock; its outparam shape keeps this path free of the return-slot
// copy that an earlier by-value version paid (the fused-loop bounds in
// parse_bench_test.go pin the throughput either way).
func IndexBlock(b []byte, st *StructState) BlockMasks {
	var r rawMasks
	classifyBlock(b, &r)
	escaped := st.findEscaped(r.bslash)
	inStr := prefixXor(r.quote&^escaped) ^ st.prevInString
	st.prevInString = uint64(int64(inStr) >> 63)
	return r.derive(escaped, inStr)
}

// stringEventMask flags the bytes of one word that the string scanner must
// look at: quotes, backslashes and control characters. Loose semantics
// (false positives possible above the first event only): callers take the
// lowest set bit, which is always a real event, or rely on zero meaning
// "nothing here".
func stringEventMask(x uint64) uint64 {
	return (looseZeroLanes(x^swarQuote) | looseZeroLanes(x^swarBsl) |
		looseZeroLanes(x&swarCtl)) & swarHi
}

// structEventMask flags the bytes of one word that matter outside a string:
// quotes and the four brackets. The brackets cost three ops total: |0x20
// folds them into 0x7b/0x7d, and a biased add overflows bit 7 exactly for
// folded lanes >= 0x7b (the add is per-lane exact — bit 7 is cleared first,
// so no carry crosses lanes). The fold-range also admits a few bytes that
// are never structural (\ ^ _ | ~ DEL and some non-ASCII); those and the
// loose-quote false positives are fine because callers re-check the byte at
// the reported position and skip non-events, which do not change the skip
// scanner's state outside a string. Commas, colons and
// whitespace never change the skip scanner's state and are not probed.
func structEventMask(x uint64) uint64 {
	return (looseZeroLanes(x^swarQuote) | (((x | swarBit5) & swar7F) + swar05)) & swarHi
}

// stringSeek returns the position of the next string event (quote, backslash
// or control byte) at or after p, or len(buf) when the window holds none. The
// word probes use loose masks, whose lowest set bit is always a real event,
// so the returned position is exact. The three-deep structure — 64-byte
// unrolled probes, single-word probes, byte tail — keeps every load free of
// bounds checks: the re-sliced window w has constant length, so the
// constant-index loads inside it need no checks at all.
func stringSeek(buf []byte, p int) int {
	for len(buf)-p >= 64 {
		w := buf[p : p+64 : p+64]
		m0 := stringEventMask(binary.LittleEndian.Uint64(w[0:8]))
		m1 := stringEventMask(binary.LittleEndian.Uint64(w[8:16]))
		m2 := stringEventMask(binary.LittleEndian.Uint64(w[16:24]))
		m3 := stringEventMask(binary.LittleEndian.Uint64(w[24:32]))
		if m0|m1|m2|m3 != 0 {
			switch {
			case m0 != 0:
				return p + bits.TrailingZeros64(m0)>>3
			case m1 != 0:
				return p + 8 + bits.TrailingZeros64(m1)>>3
			case m2 != 0:
				return p + 16 + bits.TrailingZeros64(m2)>>3
			default:
				return p + 24 + bits.TrailingZeros64(m3)>>3
			}
		}
		m0 = stringEventMask(binary.LittleEndian.Uint64(w[32:40]))
		m1 = stringEventMask(binary.LittleEndian.Uint64(w[40:48]))
		m2 = stringEventMask(binary.LittleEndian.Uint64(w[48:56]))
		m3 = stringEventMask(binary.LittleEndian.Uint64(w[56:64]))
		if m0|m1|m2|m3 != 0 {
			switch {
			case m0 != 0:
				return p + 32 + bits.TrailingZeros64(m0)>>3
			case m1 != 0:
				return p + 40 + bits.TrailingZeros64(m1)>>3
			case m2 != 0:
				return p + 48 + bits.TrailingZeros64(m2)>>3
			default:
				return p + 56 + bits.TrailingZeros64(m3)>>3
			}
		}
		p += 64
	}
	for len(buf)-p >= 8 {
		w := buf[p : p+8 : p+8]
		m := stringEventMask(binary.LittleEndian.Uint64(w))
		if m == 0 {
			p += 8
			continue
		}
		return p + bits.TrailingZeros64(m)>>3
	}
	for p < len(buf) {
		if c := buf[p]; c == '"' || c == '\\' || c < 0x20 {
			return p
		}
		p++
	}
	return p
}

// structSeek returns the position of the next structural-event candidate
// outside a string (a quote or one of the four brackets) at or after p, or
// len(buf) when the window holds none. Unlike stringSeek the word probes may
// report a position holding a fold-range false positive (see structEventMask)
// — never a miss — so callers re-check the byte and step over non-events.
// Bounds-check story as in stringSeek.
func structSeek(buf []byte, p int) int {
	for len(buf)-p >= 64 {
		w := buf[p : p+64 : p+64]
		m0 := structEventMask(binary.LittleEndian.Uint64(w[0:8]))
		m1 := structEventMask(binary.LittleEndian.Uint64(w[8:16]))
		m2 := structEventMask(binary.LittleEndian.Uint64(w[16:24]))
		m3 := structEventMask(binary.LittleEndian.Uint64(w[24:32]))
		if m0|m1|m2|m3 != 0 {
			switch {
			case m0 != 0:
				return p + bits.TrailingZeros64(m0)>>3
			case m1 != 0:
				return p + 8 + bits.TrailingZeros64(m1)>>3
			case m2 != 0:
				return p + 16 + bits.TrailingZeros64(m2)>>3
			default:
				return p + 24 + bits.TrailingZeros64(m3)>>3
			}
		}
		m0 = structEventMask(binary.LittleEndian.Uint64(w[32:40]))
		m1 = structEventMask(binary.LittleEndian.Uint64(w[40:48]))
		m2 = structEventMask(binary.LittleEndian.Uint64(w[48:56]))
		m3 = structEventMask(binary.LittleEndian.Uint64(w[56:64]))
		if m0|m1|m2|m3 != 0 {
			switch {
			case m0 != 0:
				return p + 32 + bits.TrailingZeros64(m0)>>3
			case m1 != 0:
				return p + 40 + bits.TrailingZeros64(m1)>>3
			case m2 != 0:
				return p + 48 + bits.TrailingZeros64(m2)>>3
			default:
				return p + 56 + bits.TrailingZeros64(m3)>>3
			}
		}
		p += 64
	}
	for len(buf)-p >= 8 {
		w := buf[p : p+8 : p+8]
		m := structEventMask(binary.LittleEndian.Uint64(w))
		if m == 0 {
			p += 8
			continue
		}
		return p + bits.TrailingZeros64(m)>>3
	}
	for p < len(buf) {
		switch buf[p] {
		case '"', '{', '[', '}', ']':
			return p
		}
		p++
	}
	return p
}

// BoundaryScanner is the phase-2 record-boundary iterator: fed the raw bytes
// of a newline-delimited file in order (it is an io.Writer, designed to sit
// on a TeeReader under a streaming scan), it walks the newline-outside-string
// bitmap and records the first record start — the byte after a '\n' that
// lies outside every string — at or after each multiple of grain. The
// resulting split offsets are exact morsel boundaries: every one is the true
// start of a record, with string state tracked from offset 0, so a newline
// escape sequence (or any quote/backslash run) straddling a would-be
// boundary can never produce a bogus split.
//
// The zero grain means "every record start" — unbounded memory on big files,
// meant for tests. Peak state is otherwise O(splits), i.e. O(file/grain).
type BoundaryScanner struct {
	st     StructState
	off    int64 // absolute offset of tail[0] (== bytes consumed - ntail)
	grain  int64
	next   int64 // smallest grid point not yet satisfied
	splits []int64
	tail   [64]byte // partial block carried between Write calls
	ntail  int
}

// NewBoundaryScanner returns a scanner that records the first record start
// at or after every multiple of grain bytes (every record start when grain
// is 0). Offset 0 is always an implicit record start and is not recorded.
func NewBoundaryScanner(grain int64) *BoundaryScanner {
	if grain < 0 {
		grain = 0
	}
	s := &BoundaryScanner{grain: grain}
	s.next = grain
	if grain == 0 {
		s.next = 1
	}
	return s
}

// Write feeds the next bytes of the file. It never fails; the error is for
// io.Writer conformance.
func (s *BoundaryScanner) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if s.ntail > 0 || len(p) < 64 {
			c := copy(s.tail[s.ntail:], p)
			s.ntail += c
			p = p[c:]
			if s.ntail == 64 {
				s.block(s.tail[:])
				s.off += 64
				s.ntail = 0
			}
			continue
		}
		s.block(p[:64])
		s.off += 64
		p = p[64:]
	}
	return n, nil
}

// Close flushes the partial final block. Padding bytes are zero, which can
// never be '\n', so they add no boundaries.
func (s *BoundaryScanner) Close() error {
	if s.ntail > 0 {
		for i := s.ntail; i < 64; i++ {
			s.tail[i] = 0
		}
		s.block(s.tail[:])
		s.off += int64(s.ntail)
		s.ntail = 0
	}
	return nil
}

// Splits returns the recorded record-start offsets, ascending. Call after
// Close.
func (s *BoundaryScanner) Splits() []int64 { return s.splits }

func (s *BoundaryScanner) block(b []byte) {
	m := IndexBlock(b, &s.st)
	nl := m.Newline
	for nl != 0 {
		i := bits.TrailingZeros64(nl)
		nl &= nl - 1
		start := s.off + int64(i) + 1
		if start < s.next {
			continue
		}
		s.splits = append(s.splits, start)
		if s.grain == 0 {
			s.next = start + 1
		} else {
			s.next = (start/s.grain + 1) * s.grain
		}
	}
}
