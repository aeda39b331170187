// Package jsonparse implements raw-JSON processing for the engine: a
// low-level tokenizer, a tree parser producing item.Item values, and a
// streaming path projector that extracts only the items matching a
// projection path without materializing the rest of the document. The
// projector is the mechanism behind the DATASCAN operator's second argument
// (§4.2 of the paper): it is what lets the engine forward one small object
// at a time instead of whole files. The DATASCAN itself runs the projector
// with a Transcoder at its leaves, which writes each projected value's
// binary item encoding straight from the tokens without building items.
//
// The tokenizer reads through a fixed-size refillable chunk buffer, so a
// document streamed from an io.Reader is never materialized: peak memory is
// O(chunk size), not O(file size). Error offsets are absolute file offsets.
//
// The tokenizer is on-demand: string tokens are exposed as byte-slice views
// (StrBytes) that stay valid until the lexer next advances, object keys that
// must be materialized share one string through an intern table (InternKey),
// and number tokens carry their raw text — shape-validated eagerly, but
// converted to float64 only when a consumer calls NumValue. Subtrees that a
// projection discards are skipped by SkipValueRaw, a structural scan over
// raw bytes that never materializes tokens at all.
package jsonparse

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
	"unicode/utf8"

	"vxq/internal/item"
)

// TokenKind identifies a JSON token.
type TokenKind uint8

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokLBrace
	TokRBrace
	TokLBracket
	TokRBracket
	TokColon
	TokComma
	TokString
	TokNumber
	TokTrue
	TokFalse
	TokNull
)

func (k TokenKind) String() string {
	switch k {
	case TokEOF:
		return "EOF"
	case TokLBrace:
		return "{"
	case TokRBrace:
		return "}"
	case TokLBracket:
		return "["
	case TokRBracket:
		return "]"
	case TokColon:
		return ":"
	case TokComma:
		return ","
	case TokString:
		return "string"
	case TokNumber:
		return "number"
	case TokTrue:
		return "true"
	case TokFalse:
		return "false"
	case TokNull:
		return "null"
	default:
		return fmt.Sprintf("token(%d)", uint8(k))
	}
}

// DefaultChunkSize is the default capacity of a streaming lexer's refill
// buffer (and the read granularity of the reader-based Parse/Project entry
// points). It is the unit charged to the memory accountant by streaming
// scans.
const DefaultChunkSize = 64 << 10

// minChunkSize bounds the chunk buffer from below: the lexer needs a few
// bytes of contiguous lookahead (the "false" literal, \uXXXX escapes with a
// surrogate-pair peek), and compaction must always be able to retain them.
const minChunkSize = 64

// Lexer tokenizes a JSON document, either held fully in memory or streamed
// from an io.Reader through a fixed-size chunk buffer. It is
// zero-allocation for structural tokens and for unescaped strings that do
// not span a refill boundary.
type Lexer struct {
	r    io.Reader // nil when the whole input is in buf
	buf  []byte    // chunk buffer (the whole input for slice lexers)
	pos  int       // cursor into buf[:end]
	end  int       // number of valid bytes in buf
	base int64     // absolute file offset of buf[0]
	eof  bool      // no bytes exist beyond buf[:end]

	// lineStart is the absolute offset just past the most recent '\n' the
	// lexer consumed as inter-token whitespace (or the stream's starting
	// offset if none yet). For newline-delimited records — where newlines
	// only ever appear between top-level values — it is the starting offset
	// of the line the cursor is on, which is the anchor of the morsel
	// ownership rule (see ScanValues and LineStart).
	lineStart int64

	// scratch accumulates the bytes of a token that spans refills (or
	// contains escapes); it is reused across tokens.
	scratch []byte

	// keyScratch holds the key bytes objectMember returns when its tokenizer
	// fallback runs: the colon advance that follows can refill and compact
	// the chunk buffer, so a zero-copy view of the key would be shifted out
	// from under the caller. Reused across members.
	keyScratch []byte

	// intern maps object-key bytes to a shared string so a key that repeats
	// across millions of records is materialized once (see InternKey).
	intern map[string]string

	// strItems caches boxed item.String values the same way intern caches
	// key strings: projected low-cardinality string fields (enum-like codes
	// such as "TMIN") repeat across millions of records, and reusing the
	// boxed item removes both the string copy and the interface allocation
	// from the per-record path (see internStringItem).
	strItems map[string]item.Item

	// refSkip consumes discarded subtrees through the tokenizer (the
	// token-level reference) instead of the structural-index kernel. See
	// SetReferenceSkip.
	refSkip bool

	// Current token state, valid after Next.
	Kind TokenKind
	// str is the decoded string value when Kind==TokString: a view into the
	// chunk buffer or the scratch buffer, valid only until the lexer next
	// advances (Next, AtEOF, SkipValueRaw, ...).
	str []byte
	// numRaw is the raw (shape-validated) text when Kind==TokNumber, a view
	// with the same lifetime as str; numOff is its absolute offset and
	// numFloat records whether it has a fraction or exponent part.
	numRaw   []byte
	numOff   int64
	numFloat bool
}

// NewLexer returns a lexer over an in-memory document. The slice is never
// modified.
func NewLexer(data []byte) *Lexer {
	return &Lexer{buf: data, end: len(data), eof: true}
}

// NewStreamLexer returns a lexer that tokenizes the JSON document read from
// r through a refillable chunk buffer of chunkSize bytes (DefaultChunkSize
// when chunkSize <= 0; a small floor applies so the lexer always has enough
// contiguous lookahead).
func NewStreamLexer(r io.Reader, chunkSize int) *Lexer {
	return NewStreamLexerAt(r, chunkSize, 0)
}

// NewStreamLexerAt is NewStreamLexer for a reader that does not start at the
// beginning of the file: base is the absolute offset of r's first byte, so
// Offset and error positions remain absolute file offsets. Byte-range
// (morsel) scans use it.
func NewStreamLexerAt(r io.Reader, chunkSize int, base int64) *Lexer {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	if chunkSize < minChunkSize {
		chunkSize = minChunkSize
	}
	return &Lexer{r: r, buf: make([]byte, chunkSize), base: base, lineStart: base}
}

// ResetStream rebinds a streaming lexer to a new reader whose first byte
// sits at absolute offset base, reusing the chunk buffer, the token scratch
// buffer, and the object-key intern table. It is how a scan task amortizes
// its lexer allocations across the many files and morsels it processes (the
// intern table carrying over is the point: the same record schema repeats
// across morsels). Calling it on a lexer built over an in-memory slice
// allocates a fresh chunk buffer (the slice belongs to the caller and is
// never written).
func (l *Lexer) ResetStream(r io.Reader, base int64) {
	if l.r == nil || len(l.buf) < minChunkSize {
		l.buf = make([]byte, DefaultChunkSize)
	}
	l.r = r
	l.pos, l.end = 0, 0
	l.base = base
	l.lineStart = base
	l.eof = false
	l.Kind, l.str, l.numRaw = TokEOF, nil, nil
}

// SetReferenceSkip switches the lexer's skip path to the token-level
// reference implementation (true) or back to the structural-index kernel
// (false). The reference drives the tokenizer through every token of a
// skipped value: it is the differential oracle and the before/after
// benchmark baseline; production code leaves it off.
func (l *Lexer) SetReferenceSkip(on bool) { l.refSkip = on }

// StrBytes returns the decoded string value of the current TokString token
// as a byte-slice view. The view is only valid until the lexer next
// advances; callers that keep the value must copy it (StrValue, InternKey).
func (l *Lexer) StrBytes() []byte { return l.str }

// StrValue materializes the current TokString token as a Go string.
func (l *Lexer) StrValue() string { return string(l.str) }

// maxInternEntries caps the intern table: document keys number in the dozens
// in practice, but adversarial input (random keys) must not grow the table
// without bound. Beyond the cap, keys are materialized per occurrence.
const maxInternEntries = 1 << 12

// InternKey materializes the current TokString token through the lexer's
// intern table: every occurrence of the same key bytes returns the same
// string, so a key repeated across millions of records is allocated once.
func (l *Lexer) InternKey() string { return l.internBytes(l.str) }

// internBytes is InternKey for an explicit byte view (the raw key scan
// returns key bytes without touching token state).
func (l *Lexer) internBytes(b []byte) string {
	if s, ok := l.intern[string(b)]; ok { // no-alloc map probe
		return s
	}
	s := string(b)
	if l.intern == nil {
		l.intern = make(map[string]string, 16)
	}
	if len(l.intern) < maxInternEntries {
		l.intern[s] = s
	}
	return s
}

// SkipPastNewline advances the cursor just past the next '\n' byte,
// reporting false if the input ends first. Raw newlines cannot occur inside
// JSON strings (control characters must be escaped), so in well-formed
// newline-delimited input the byte after a '\n' is always between top-level
// values — the record-alignment rule of morsel scans.
func (l *Lexer) SkipPastNewline() (bool, error) {
	for {
		for l.pos < l.end {
			if l.buf[l.pos] == '\n' {
				l.pos++
				l.lineStart = l.base + int64(l.pos)
				return true, nil
			}
			l.pos++
		}
		got, err := l.refill()
		if err != nil {
			return false, err
		}
		if !got {
			return false, nil
		}
	}
}

// AtEOF reports whether only whitespace remains in the input, consuming it.
func (l *Lexer) AtEOF() (bool, error) {
	if err := l.skipSpace(); err != nil {
		return false, err
	}
	return l.pos >= l.end, nil
}

// Offset reports the absolute byte offset of the lexer cursor in the input
// (file offset, not an index into the current chunk), useful for error
// messages.
func (l *Lexer) Offset() int { return int(l.base) + l.pos }

// LineStart reports the absolute offset just past the most recent '\n' the
// lexer consumed as inter-token whitespace (SkipPastNewline counts too), or
// the stream's starting offset if it has consumed none. With the
// newline-delimited-records contract (newlines appear only between top-level
// values, never inside one), calling it when the cursor sits at the start of
// a record yields the offset where that record's line begins — the anchor of
// the morsel ownership rule. Newlines inside a value that SkipValueRaw scans
// over are not tracked; such input violates the contract and is rejected
// loudly by misaligned morsel scans rather than silently misattributed.
func (l *Lexer) LineStart() int64 { return l.lineStart }

func (l *Lexer) errf(format string, args ...any) error {
	return l.errfAt(int64(l.Offset()), format, args...)
}

func (l *Lexer) errfAt(off int64, format string, args ...any) error {
	return fmt.Errorf("json: offset %d: %s", off, fmt.Sprintf(format, args...))
}

// refill discards the consumed prefix of the buffer and reads more input.
// It reports whether any new bytes arrived; false means end of input.
func (l *Lexer) refill() (bool, error) {
	if l.eof {
		return false, nil
	}
	if l.pos > 0 {
		l.base += int64(l.pos)
		copy(l.buf, l.buf[l.pos:l.end])
		l.end -= l.pos
		l.pos = 0
	}
	got := false
	for l.end < len(l.buf) {
		n, err := l.r.Read(l.buf[l.end:])
		l.end += n
		if n > 0 {
			got = true
		}
		if err == io.EOF {
			l.eof = true
			return got, nil
		}
		if err != nil {
			l.eof = true
			return got, l.errf("read: %v", err)
		}
		if n > 0 {
			return true, nil
		}
	}
	return got, nil
}

// ensure makes at least n contiguous bytes available at buf[pos:],
// refilling as needed; it reports false when the input ends first.
// n must not exceed minChunkSize.
func (l *Lexer) ensure(n int) (bool, error) {
	for l.end-l.pos < n {
		got, err := l.refill()
		if err != nil {
			return false, err
		}
		if !got {
			return false, nil
		}
	}
	return true, nil
}

// skipSpace consumes inter-token whitespace. The body is a single compare so
// the call inlines everywhere: compact JSON has no whitespace between tokens
// at all, and every byte above 0x20 starts a token.
func (l *Lexer) skipSpace() error {
	if l.pos < l.end && l.buf[l.pos] > 0x20 {
		return nil
	}
	return l.skipSpaceSlow()
}

func (l *Lexer) skipSpaceSlow() error {
	for {
		for l.pos < l.end {
			switch l.buf[l.pos] {
			case '\n':
				l.pos++
				l.lineStart = l.base + int64(l.pos)
			case ' ', '\t', '\r':
				l.pos++
			default:
				return nil
			}
		}
		got, err := l.refill()
		if err != nil {
			return err
		}
		if !got {
			return nil
		}
	}
}

// Next advances to the next token, setting Kind (and Str/Num as applicable).
func (l *Lexer) Next() error {
	if err := l.skipSpace(); err != nil {
		return err
	}
	if l.pos >= l.end {
		l.Kind = TokEOF
		return nil
	}
	c := l.buf[l.pos]
	switch c {
	case '{':
		l.Kind, l.pos = TokLBrace, l.pos+1
	case '}':
		l.Kind, l.pos = TokRBrace, l.pos+1
	case '[':
		l.Kind, l.pos = TokLBracket, l.pos+1
	case ']':
		l.Kind, l.pos = TokRBracket, l.pos+1
	case ':':
		l.Kind, l.pos = TokColon, l.pos+1
	case ',':
		l.Kind, l.pos = TokComma, l.pos+1
	case '"':
		s, err := l.scanString()
		if err != nil {
			return err
		}
		l.Kind, l.str = TokString, s
	case 't':
		if err := l.scanWord("true"); err != nil {
			return err
		}
		l.Kind = TokTrue
	case 'f':
		if err := l.scanWord("false"); err != nil {
			return err
		}
		l.Kind = TokFalse
	case 'n':
		if err := l.scanWord("null"); err != nil {
			return err
		}
		l.Kind = TokNull
	default:
		if c == '-' || (c >= '0' && c <= '9') {
			if err := l.scanNumber(); err != nil {
				return err
			}
			l.Kind = TokNumber
			return nil
		}
		return l.errf("unexpected character %q", c)
	}
	return nil
}

func (l *Lexer) scanWord(w string) error {
	ok, err := l.ensure(len(w))
	if err != nil {
		return err
	}
	if !ok || string(l.buf[l.pos:l.pos+len(w)]) != w {
		return l.errf("invalid literal")
	}
	l.pos += len(w)
	return nil
}

// Number-scanner states. The scanner is grammar-driven: the token ends at
// the first byte that is not a valid continuation (matching encoding/json's
// token boundaries exactly, including the leading-zero rule), instead of
// swallowing a maximal run of number-shaped characters and validating after.
type numState uint8

const (
	numNeg     numState = iota // consumed '-', expect first integer digit
	numZero                    // consumed a leading '0' (accepting; no more integer digits)
	numInt                     // consuming 1-9... integer digits (accepting)
	numDot                     // consumed '.', expect first fraction digit
	numFrac                    // consuming fraction digits (accepting)
	numExpE                    // consumed e/E, expect exponent sign or digit
	numExpSign                 // consumed exponent sign, expect exponent digit
	numExp                     // consuming exponent digits (accepting)
)

// numStep advances the number grammar by one byte, reporting whether the
// byte belongs to the token (ok=false means the token ends before c).
func numStep(st numState, c byte) (numState, bool) {
	switch st {
	case numNeg:
		if c == '0' {
			return numZero, true
		}
		if c >= '1' && c <= '9' {
			return numInt, true
		}
	case numZero:
		if c == '.' {
			return numDot, true
		}
		if c == 'e' || c == 'E' {
			return numExpE, true
		}
	case numInt:
		if c >= '0' && c <= '9' {
			return numInt, true
		}
		if c == '.' {
			return numDot, true
		}
		if c == 'e' || c == 'E' {
			return numExpE, true
		}
	case numDot:
		if c >= '0' && c <= '9' {
			return numFrac, true
		}
	case numFrac:
		if c >= '0' && c <= '9' {
			return numFrac, true
		}
		if c == 'e' || c == 'E' {
			return numExpE, true
		}
	case numExpE:
		if c == '+' || c == '-' {
			return numExpSign, true
		}
		if c >= '0' && c <= '9' {
			return numExp, true
		}
	case numExpSign:
		if c >= '0' && c <= '9' {
			return numExp, true
		}
	case numExp:
		if c >= '0' && c <= '9' {
			return numExp, true
		}
	}
	return st, false
}

// scanNumber collects one number token into a view (numRaw), deferring the
// float64 conversion to NumValue. The token almost always sits inside one
// chunk (fast path: the view aliases the buffer); when it crosses a refill
// boundary it is accumulated in scratch so the view survives compaction.
func (l *Lexer) scanNumber() error {
	off := int64(l.Offset())
	l.scratch = l.scratch[:0]
	useScratch := false
	start := l.pos
	isFloat := false
	// The first byte is '-' or a digit (Next dispatched on it).
	var st numState
	switch c := l.buf[l.pos]; {
	case c == '-':
		st = numNeg
	case c == '0':
		st = numZero
	default:
		st = numInt
	}
	l.pos++
	for {
		if l.pos >= l.end {
			// Window exhausted mid-token: stash the segment and refill.
			l.scratch = append(l.scratch, l.buf[start:l.pos]...)
			useScratch = true
			got, err := l.refill()
			if err != nil {
				return err
			}
			start = l.pos
			if !got {
				break // end of input ends the token
			}
			continue
		}
		c := l.buf[l.pos]
		next, ok := numStep(st, c)
		if !ok {
			break // c belongs to the next token
		}
		if c == '.' || c == 'e' || c == 'E' {
			isFloat = true
		}
		st = next
		l.pos++
	}
	switch st {
	case numNeg:
		return l.errfAt(off, "malformed number")
	case numDot:
		return l.errfAt(off, "malformed number: no digits after point")
	case numExpE, numExpSign:
		return l.errfAt(off, "malformed number: no exponent digits")
	}
	var text []byte
	if !useScratch {
		text = l.buf[start:l.pos]
	} else {
		l.scratch = append(l.scratch, l.buf[start:l.pos]...)
		text = l.scratch
	}
	l.numRaw, l.numOff, l.numFloat = text, off, isFloat
	return nil
}

// pow10 holds the powers of ten that float64 represents exactly, the divisor
// range of the no-alloc decimal fast path.
var pow10 = [23]float64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// NumValue converts the current TokNumber token. The integer and
// simple-decimal forms that dominate sensor data convert without allocating:
// a mantissa of at most 15 digits and no exponent is exact in float64, and
// dividing it by an exactly-representable power of ten is a single correctly
// rounded operation, so the result is bit-identical to strconv's. Everything
// else falls back to strconv.ParseFloat. Out-of-range values (e.g. 1e999)
// report the same malformed-number error the eager lexer did, now at first
// use instead of at tokenization.
func (l *Lexer) NumValue() (float64, error) {
	text := l.numRaw
	if !l.numFloat && len(text) <= 15 {
		// Fast integer path (fits float64 exactly).
		neg := false
		i := 0
		if text[0] == '-' {
			neg, i = true, 1
		}
		var v int64
		for ; i < len(text); i++ {
			v = v*10 + int64(text[i]-'0')
		}
		// Negate in the float domain: int64 has no signed zero, so "-0"
		// negated as an integer would lose its sign bit (strconv yields -0.0).
		f := float64(v)
		if neg {
			f = -f
		}
		return f, nil
	}
	// Fast decimal path: [-]digits.digits with <= 15 significant digits and
	// a fraction short enough that its power-of-ten divisor is exact.
	if l.numFloat {
		neg := false
		i := 0
		if text[0] == '-' {
			neg, i = true, 1
		}
		var mant int64
		digits, frac := 0, -1
		ok := true
		for ; i < len(text); i++ {
			c := text[i]
			if c == '.' {
				frac = 0
				continue
			}
			if c < '0' || c > '9' {
				ok = false // exponent form: fall back
				break
			}
			mant = mant*10 + int64(c-'0')
			digits++
			if frac >= 0 {
				frac++
			}
		}
		if ok && digits <= 15 && frac >= 1 && frac < len(pow10) {
			f := float64(mant) / pow10[frac]
			if neg {
				f = -f
			}
			return f, nil
		}
	}
	f, err := strconv.ParseFloat(string(text), 64)
	if err != nil || math.IsInf(f, 0) {
		return 0, l.errfAt(l.numOff, "malformed number %q", text)
	}
	return f, nil
}

func (l *Lexer) scanString() ([]byte, error) {
	// l.buf[l.pos] == '"'. Unescaped segments are scanned in place; as soon
	// as the string contains an escape or spans a refill boundary the
	// decoded bytes accumulate in scratch instead, so the value never
	// depends on buffer contents that compaction may discard. The returned
	// slice is a view (into buf or scratch), not a copy: it stays valid only
	// until the lexer next advances.
	l.pos++
	l.scratch = l.scratch[:0]
	direct := true // the value is a single in-buffer segment, no copy yet
	segStart := l.pos
	for {
		p := l.pos
		for p < l.end {
			// Word-at-a-time fast path: jump straight to the next byte the
			// scanner must look at (quote, backslash or control byte). The
			// loose event mask can set false-positive bits, but only above
			// its lowest set bit, which is always a real event — and an
			// all-zero mask exactly means the word is plain text.
			if l.end-p >= 8 {
				m := stringEventMask(binary.LittleEndian.Uint64(l.buf[p:]))
				if m == 0 {
					p += 8
					continue
				}
				p += bits.TrailingZeros64(m) >> 3
			}
			c := l.buf[p]
			if c == '"' {
				var s []byte
				if direct {
					s = l.buf[segStart:p]
				} else {
					l.scratch = append(l.scratch, l.buf[segStart:p]...)
					s = l.scratch
				}
				l.pos = p + 1
				return s, nil
			}
			if c == '\\' {
				l.scratch = append(l.scratch, l.buf[segStart:p]...)
				direct = false
				l.pos = p
				if err := l.scanEscape(); err != nil {
					return nil, err
				}
				segStart = l.pos
				p = l.pos
				continue
			}
			if c < 0x20 {
				l.pos = p
				return nil, l.errf("control character in string")
			}
			p++
		}
		// End of window without a closing quote: stash the segment scanned
		// so far and refill.
		l.scratch = append(l.scratch, l.buf[segStart:p]...)
		direct = false
		l.pos = p
		got, err := l.refill()
		if err != nil {
			return nil, err
		}
		if !got {
			return nil, l.errf("unterminated string")
		}
		segStart = l.pos
	}
}

// SkipNextValue consumes the JSON value that begins at the cursor (after
// inter-token whitespace) without tokenizing its first token: the projector
// uses it for object members whose key did not match, so a discarded string
// is never escape-decoded into scratch and a discarded container goes
// straight to the structural skip. On return the lexer's token state is the
// value's closing token where that is cheap to report (containers, strings)
// and unspecified otherwise; callers always advance with Next before reading
// tokens again. In reference mode it runs the tokenizer over the whole
// value, making it the same differential surface as SkipValueRaw.
func (l *Lexer) SkipNextValue() error {
	if l.refSkip {
		if err := l.Next(); err != nil {
			return err
		}
		return skipValue(l)
	}
	if err := l.skipSpace(); err != nil {
		return err
	}
	if l.pos >= l.end {
		return l.errf("unexpected end of input")
	}
	switch c := l.buf[l.pos]; c {
	case '"':
		l.pos++
		// One inline word probe resolves short escape-free values ("TMIN",
		// enum-like codes) without the scan-loop call.
		if p := l.pos; l.end-p >= 8 {
			w := l.buf[p : p+8 : p+8]
			if m := stringEventMask(binary.LittleEndian.Uint64(w)); m != 0 {
				if q := p + bits.TrailingZeros64(m)>>3; l.buf[q] == '"' {
					l.pos = q + 1
					l.Kind, l.str = TokString, nil
					return nil
				}
			}
		}
		if err := l.skipStringRaw(); err != nil {
			return err
		}
		l.Kind, l.str = TokString, nil
		return nil
	case '{':
		l.pos++
		return l.skipContainer(TokLBrace, 1)
	case '[':
		l.pos++
		return l.skipContainer(TokLBracket, 1)
	default:
		if c == '-' || (c >= '0' && c <= '9') {
			// Numbers are skipped as a raw run of number characters, with no
			// grammar check. On token-valid input the run ends exactly where
			// the tokenized number does (the next byte is always whitespace
			// or a structural), so the extents agree; on input the token
			// reference rejects, the run is merely more permissive — the
			// same one-directional contract the container skip has for
			// malformed escapes and misplaced separators.
			l.pos++
			for {
				buf, p := l.buf[:l.end], l.pos
				for p < len(buf) {
					c := buf[p]
					if ('0' <= c && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-' {
						p++
						continue
					}
					break
				}
				l.pos = p
				if p < len(buf) {
					l.Kind, l.numRaw = TokNumber, nil
					return nil
				}
				got, err := l.refill()
				if err != nil {
					return err
				}
				if !got {
					l.Kind, l.numRaw = TokNumber, nil
					return nil
				}
			}
		}
		// Literals keep full tokenization: the checks are cheap relative to
		// the dispatch, and reusing Next keeps the token-mode extents (and
		// errors) exactly aligned.
		if err := l.Next(); err != nil {
			return err
		}
		switch l.Kind {
		case TokNull, TokTrue, TokFalse, TokNumber, TokString:
			return nil
		default:
			return fmt.Errorf("json: offset %d: unexpected token %s", l.Offset(), l.Kind)
		}
	}
}

// skipStringRaw consumes a string body (cursor just past the opening quote)
// without decoding it: escapes are stepped over, not validated or expanded,
// and nothing is copied to scratch. The word-at-a-time event jump probes four
// words per iteration, so long string bodies cost one masked compare per
// eight bytes with the branches amortized.
func (l *Lexer) skipStringRaw() error {
	esc := false // a backslash was the last byte before a window edge
	for {
		buf, p := l.buf[:l.end], l.pos
		if esc && p < len(buf) {
			esc = false
			p++
		}
		for p < len(buf) {
			if p = stringSeek(buf, p); p >= len(buf) {
				break
			}
			switch c := buf[p]; {
			case c == '"':
				l.pos = p + 1
				return nil
			case c == '\\':
				if len(buf)-p >= 2 {
					p += 2
					continue
				}
				esc = true
				p = len(buf)
				continue
			case c < 0x20:
				l.pos = p
				return l.errf("control character in string")
			default:
				p++
			}
		}
		l.pos = p
		got, err := l.refill()
		if err != nil {
			return err
		}
		if !got {
			return l.errf("unterminated string")
		}
	}
}

// objectMember steps the projector through one object-member boundary in a
// single pass: with first set it runs right after the '{' (where '}' closes
// the object), otherwise right after a member's value (where it consumes the
// separating ',' — or reports the close). It then scans `"key":` and returns
// a view of the raw key bytes. The fast path finds the closing quote by
// event mask and the colon bytewise inside the current window, touching no
// token state and copying nothing; keys with escapes, keys spanning a refill
// edge, and every malformed shape fall back to the tokenizer, which owns the
// error reporting. The view is valid until the lexer next advances.
func (l *Lexer) objectMember(first bool) (key []byte, closed bool, err error) {
	if l.refSkip {
		return l.objectMemberTokens(first)
	}
	if err := l.skipSpace(); err != nil {
		return nil, false, err
	}
	if !first {
		if l.pos >= l.end {
			// Tokenizer path reports the EOF with its usual wording.
			if err := l.Next(); err != nil {
				return nil, false, err
			}
			return nil, false, fmt.Errorf("json: offset %d: expected ',' or '}', got %s", l.Offset(), l.Kind)
		}
		switch l.buf[l.pos] {
		case ',':
			l.pos++
			if err := l.skipSpace(); err != nil {
				return nil, false, err
			}
		case '}':
			l.pos++
			l.Kind = TokRBrace
			return nil, true, nil
		default:
			if err := l.Next(); err != nil {
				return nil, false, err
			}
			return nil, false, fmt.Errorf("json: offset %d: expected ',' or '}', got %s", l.Offset(), l.Kind)
		}
	}
	if l.pos < l.end {
		switch l.buf[l.pos] {
		case '}':
			l.pos++
			l.Kind = TokRBrace
			if !first {
				return nil, false, fmt.Errorf("json: offset %d: expected object key, got %s", l.Offset(), l.Kind)
			}
			return nil, true, nil
		case '"':
			buf := l.buf[:l.end]
			p := l.pos + 1
			// Short keys resolve with one inline word probe; longer or
			// escape-bearing ones take the seek call.
			if len(buf)-p >= 8 {
				w := buf[p : p+8 : p+8]
				if m := stringEventMask(binary.LittleEndian.Uint64(w)); m != 0 {
					p += bits.TrailingZeros64(m) >> 3
				} else {
					p = stringSeek(buf, p+8)
				}
			} else {
				p = stringSeek(buf, p)
			}
			if p < len(buf) && buf[p] == '"' {
				kb := buf[l.pos+1 : p]
				// The colon search stays inside the window so the key
				// view cannot be shifted by a refill. '\n' defers to
				// the tokenizer, which maintains LineStart.
				for q := p + 1; q < len(buf); q++ {
					switch buf[q] {
					case ':':
						l.pos = q + 1
						l.Kind = TokColon
						return kb, false, nil
					case ' ', '\t', '\r':
					default:
						q = len(buf)
					}
				}
			}
			// Escaped or window-spanning keys, and every malformed
			// shape, fall through to the tokenizer below.
		}
	}
	// Tokenizer path: decoded keys, window edges, and error reporting.
	if err := l.Next(); err != nil {
		return nil, false, err
	}
	if l.Kind == TokRBrace {
		if !first {
			return nil, false, fmt.Errorf("json: offset %d: expected object key, got %s", l.Offset(), l.Kind)
		}
		return nil, true, nil
	}
	if l.Kind != TokString {
		return nil, false, fmt.Errorf("json: offset %d: expected object key, got %s", l.Offset(), l.Kind)
	}
	// The colon advance below may refill and compact the chunk buffer, so
	// the key must be copied out of it first (l.str is a zero-copy view).
	l.keyScratch = append(l.keyScratch[:0], l.str...)
	if err := l.Next(); err != nil {
		return nil, false, err
	}
	if l.Kind != TokColon {
		return nil, false, fmt.Errorf("json: offset %d: expected ':', got %s", l.Offset(), l.Kind)
	}
	return l.keyScratch, false, nil
}

// objectMemberTokens is the token-mode twin of objectMember: every member
// boundary, key and colon is consumed through Next, so reference-mode runs
// pay full tokenization and the differential suite exercises a pure
// token-level surface.
func (l *Lexer) objectMemberTokens(first bool) (key []byte, closed bool, err error) {
	if !first {
		if err := l.Next(); err != nil {
			return nil, false, err
		}
		switch l.Kind {
		case TokComma:
		case TokRBrace:
			return nil, true, nil
		default:
			return nil, false, fmt.Errorf("json: offset %d: expected ',' or '}', got %s", l.Offset(), l.Kind)
		}
	}
	if err := l.Next(); err != nil {
		return nil, false, err
	}
	if l.Kind == TokRBrace {
		if !first {
			return nil, false, fmt.Errorf("json: offset %d: expected object key, got %s", l.Offset(), l.Kind)
		}
		return nil, true, nil
	}
	if l.Kind != TokString {
		return nil, false, fmt.Errorf("json: offset %d: expected object key, got %s", l.Offset(), l.Kind)
	}
	l.keyScratch = append(l.keyScratch[:0], l.str...)
	if err := l.Next(); err != nil {
		return nil, false, err
	}
	if l.Kind != TokColon {
		return nil, false, fmt.Errorf("json: offset %d: expected ':', got %s", l.Offset(), l.Kind)
	}
	return l.keyScratch, false, nil
}

// SkipValueRaw advances over the value whose first token is the current
// token without tokenizing its interior: a structural scan over raw bytes
// that tracks brace/bracket depth and string boundaries, never unescapes
// strings, never shape-checks numbers, and never materializes anything. On
// return the current token is the value's closing token, exactly as if the
// token-level reference skip had run — differential tests assert the two
// consume byte-for-byte the same extent on all valid input.
//
// Malformed input inside the skipped region is detected only at structural
// granularity: unbalanced braces/brackets/quotes, raw control characters in
// strings, and truncated input still error; bad escapes, malformed numbers,
// and misplaced colons/commas pass silently (see DESIGN.md, "On-demand scan
// kernel").
func (l *Lexer) SkipValueRaw() error {
	switch l.Kind {
	case TokNull, TokTrue, TokFalse, TokNumber, TokString:
		return nil // scalars are fully consumed by Next
	case TokLBrace, TokLBracket:
	default:
		return fmt.Errorf("json: offset %d: unexpected token %s", l.Offset(), l.Kind)
	}
	return l.skipContainer(l.Kind, 1)
}

// skipContainer consumes the rest of an already-opened container (the cursor
// sits just past the open bracket, depth brackets deep). It is the phase-2
// navigator of the structural index: a two-arm word-jump machine that
// consults the per-word event bitmaps from structidx.go and only ever
// touches bytes that can change the scanner's state. The split into arms is what makes the probes cheap: outside a
// string only quotes and brackets matter (structEventMask, three byte
// classes — commas, colons and whitespace are never loaded), inside a string
// only quotes, backslashes and control bytes do (stringEventMask). Each arm
// jumps from one event to the next eight bytes at a time; a whole word of
// number digits, string text or separators costs one load and one masked
// compare. Escapes are consumed positionally (backslash plus one byte), so
// no escape flag survives inside a window — only across a refill edge.
func (l *Lexer) skipContainer(open TokenKind, depth int) error {
	inStr := false
	esc := false // a backslash was the last byte before a window edge
	for {
		// The window is re-sliced to its valid extent so the length checks
		// inside the word loads fall to the loop conditions (bounds-check
		// elimination keeps the hot loops branch-lean).
		buf, p := l.buf[:l.end], l.pos
		if esc && p < len(buf) {
			esc = false
			p++
		}
		for p < len(buf) {
			if inStr {
				if p = stringSeek(buf, p); p >= len(buf) {
					break
				}
				switch c := buf[p]; {
				case c == '"':
					inStr = false
				case c == '\\':
					if len(buf)-p >= 2 {
						p += 2
						continue
					}
					esc = true
					p = len(buf)
					continue
				default:
					l.pos = p
					return l.errf("control character in string")
				}
				p++
				continue
			}
			if p = structSeek(buf, p); p >= len(buf) {
				break
			}
			switch c := buf[p]; c {
			case '"':
				inStr = true
			case '{', '[':
				depth++
			case '}', ']':
				depth--
				if depth == 0 {
					l.pos = p + 1
					if c == '}' {
						l.Kind = TokRBrace
					} else {
						l.Kind = TokRBracket
					}
					return nil
				}
			}
			p++
		}
		l.pos = p
		got, err := l.refill()
		if err != nil {
			return err
		}
		if !got {
			if inStr {
				return l.errf("unterminated string")
			}
			if open == TokLBrace {
				return fmt.Errorf("json: unexpected end of input in object")
			}
			return fmt.Errorf("json: unexpected end of input in array")
		}
	}
}

// scanEscape decodes one backslash escape (cursor on the backslash),
// appending the decoded bytes to scratch.
func (l *Lexer) scanEscape() error {
	ok, err := l.ensure(2)
	if err != nil {
		return err
	}
	if !ok {
		l.pos = l.end
		return l.errf("unterminated escape")
	}
	c := l.buf[l.pos+1]
	l.pos += 2
	switch c {
	case '"':
		l.scratch = append(l.scratch, '"')
	case '\\':
		l.scratch = append(l.scratch, '\\')
	case '/':
		l.scratch = append(l.scratch, '/')
	case 'b':
		l.scratch = append(l.scratch, '\b')
	case 'f':
		l.scratch = append(l.scratch, '\f')
	case 'n':
		l.scratch = append(l.scratch, '\n')
	case 'r':
		l.scratch = append(l.scratch, '\r')
	case 't':
		l.scratch = append(l.scratch, '\t')
	case 'u':
		ok, err := l.ensure(4)
		if err != nil {
			return err
		}
		if !ok {
			return l.errf("truncated \\u escape")
		}
		r, err := hex4(l.buf[l.pos : l.pos+4])
		if err != nil {
			return l.errf("bad \\u escape: %v", err)
		}
		l.pos += 4
		if utf16IsHighSurrogate(r) {
			// Peek for the low half of a surrogate pair; leave the cursor
			// untouched unless a valid pair follows.
			ok, err := l.ensure(6)
			if err != nil {
				return err
			}
			if ok && l.buf[l.pos] == '\\' && l.buf[l.pos+1] == 'u' {
				if r2, err2 := hex4(l.buf[l.pos+2 : l.pos+6]); err2 == nil && utf16IsLowSurrogate(r2) {
					r = utf16Combine(r, r2)
					l.pos += 6
				}
			}
		}
		var tmp [4]byte
		n := utf8.EncodeRune(tmp[:], r)
		l.scratch = append(l.scratch, tmp[:n]...)
	default:
		l.pos--
		return l.errf("invalid escape \\%c", c)
	}
	return nil
}

func hex4(b []byte) (rune, error) {
	var r rune
	for _, c := range b {
		r <<= 4
		switch {
		case c >= '0' && c <= '9':
			r |= rune(c - '0')
		case c >= 'a' && c <= 'f':
			r |= rune(c-'a') + 10
		case c >= 'A' && c <= 'F':
			r |= rune(c-'A') + 10
		default:
			return 0, fmt.Errorf("non-hex digit %q", c)
		}
	}
	return r, nil
}

func utf16IsHighSurrogate(r rune) bool { return r >= 0xD800 && r < 0xDC00 }
func utf16IsLowSurrogate(r rune) bool  { return r >= 0xDC00 && r < 0xE000 }
func utf16Combine(hi, lo rune) rune {
	return 0x10000 + (hi-0xD800)<<10 + (lo - 0xDC00)
}
