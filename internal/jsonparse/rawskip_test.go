package jsonparse

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"vxq/internal/item"
)

// skipChunkSizes are the refill-window sizes the differential tests sweep:
// the pathological minimum (7 floors to the lexer's 64-byte window, forcing
// a refill every few tokens), sizes bracketing the structural-index block
// size (63, 64, 65 — one event exactly on, just before, and just after a
// block edge), and a size larger than every test document (no refill at
// all). Chunk 0 selects the in-memory slice lexer instead of a stream lexer.
var skipChunkSizes = []int{0, 7, 63, 64, 65, 4096}

// runSkip tokenizes the first token of data and skips the first value —
// through the token-level reference when reference is set, the structural
// raw scan otherwise — returning the absolute end offset of the skipped
// value.
func runSkip(data []byte, chunk int, reference bool) (int, error) {
	var l *Lexer
	if chunk == 0 {
		l = NewLexer(data)
	} else {
		l = NewStreamLexer(bytes.NewReader(data), chunk)
	}
	l.SetReferenceSkip(reference)
	if err := l.Next(); err != nil {
		return l.Offset(), err
	}
	if l.Kind == TokEOF {
		return l.Offset(), fmt.Errorf("empty input")
	}
	var err error
	if reference {
		err = skipValue(l)
	} else {
		err = l.SkipValueRaw()
	}
	return l.Offset(), err
}

// jsonOracleExtent decodes the first value of data with encoding/json,
// returning the end offset of the value, or ok=false when encoding/json
// rejects the input.
func jsonOracleExtent(data []byte) (end int, ok bool) {
	dec := json.NewDecoder(bytes.NewReader(data))
	var raw json.RawMessage
	if err := dec.Decode(&raw); err != nil {
		return 0, false
	}
	start := 0
	for start < len(data) {
		switch data[start] {
		case ' ', '\t', '\n', '\r':
			start++
			continue
		}
		break
	}
	return start + len(raw), true
}

// checkSkipAgreement asserts the differential contract on one input:
//   - the raw scan is chunk-invariant: streamed through a refill window of
//     this size it has the same ok-ness, extent and error text as over the
//     whole input in memory — on every input, valid or not;
//   - token-skip ok  ⇒  raw-skip ok with byte-for-byte the same extent;
//   - encoding/json ok  ⇒  token-skip ok with the same extent (so on every
//     input all oracles agree on valid values);
//   - raw-skip error ⇒ token-skip error (the raw scan is strictly more
//     permissive, never less).
func checkSkipAgreement(t *testing.T, data []byte, chunk int) {
	t.Helper()
	endTok, errTok := runSkip(data, chunk, true)
	endRaw, errRaw := runSkip(data, chunk, false)
	endMem, errMem := runSkip(data, 0, false)
	if (errRaw == nil) != (errMem == nil) || endRaw != endMem {
		t.Fatalf("chunk %d: raw skip diverges from in-memory on %q: stream(%d,%v) memory(%d,%v)",
			chunk, data, endRaw, errRaw, endMem, errMem)
	}
	if errRaw != nil && errMem != nil && errRaw.Error() != errMem.Error() {
		t.Fatalf("chunk %d: raw error text diverges from in-memory on %q: stream %q, memory %q",
			chunk, data, errRaw, errMem)
	}
	if errTok == nil {
		if errRaw != nil {
			t.Fatalf("chunk %d: token-skip ok (end %d) but raw-skip failed on %q: %v",
				chunk, endTok, data, errRaw)
		}
		if endRaw != endTok {
			t.Fatalf("chunk %d: skip extent diverges on %q: token %d, raw %d",
				chunk, data, endTok, endRaw)
		}
	} else if errRaw == nil && endRaw > len(data) {
		t.Fatalf("chunk %d: raw-skip ran past the input on %q", chunk, data)
	}
	if endJSON, ok := jsonOracleExtent(data); ok {
		if errTok != nil {
			t.Fatalf("chunk %d: encoding/json accepts %q but token-skip rejects it: %v",
				chunk, data, errTok)
		}
		if endTok != endJSON {
			t.Fatalf("chunk %d: extent diverges from encoding/json on %q: json %d, token %d",
				chunk, data, endJSON, endTok)
		}
	}
}

// skipCorpus is the hand-written differential corpus: escapes (including
// surrogate pairs and lone surrogates), deep nesting, numbers in every form,
// chunk-straddling strings, and structurally-broken inputs.
func skipCorpus() [][]byte {
	corpus := []string{
		// Scalars.
		`null`, `true`, `false`, `0`, `-12`, `3.5`, `1e3`, `2E-2`, `-0.5e+1`,
		`123456789012345678901234567890`, `1e999`, `0.00000000000000000001`,
		`""`, `"abc"`, `  42  `,
		// Escapes, surrogate pairs, lone surrogates.
		`"a\nb\t\"\\\/"`, `"A"`, `"😀"`, `"\ud800"`,
		`"é café"`, `"ends with backslash escape \\"`,
		// Containers with everything inside.
		`{}`, `[]`, `{"a":1}`, `[1,2,3]`,
		`{"k":"v","nested":{"deep":[1,{"x":null},"s"]},"n":-2.5e-3}`,
		`{"esc":"a\"b\\c","u":"😀","ctl":""}`,
		`[[[[[[[[[[1]]]]]]]]]]`,
		`[{"a":[{"b":[{"c":1}]}]}]`,
		// Strings long enough to straddle every chunk size.
		`"` + strings.Repeat("x", 200) + `"`,
		`{"pad":"` + strings.Repeat("y", 150) + `","v":1}`,
		`"` + strings.Repeat(`\\`, 100) + `"`,
		// Whitespace-heavy.
		"  {\n\t\"a\" : [ 1 ,\r\n 2 ] }  ",
		// Structurally broken: both skips must reject.
		`{`, `[`, `{"a":`, `{"a":[1,2`, `"unterminated`, `["a\`,
		"\"ctl \x01 char\"", `{"s":"bad ` + "\x02" + `"}`,
		// Broken only at token granularity: raw-skip may accept these,
		// checkSkipAgreement verifies the one-directional contract.
		`{"a":1x}`, `{"e":"\q"}`, `{"n":1.}`, `{"n":01}`, `[truu]`,
		`{"a" 1}`, `[1 2]`, `{"a":1,}`, `[1}`, `{"a":1]`,
	}
	// Deep nesting across a refill boundary.
	depth := 300
	corpus = append(corpus, strings.Repeat("[", depth)+"7"+strings.Repeat("]", depth))
	corpus = append(corpus, strings.Repeat(`{"k":[`, 50)+"1"+strings.Repeat("]}", 50))
	// Block-edge cases for the 64-byte structural-index kernel: every event
	// shifted to land exactly on, just before, and just after word (8B) and
	// block (64B) boundaries — closing quotes, backslashes split from their
	// escaped character, and long \\ runs whose parity decides whether the
	// next quote closes the string.
	for _, at := range []int{6, 7, 8, 9, 62, 63, 64, 65, 127, 128} {
		pad := strings.Repeat("a", at)
		corpus = append(corpus,
			`{"s":"`+pad+`"}`,                       // closing quote near the edge
			`{"s":"`+pad+`\n tail"}`,                // escape straddling the edge
			`{"s":"`+pad+`\\"}`,                     // backslash-backslash then quote
			`{"s":"`+pad+`\\\" still inside"}`,      // escaped quote after \\ run
			`{"s":"`+pad+`","t":[1,2],"u":{"v":9}}`, // structure right after the edge
			`["`+pad+`{not structure}","`+pad+`]"]`, // brackets inside strings at edges
		)
	}
	for _, n := range []int{31, 32, 33, 63, 64, 65} {
		run := strings.Repeat(`\\`, n)
		corpus = append(corpus,
			`{"s":"`+run+`"}`,        // even run, quote closes
			`{"s":"`+run+`\""}`,      // odd backslash before quote: stays open
			`{"s":"x`+run+`","k":1}`, // run shifted off word alignment
		)
	}
	out := make([][]byte, len(corpus))
	for i, s := range corpus {
		out[i] = []byte(s)
	}
	return out
}

// TestRawSkipDifferentialCorpus runs the skip differential (raw-skip vs
// token-skip vs encoding/json, plus the raw scan's chunk invariance) over the
// hand-written corpus at every chunk size.
func TestRawSkipDifferentialCorpus(t *testing.T) {
	for _, data := range skipCorpus() {
		for _, chunk := range skipChunkSizes {
			checkSkipAgreement(t, data, chunk)
		}
	}
}

// TestRawSkipStructuralErrors pins the malformed inputs the raw scan must
// still detect: truncation, unterminated strings, control characters.
func TestRawSkipStructuralErrors(t *testing.T) {
	bad := []string{
		`{`, `[`, `{"a":1`, `[1,[2,3]`, `{"a":"unterminated`,
		"[\"ctl\x01\"]", `["straddle \`,
	}
	for _, src := range bad {
		for _, chunk := range skipChunkSizes {
			if _, err := runSkip([]byte(src), chunk, false); err == nil {
				t.Errorf("chunk %d: raw-skip accepted structurally broken %q", chunk, src)
			}
		}
	}
}

// TestRawSkipSetsClosingToken: after a raw skip the current token must be
// the value's closing brace/bracket, exactly like the reference, so the
// projector's loop structure is mode-independent.
func TestRawSkipSetsClosingToken(t *testing.T) {
	cases := map[string]TokenKind{
		`{"a":[1,2]}`: TokRBrace,
		`[{"a":1}]`:   TokRBracket,
	}
	for src, want := range cases {
		l := NewLexer([]byte(src))
		if err := l.Next(); err != nil {
			t.Fatal(err)
		}
		if err := l.SkipValueRaw(); err != nil {
			t.Fatal(err)
		}
		if l.Kind != want {
			t.Errorf("%s: Kind after raw skip = %s, want %s", src, l.Kind, want)
		}
	}
}

// ndjsonStream renders a stream of top-level values separated the way
// morsel scans see them: newline-delimited.
func ndjsonStream(vals []item.Item) []byte {
	var b bytes.Buffer
	for _, v := range vals {
		b.WriteString(item.JSON(v))
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// TestQuickRawSkipMatchesTokenSkip is the core kernel property: for any
// document, the raw and the token-level skip consume byte-for-byte the same
// extent, at every chunk size.
func TestQuickRawSkipMatchesTokenSkip(t *testing.T) {
	f := func(dp docAndPath) bool {
		src := []byte(item.JSON(dp.Doc))
		for _, chunk := range skipChunkSizes {
			endTok, errTok := runSkip(src, chunk, true)
			endRaw, errRaw := runSkip(src, chunk, false)
			if errTok != nil || errRaw != nil || endTok != endRaw {
				t.Logf("doc=%s chunk=%d: token(%d,%v) raw(%d,%v)",
					src, chunk, endTok, errTok, endRaw, errRaw)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 600}); err != nil {
		t.Error(err)
	}
}

// TestQuickScanValuesModeEquivalence: a projected NDJSON scan (the morsel
// hot path) emits the same sequence whether subtrees are skipped by the raw
// scan or the token-level reference.
func TestQuickScanValuesModeEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		n := 1 + r.Intn(5)
		vals := make([]item.Item, n)
		for i := range vals {
			vals[i] = randomJSONValue(r, 3)
		}
		stream := ndjsonStream(vals)
		path := randomPath(r)
		for _, chunk := range skipChunkSizes[1:] {
			var got [2]item.Sequence
			var count [2]int
			for mi, reference := range []bool{true, false} {
				l := NewStreamLexer(bytes.NewReader(stream), chunk)
				l.SetReferenceSkip(reference)
				c, err := ScanValues(l, path, -1, func(it item.Item) error {
					got[mi] = append(got[mi], it)
					return nil
				})
				if err != nil {
					t.Fatalf("reference=%v chunk %d: ScanValues(%s, %s): %v", reference, chunk, stream, path, err)
				}
				count[mi] = c
			}
			if count[1] != count[0] || !item.EqualSeq(got[1], got[0]) {
				t.Fatalf("chunk %d: skip divergence on %s path %s: raw(%d)=%s tokens(%d)=%s",
					chunk, stream, path, count[1], item.JSONSeq(got[1]), count[0], item.JSONSeq(got[0]))
			}
		}
	}
}

// FuzzRawSkipDifferential fuzzes the skip differential (structural-index raw
// skip vs token-level reference, cross-checked against encoding/json, with
// the raw skip's chunk invariance) over every chunk size. `make fuzz-smoke` runs it briefly in CI; run `go test
// -fuzz=FuzzRawSkipDifferential ./internal/jsonparse` for a real session.
func FuzzRawSkipDifferential(f *testing.F) {
	for _, data := range skipCorpus() {
		f.Add(data, byte(0))
		f.Add(data, byte(1))
	}
	f.Fuzz(func(t *testing.T, data []byte, sel byte) {
		chunk := skipChunkSizes[int(sel)%len(skipChunkSizes)]
		checkSkipAgreement(t, data, chunk)
	})
}
