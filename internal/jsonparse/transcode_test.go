package jsonparse

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"vxq/internal/item"
)

// encodedScanPaths are the projections the corpus and fuzz tests apply: the
// whole record, the DATASCAN shape of the sensor queries, a keys-or-members
// step that yields object keys, and an index step.
var encodedScanPaths = []Path{
	nil,
	{KeyStep("root"), MembersStep(), KeyStep("results"), MembersStep()},
	{MembersStep()},
	{IndexStep(2)},
	{KeyStep("a")},
}

func scanLexer(data []byte, chunk int) *Lexer {
	if chunk == 0 {
		return NewLexer(data)
	}
	return NewStreamLexer(bytes.NewReader(data), chunk)
}

// scanOutcome is what one scan of a stream produced: the encoded one-item
// sequences in emission order, the record count and the error.
type scanOutcome struct {
	seqs [][]byte
	n    int
	err  error
}

// referenceEncodedScan is the oracle: ScanValues parses an item at every
// leaf and each one is encoded with item.EncodeSeq — Encode(parseValue(...)).
func referenceEncodedScan(data []byte, chunk int, path Path, limit int64) scanOutcome {
	var out scanOutcome
	out.n, out.err = ScanValues(scanLexer(data, chunk), path, limit, func(it item.Item) error {
		out.seqs = append(out.seqs, item.EncodeSeq(nil, item.Single(it)))
		return nil
	})
	return out
}

func transcodedScan(tc *Transcoder, data []byte, chunk int, path Path, limit int64) scanOutcome {
	var out scanOutcome
	out.n, out.err = tc.ScanEncoded(scanLexer(data, chunk), path, limit, func(seq []byte) error {
		out.seqs = append(out.seqs, bytes.Clone(seq))
		return nil
	})
	return out
}

// checkEncodedScan asserts the transcoder emits byte-identical encodings,
// the same record count and the same error as the reference, at every chunk
// size. One Transcoder serves every run, so state left behind by a failed
// scan would show up in the next.
func checkEncodedScan(t *testing.T, tc *Transcoder, data []byte, path Path, limit int64) {
	t.Helper()
	for _, chunk := range skipChunkSizes {
		compareEncodedScan(t, tc, data, chunk, path, limit)
	}
}

func compareEncodedScan(t *testing.T, tc *Transcoder, data []byte, chunk int, path Path, limit int64) {
	t.Helper()
	want := referenceEncodedScan(data, chunk, path, limit)
	got := transcodedScan(tc, data, chunk, path, limit)
	if fmt.Sprint(got.err) != fmt.Sprint(want.err) || got.n != want.n || len(got.seqs) != len(want.seqs) {
		t.Fatalf("chunk %d path %s limit %d on %.200q: transcoder (n=%d, items=%d, err=%v), reference (n=%d, items=%d, err=%v)",
			chunk, path, limit, data, got.n, len(got.seqs), got.err, want.n, len(want.seqs), want.err)
	}
	for i := range want.seqs {
		if !bytes.Equal(got.seqs[i], want.seqs[i]) {
			t.Fatalf("chunk %d path %s limit %d on %.200q: item %d encodes % x, reference % x",
				chunk, path, limit, data, i, got.seqs[i], want.seqs[i])
		}
	}
}

// wideObject renders an object with n members k0..k(n-1); dup > 0 repeats
// key k(dup-1) as the last member.
func wideObject(n, dup int) string {
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `"k%d":%d`, i, i)
	}
	if dup > 0 {
		fmt.Fprintf(&b, `,"k%d":true`, dup-1)
	}
	b.WriteByte('}')
	return b.String()
}

func wideArray(n int, member string) string {
	return "[" + strings.TrimSuffix(strings.Repeat(member+",", n), ",") + "]"
}

// transcodeCorpus covers the encoding's corner cases on top of the skip
// corpus: duplicate keys (pairwise and sorted checks, nested, after a count
// back-patch), counts above 127 that need a multi-byte uvarint, escapes and
// surrogates, deep nesting and number edge cases.
func transcodeCorpus() [][]byte {
	corpus := []string{
		// Duplicate keys.
		`{"a":1,"a":2}`, `{"a":1,"b":2,"a":3}`, `{"b":1,"a":2,"b":3,"a":4}`,
		`{"a":{"x":1,"x":2},"b":[` + `1` + `]}`,
		`{"a":{"x":1,"x":2},"b":1,"b":2}`,
		`{"a":1,"b":2,"a":3` + `,"c":[` + `}`,
		wideObject(9, 0), wideObject(9, 9), wideObject(9, 1),
		wideObject(200, 0), wideObject(200, 137), wideObject(300, 5),
		// Two repeated keys in a large object: the error names the key
		// that repeats first, whichever way the two sort.
		`{"a":0,"z":0,` + strings.TrimPrefix(strings.TrimSuffix(wideObject(9, 0), "}"), "{") + `,"a":1,"z":1}`,
		`{"z":0,"a":0,` + strings.TrimPrefix(strings.TrimSuffix(wideObject(9, 0), "}"), "{") + `,"z":1,"a":1}`,
		`{"a":1,"big":` + wideArray(200, "7") + `,"z":2,"a":3}`,
		`{"a":1,"big":` + wideObject(150, 0) + `,"z":2,"q":3,"big":4}`,
		// Counts above 127, nested, and a count of exactly 127/128.
		wideArray(127, "0"), wideArray(128, "0"), wideArray(20000, "1"),
		wideArray(130, wideArray(130, "null")),
		wideArray(3, wideObject(140, 0)),
		`{"root":[{"results":` + wideArray(150, `{"date":"2003-12-25T00:00","dataType":"TMIN","v":1}`) + `}]}`,
		// Strings whose length needs a two-byte uvarint.
		`"` + strings.Repeat("s", 300) + `"`,
		`{"` + strings.Repeat("k", 130) + `":"` + strings.Repeat("v", 130) + `"}`,
		// Escapes and \u surrogates.
		`"\u00e9\ud83d\ude00\u0041\n\\\"\/"`, `"\ud800"`, `"\udc00x"`, `"\ud800\u0041"`,
		`{"\u0061":1,"a":2}`, `{"\ud83d\ude00":1,"😀":2}`, `"\u00"`, `"\x"`,
		// Deep nesting.
		strings.Repeat("[", 300) + strings.Repeat("]", 300),
		strings.Repeat(`{"a":`, 200) + "1" + strings.Repeat("}", 200),
		strings.Repeat("[", 50) + strings.Repeat("]", 49),
		// Numbers.
		`-0`, `0.0`, `-0.0`, `1e308`, `1.7976931348623157e308`, `4.9e-324`, `1e-400`,
		`123456789012345`, `1234567890123456`, `9007199254740993`, `0.1`, `123.456e-5`,
		`1E+2`, `-1.5`, `1.000000000000001`, `01`, `1.`, `-`, `1e`, `.5`, `+1`,
		`[1e999]`, `{"a":1e999,"a":1}`,
		// Syntax errors inside containers.
		`[1 2]`, `{"a" 1}`, `{1:2}`, `{"a":1,}`, `[1,]`, `[`, `{"a":`, `]`, `}`, `:`,
		// NDJSON streams, including blank lines and whitespace between records.
		"{\"a\":1}\n{\"a\":2}\n\n  {\"a\":[3,4]}\n",
		"[1,2]\n[3]\n{\"a\":1,\"a\":2}\n[4]\n",
	}
	out := skipCorpus()
	for _, s := range corpus {
		out = append(out, []byte(s))
	}
	return out
}

// TestEncodedScanCorpus runs the transcoder differential over the corpus,
// every projection and every chunk size.
func TestEncodedScanCorpus(t *testing.T) {
	var tc Transcoder
	for _, data := range transcodeCorpus() {
		for _, path := range encodedScanPaths {
			checkEncodedScan(t, &tc, data, path, -1)
		}
	}
}

// TestEncodedScanMorselLimits cuts an NDJSON stream at every byte offset,
// the way morsel limits do, so limits fall before, inside and just after
// records and their newlines.
func TestEncodedScanMorselLimits(t *testing.T) {
	stream := []byte("{\"a\":[1,2,{\"b\":\"x\"}]}\n  {\"a\":\"\\u00e9\"}\n\n" + wideArray(130, `{"a":1}`) + "\n{\"a\":{\"c\":1,\"c\":2}}\n[5]\n")
	var tc Transcoder
	for limit := int64(-1); limit <= int64(len(stream))+1; limit++ {
		for _, path := range encodedScanPaths {
			checkEncodedScan(t, &tc, stream, path, limit)
		}
	}
}

// randomWideValue is randomJSONValue plus, now and then, an array wide
// enough that its count needs a two-byte uvarint.
func randomWideValue(r *rand.Rand, depth int) item.Item {
	if depth > 0 && r.Intn(8) == 0 {
		n := 120 + r.Intn(20)
		a := make(item.Array, n)
		for i := range a {
			a[i] = randomJSONValue(r, 0)
		}
		return a
	}
	return randomJSONValue(r, depth)
}

// TestQuickEncodedScanMatchesReference: random NDJSON streams under random
// paths and limits transcode exactly as the reference encodes them, and a
// random object rendered with a repeated key fails identically.
func TestQuickEncodedScanMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	var tc Transcoder
	for iter := 0; iter < 300; iter++ {
		vals := make([]item.Item, 1+r.Intn(4))
		for i := range vals {
			vals[i] = randomWideValue(r, 3)
		}
		stream := ndjsonStream(vals)
		limit := int64(-1)
		if r.Intn(3) == 0 {
			limit = r.Int63n(int64(len(stream)) + 1)
		}
		checkEncodedScan(t, &tc, stream, randomPath(r), limit)
		if o, ok := vals[0].(*item.Object); ok && o.Len() > 0 {
			k, v := o.Pair(r.Intn(o.Len()))
			src := strings.TrimSuffix(item.JSON(o), "}") + "," + item.JSON(item.String(k)) + ":" + item.JSON(v) + "}"
			checkEncodedScan(t, &tc, []byte(src), nil, -1)
		}
	}
}

// FuzzEncodedScan fuzzes the transcoder differential: for any input, the
// encoded scan must emit exactly the bytes item.EncodeSeq gives for the items
// ScanValues parses, with the same record count and error. sel picks the
// chunk size, the projection and whether a mid-stream limit applies.
// `make fuzz-smoke` runs it briefly; committed seeds under testdata/fuzz are
// always replayed.
func FuzzEncodedScan(f *testing.F) {
	for i, data := range transcodeCorpus() {
		f.Add(data, byte(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, sel byte) {
		chunk := skipChunkSizes[int(sel)%len(skipChunkSizes)]
		path := encodedScanPaths[int(sel/4)%len(encodedScanPaths)]
		limit := int64(-1)
		if sel&0x80 != 0 {
			limit = int64(len(data) / 2)
		}
		var tc Transcoder
		compareEncodedScan(t, &tc, data, chunk, path, limit)
	})
}
