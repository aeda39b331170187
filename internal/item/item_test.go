package item

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "null", KindBool: "boolean", KindNumber: "number",
		KindString: "string", KindArray: "array", KindObject: "object",
		KindDateTime: "dateTime", Kind(99): "kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestJSONRendering(t *testing.T) {
	obj := ObjectFromPairs(
		"name", String("Everyday Italian"),
		"year", Number(2005),
		"price", Number(30.5),
		"tags", Array{String("a"), Bool(true), Null{}},
	)
	got := JSON(obj)
	want := `{"name":"Everyday Italian","year":2005,"price":30.5,"tags":["a",true,null]}`
	if got != want {
		t.Errorf("JSON = %s, want %s", got, want)
	}
}

func TestJSONEscapes(t *testing.T) {
	s := String("a\"b\\c\nd\te\rf\x01g")
	got := JSON(s)
	want := `"a\"b\\c\nd\te\rf\u0001g"`
	if got != want {
		t.Errorf("JSON = %s, want %s", got, want)
	}
}

func TestNumberRendering(t *testing.T) {
	cases := map[Number]string{
		0: "0", 42: "42", -7: "-7", 30.5: "30.5", 1e20: "1e+20",
		Number(math.Trunc(1e16)): "1e+16",
	}
	for n, want := range cases {
		if got := JSON(n); got != want {
			t.Errorf("JSON(%v) = %q, want %q", float64(n), got, want)
		}
	}
}

func TestObjectAccess(t *testing.T) {
	o := ObjectFromPairs("a", Number(1), "b", String("x"))
	if o.Len() != 2 {
		t.Fatalf("Len = %d", o.Len())
	}
	if v := o.Value("b"); !Equal(v, String("x")) {
		t.Errorf("Value(b) = %v", v)
	}
	if v := o.Value("zzz"); v != nil {
		t.Errorf("Value(zzz) = %v, want nil", v)
	}
	k, v := o.Pair(0)
	if k != "a" || !Equal(v, Number(1)) {
		t.Errorf("Pair(0) = %q,%v", k, v)
	}
}

func TestNewObjectDuplicateKey(t *testing.T) {
	_, err := NewObject([]string{"a", "a"}, []Item{Number(1), Number(2)})
	if err == nil {
		t.Fatal("expected duplicate-key error")
	}
}

func TestEqualObjectKeyOrderIndependent(t *testing.T) {
	a := ObjectFromPairs("x", Number(1), "y", Number(2))
	b := ObjectFromPairs("y", Number(2), "x", Number(1))
	if !Equal(a, b) {
		t.Error("objects with same pairs in different order should be Equal")
	}
	if Hash64(a) != Hash64(b) {
		t.Error("Equal objects must hash identically")
	}
	c := ObjectFromPairs("x", Number(1), "y", Number(3))
	if Equal(a, c) {
		t.Error("different values should not be Equal")
	}
}

func TestEqualMixed(t *testing.T) {
	if Equal(Number(1), String("1")) {
		t.Error("number and string must differ")
	}
	if !Equal(nil, nil) {
		t.Error("nil==nil")
	}
	if Equal(nil, Null{}) {
		t.Error("nil != null item")
	}
	if !Equal(Array{Number(1)}, Array{Number(1)}) {
		t.Error("equal arrays")
	}
	if Equal(Array{Number(1)}, Array{Number(1), Number(2)}) {
		t.Error("different-length arrays")
	}
}

func TestCompareOrder(t *testing.T) {
	// Total order across kinds follows Kind values.
	seq := []Item{
		Null{}, Bool(false), Bool(true), Number(-1), Number(3),
		String("a"), String("b"), Array{Number(1)}, Array{Number(1), Number(0)},
		ObjectFromPairs("a", Number(1)),
		DateTime{Year: 2003, Month: 12, Day: 25},
		DateTime{Year: 2004, Month: 1, Day: 1},
	}
	for i := range seq {
		for j := range seq {
			c := Compare(seq[i], seq[j])
			switch {
			case i < j && c >= 0:
				t.Errorf("Compare(%s,%s) = %d, want <0", JSON(seq[i]), JSON(seq[j]), c)
			case i > j && c <= 0:
				t.Errorf("Compare(%s,%s) = %d, want >0", JSON(seq[i]), JSON(seq[j]), c)
			case i == j && c != 0:
				t.Errorf("Compare(x,x) = %d", c)
			}
		}
	}
}

func TestParseDateTime(t *testing.T) {
	d, err := ParseDateTime("2013-12-25T00:05")
	if err != nil {
		t.Fatal(err)
	}
	want := DateTime{Year: 2013, Month: 12, Day: 25, Minute: 5}
	if d != want {
		t.Errorf("got %+v", d)
	}
	d, err = ParseDateTime("2014-01-02T03:04:05")
	if err != nil {
		t.Fatal(err)
	}
	if d.Second != 5 || d.Hour != 3 {
		t.Errorf("got %+v", d)
	}
	if _, err := ParseDateTime("2014-01-02"); err != nil {
		t.Errorf("date-only should parse: %v", err)
	}
	for _, bad := range []string{"", "xyz", "2014-13-01", "2014-00-01", "2014-01-32", "2014-1", "2014-01-02T99:00", "2014-01-02T1:2:3:4", "20140102"} {
		if _, err := ParseDateTime(bad); err == nil {
			t.Errorf("ParseDateTime(%q) should fail", bad)
		}
	}
}

func TestDateTimeString(t *testing.T) {
	d := DateTime{Year: 2013, Month: 12, Day: 25, Hour: 1, Minute: 2, Second: 3}
	if got := d.String(); got != "2013-12-25T01:02:03" {
		t.Errorf("String = %q", got)
	}
	if got := JSON(d); got != `"2013-12-25T01:02:03"` {
		t.Errorf("JSON = %q", got)
	}
}

func TestSequenceHelpers(t *testing.T) {
	s := Single(Number(1))
	if !s.IsSingleton() {
		t.Error("singleton")
	}
	it, err := s.One()
	if err != nil || !Equal(it, Number(1)) {
		t.Errorf("One = %v, %v", it, err)
	}
	if _, err := Empty.One(); err == nil {
		t.Error("One on empty must fail")
	}
	if _, err := (Sequence{Number(1), Number(2)}).One(); err == nil {
		t.Error("One on pair must fail")
	}
	if JSONSeq(Sequence{Number(1), String("a")}) != `1, "a"` {
		t.Errorf("JSONSeq = %q", JSONSeq(Sequence{Number(1), String("a")}))
	}
}

func TestEffectiveBoolean(t *testing.T) {
	cases := []struct {
		s    Sequence
		want bool
	}{
		{Empty, false},
		{Single(Null{}), false},
		{Single(Bool(false)), false},
		{Single(Bool(true)), true},
		{Single(Number(0)), false},
		{Single(Number(2)), true},
		{Single(String("")), false},
		{Single(String("x")), true},
		{Single(Array{}), true},
		{Single(ObjectFromPairs()), true},
		{Sequence{Number(0), Number(0)}, true},
	}
	for _, c := range cases {
		if got := EffectiveBoolean(c.s); got != c.want {
			t.Errorf("EffectiveBoolean(%s) = %v, want %v", JSONSeq(c.s), got, c.want)
		}
	}
}

func TestEncodeDecodeBasics(t *testing.T) {
	items := []Item{
		Null{}, Bool(true), Bool(false), Number(0), Number(-123.5),
		String(""), String("hello"), String(strings.Repeat("x", 300)),
		Array{}, Array{Number(1), String("a"), Null{}},
		ObjectFromPairs("k", Number(1), "nested", ObjectFromPairs("a", Array{Bool(true)})),
		DateTime{Year: 2013, Month: 12, Day: 25, Hour: 23, Minute: 59, Second: 59},
	}
	for _, it := range items {
		buf := Encode(nil, it)
		got, used, err := Decode(buf)
		if err != nil {
			t.Fatalf("Decode(%s): %v", JSON(it), err)
		}
		if used != len(buf) {
			t.Errorf("Decode(%s) consumed %d of %d bytes", JSON(it), used, len(buf))
		}
		if !Equal(it, got) {
			t.Errorf("round trip %s -> %s", JSON(it), JSON(got))
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	bad := [][]byte{
		nil,
		{0xff},
		{tagNumber, 1, 2},      // truncated float
		{tagString, 5, 'a'},    // truncated string
		{tagArray, 2, tagNull}, // truncated array
		{tagObject, 1, 3, 'a'}, // truncated key
		{tagObject, 1, 1, 'a'}, // missing value
		{tagDateTime, 0xce, 2}, // truncated dateTime
		{tagString, 0x80},      // unterminated uvarint
	}
	for _, b := range bad {
		if _, _, err := Decode(b); err == nil {
			t.Errorf("Decode(% x) should fail", b)
		}
	}
}

func TestDecodeSeqTrailing(t *testing.T) {
	buf := EncodeSeq(nil, Sequence{Number(1)})
	buf = append(buf, 0x00)
	if _, err := DecodeSeq(buf); err == nil {
		t.Error("trailing bytes should fail")
	}
	empty := EncodeSeq(nil, nil)
	s, err := DecodeSeq(empty)
	if err != nil || len(s) != 0 {
		t.Errorf("empty seq round trip: %v %v", s, err)
	}
}

// randomItem builds a random item of bounded depth for property tests.
func randomItem(r *rand.Rand, depth int) Item {
	k := r.Intn(7)
	if depth <= 0 && k >= 4 {
		k = r.Intn(4)
	}
	switch k {
	case 0:
		return Null{}
	case 1:
		return Bool(r.Intn(2) == 0)
	case 2:
		return Number(math.Trunc(r.NormFloat64() * 1000))
	case 3:
		b := make([]byte, r.Intn(12))
		for i := range b {
			b[i] = byte('a' + r.Intn(26))
		}
		return String(b)
	case 4:
		n := r.Intn(4)
		a := make(Array, n)
		for i := range a {
			a[i] = randomItem(r, depth-1)
		}
		return a
	case 5:
		n := r.Intn(4)
		keys := make([]string, 0, n)
		vals := make([]Item, 0, n)
		seen := map[string]bool{}
		for i := 0; i < n; i++ {
			k := string(rune('a' + r.Intn(8)))
			if seen[k] {
				continue
			}
			seen[k] = true
			keys = append(keys, k)
			vals = append(vals, randomItem(r, depth-1))
		}
		return MustObject(keys, vals)
	default:
		return DateTime{
			Year: 1990 + r.Intn(40), Month: 1 + r.Intn(12), Day: 1 + r.Intn(28),
			Hour: r.Intn(24), Minute: r.Intn(60), Second: r.Intn(60),
		}
	}
}

type anyItem struct{ It Item }

func (anyItem) Generate(r *rand.Rand, size int) reflect.Value {
	return reflect.ValueOf(anyItem{randomItem(r, 3)})
}

func TestQuickEncodeRoundTrip(t *testing.T) {
	f := func(a anyItem) bool {
		buf := Encode(nil, a.It)
		got, used, err := Decode(buf)
		return err == nil && used == len(buf) && Equal(a.It, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickHashEqualConsistency(t *testing.T) {
	f := func(a, b anyItem) bool {
		if Equal(a.It, b.It) {
			return Hash64(a.It) == Hash64(b.It)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickCompareConsistency(t *testing.T) {
	f := func(a, b anyItem) bool {
		ab, ba := Compare(a.It, b.It), Compare(b.It, a.It)
		if sign(ab) != -sign(ba) {
			return false
		}
		// Compare==0 must agree with Equal for non-object kinds; objects may
		// compare equal structurally even if key order differs, which Equal
		// also accepts, so equality agreement holds there too.
		if ab == 0 && !Equal(a.It, b.It) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickCompareTransitivity(t *testing.T) {
	f := func(a, b, c anyItem) bool {
		xs := []Item{a.It, b.It, c.It}
		sort.Slice(xs, func(i, j int) bool { return Compare(xs[i], xs[j]) < 0 })
		return Compare(xs[0], xs[1]) <= 0 && Compare(xs[1], xs[2]) <= 0 && Compare(xs[0], xs[2]) <= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickSeqEncodeRoundTrip(t *testing.T) {
	f := func(a, b, c anyItem, n uint8) bool {
		all := Sequence{a.It, b.It, c.It}
		s := all[:int(n)%4]
		buf := EncodeSeq(nil, s)
		got, err := DecodeSeq(buf)
		return err == nil && EqualSeq(s, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	default:
		return 0
	}
}

func TestSizeBytesMonotone(t *testing.T) {
	small := ObjectFromPairs("a", Number(1))
	big := ObjectFromPairs("a", Number(1), "b", String(strings.Repeat("x", 100)))
	if SizeBytes(big) <= SizeBytes(small) {
		t.Error("bigger item should report bigger size")
	}
	if SizeBytesSeq(Sequence{small, big}) <= SizeBytes(big) {
		t.Error("sequence size should include all members")
	}
}

// TestNewObjectDuplicateKeyReportsFirstRepeat pins the duplicate-key error
// on both sides of the pairwise/set threshold: the reported key is the
// first one (in order) that repeats an earlier key.
func TestNewObjectDuplicateKeyReportsFirstRepeat(t *testing.T) {
	many := func(n int, extra ...string) []string {
		keys := make([]string, 0, n+len(extra))
		for i := 0; i < n; i++ {
			keys = append(keys, fmt.Sprint("k", i))
		}
		return append(keys, extra...)
	}
	cases := []struct {
		keys []string
		dup  string // "" = no error
	}{
		{nil, ""},
		{[]string{"a"}, ""},
		{[]string{"a", "b"}, ""},
		{[]string{"b", "a", "b", "a"}, "b"},
		{[]string{"a", "b", "a", "b"}, "a"},
		{[]string{"a", "b", "c", "c", "a"}, "c"},
		{many(smallObjectKeys), ""},
		{many(smallObjectKeys-1, "k0"), "k0"},
		{many(smallObjectKeys, "k3"), "k3"},
		{many(200), ""},
		{many(200, "k150", "k7"), "k150"},
	}
	for _, c := range cases {
		vals := make([]Item, len(c.keys))
		for i := range vals {
			vals[i] = Null{}
		}
		_, err := NewObject(c.keys, vals)
		want := ""
		if c.dup != "" {
			want = fmt.Sprintf("item: duplicate object key %q", c.dup)
		}
		if got := fmt.Sprint(err); (err == nil) != (want == "") || (err != nil && got != want) {
			t.Errorf("NewObject(%d keys ending %v) error = %v, want %q", len(c.keys), c.keys[max(0, len(c.keys)-2):], err, want)
		}
	}
}

// TestParseDateTimeMatchesReference is the differential for the fixed-width
// fast path: over generated valid and invalid strings, ParseDateTime returns
// exactly what parseDateTimeReference returns — the same value, the same
// accept/reject verdict and the same error.
func TestParseDateTimeMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const alphabet = "0123456789-T:x "
	var inputs []string
	for y := 0; y < 2; y++ {
		for _, shape := range []string{"%04d-%02d-%02d", "%04d-%02d-%02dT%02d:%02d", "%04d-%02d-%02dT%02d:%02d:%02d"} {
			for i := 0; i < 3000; i++ {
				// Field values straddle every range check, including
				// month 0/13, day 0/32, hour 24, minute 60, second 60/61.
				inputs = append(inputs, fmt.Sprintf(shape, r.Intn(10000), r.Intn(14), r.Intn(33), r.Intn(25), r.Intn(61), r.Intn(62)))
			}
		}
	}
	for i := 0; i < 20000; i++ {
		// Mutations of valid strings: one byte replaced, inserted or dropped.
		b := []byte(inputs[r.Intn(len(inputs))])
		p := r.Intn(len(b))
		switch r.Intn(3) {
		case 0:
			b[p] = alphabet[r.Intn(len(alphabet))]
		case 1:
			b = append(b[:p], append([]byte{alphabet[r.Intn(len(alphabet))]}, b[p:]...)...)
		default:
			b = append(b[:p], b[p+1:]...)
		}
		inputs = append(inputs, string(b))
	}
	inputs = append(inputs, "", "T", "-", "2003-12-25T", "2003-12-25T00", "02003-12-25", "2003-1-25", "2003-12-25T00:00:00:00",
		"2003-12-25T23:59:60", "9999-12-31T23:59:59", "0000-01-01", "2003-12-25 00:00", "2003-12-25T00:0a", "+003-12-25")
	accepted := 0
	for _, s := range inputs {
		got, gerr := ParseDateTime(s)
		want, werr := parseDateTimeReference(s)
		if got != want || fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("ParseDateTime(%q) = %+v, %v; reference %+v, %v", s, got, gerr, want, werr)
		}
		if gerr == nil {
			accepted++
		}
	}
	if accepted < len(inputs)/10 || accepted > len(inputs)*9/10 {
		t.Fatalf("generator accepted %d of %d inputs; want a mix of valid and invalid", accepted, len(inputs))
	}
}
