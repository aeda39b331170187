package item

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// The encoded-form kernels must agree exactly with the decoded forms: these
// property tests are the consistency guarantee DESIGN.md advertises.

func TestQuickHashEncodedMatchesHashSeq(t *testing.T) {
	f := func(a, b, c anyItem, n uint8) bool {
		s := Sequence{a.It, b.It, c.It}[:int(n)%4]
		buf := EncodeSeq(nil, s)
		h, err := HashEncoded(buf)
		return err == nil && h == HashSeq(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestQuickEqualEncodedMatchesEqualSeq(t *testing.T) {
	f := func(a, b, c, d anyItem, na, nb uint8) bool {
		// Small alphabets in randomItem make accidental equality common
		// enough that both branches of the property are exercised.
		s := Sequence{a.It, b.It}[:1+int(na)%2]
		u := Sequence{c.It, d.It}[:1+int(nb)%2]
		eq, err := EqualEncoded(EncodeSeq(nil, s), EncodeSeq(nil, u))
		return err == nil && eq == EqualSeq(s, u)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestQuickEqualEncodedSelf: every sequence (NaN-free, as randomItem only
// emits finite numbers) is EqualEncoded to itself, and re-encoding a
// key-shuffled copy of each object stays both equal and hash-identical even
// though the bytes differ.
func TestQuickEqualEncodedShuffledObjects(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func(a anyItem) bool {
		s := Sequence{a.It}
		shuf := Sequence{shuffleKeys(r, a.It)}
		ea, es := EncodeSeq(nil, s), EncodeSeq(nil, shuf)
		eq, err := EqualEncoded(ea, es)
		if err != nil || !eq {
			return false
		}
		ha, err1 := HashEncoded(ea)
		hs, err2 := HashEncoded(es)
		return err1 == nil && err2 == nil && ha == hs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// shuffleKeys deep-copies an item, permuting every object's key order.
func shuffleKeys(r *rand.Rand, it Item) Item {
	switch x := it.(type) {
	case Array:
		out := make(Array, len(x))
		for i, m := range x {
			out[i] = shuffleKeys(r, m)
		}
		return out
	case *Object:
		perm := r.Perm(len(x.keys))
		keys := make([]string, len(x.keys))
		vals := make([]Item, len(x.vals))
		for i, p := range perm {
			keys[i] = x.keys[p]
			vals[i] = shuffleKeys(r, x.vals[p])
		}
		return MustObject(keys, vals)
	default:
		return it
	}
}

func TestEqualEncodedFloatSemantics(t *testing.T) {
	enc := func(f float64) []byte { return EncodeSeq(nil, Single(Number(f))) }
	negZero, posZero := enc(math.Copysign(0, -1)), enc(0)
	if eq, err := EqualEncoded(negZero, posZero); err != nil || !eq {
		t.Errorf("-0.0 vs 0.0: eq=%v err=%v, want true (bytes differ, values equal)", eq, err)
	}
	nan := enc(math.NaN())
	if eq, err := EqualEncoded(nan, nan); err != nil || eq {
		t.Errorf("NaN vs NaN: eq=%v err=%v, want false (matching decoded Equal)", eq, err)
	}
	// NaN still hashes deterministically by its bit pattern, like hashItem.
	h1, err1 := HashEncoded(nan)
	h2, err2 := HashEncoded(nan)
	if err1 != nil || err2 != nil || h1 != h2 || h1 != HashSeq(Single(Number(math.NaN()))) {
		t.Errorf("NaN hash: %d/%v vs %d/%v vs %d", h1, err1, h2, err2, HashSeq(Single(Number(math.NaN()))))
	}
}

func TestEncodedKernelsRejectMalformedInput(t *testing.T) {
	bad := [][]byte{
		{},                        // no sequence count
		{1},                       // count 1 but no item
		{1, 0xff},                 // unknown tag
		{1, tagNumber, 1, 2, 3},   // truncated number
		{1, tagString, 10, 'a'},   // truncated string
		{1, tagArray, 2, tagNull}, // truncated array
		{1, tagObject, 1, 3, 'a'}, // truncated object key
		{1, tagDateTime, 0x90},    // unterminated year uvarint
		{2, tagNull},              // count overruns items
		{1, tagObject, 1, 1, 'a'}, // key with no value
	}
	good := EncodeSeq(nil, Single(String("x")))
	for i, buf := range bad {
		if _, err := HashEncoded(buf); err == nil {
			t.Errorf("HashEncoded(bad[%d]) = nil error", i)
		}
		if _, err := EqualEncoded(buf, good); err == nil {
			// A count mismatch short-circuits before structural errors are
			// reachable, which is fine — only flag cases that claim equality.
			if eq, _ := EqualEncoded(buf, good); eq {
				t.Errorf("EqualEncoded(bad[%d], good) = true", i)
			}
		}
	}
	if _, err := HashEncoded(append(EncodeSeq(nil, nil), 0x00)); err == nil {
		t.Error("HashEncoded with trailing bytes: want error")
	}
}

func TestSeqCountEncoded(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3} {
		s := make(Sequence, n)
		for i := range s {
			s[i] = Number(float64(i))
		}
		buf := EncodeSeq(nil, s)
		got, err := SeqCountEncoded(buf)
		if err != nil || got != int64(n) {
			t.Errorf("SeqCountEncoded(%d items) = %d, %v", n, got, err)
		}
		if IsEmptySeqEncoded(buf) != (n == 0) {
			t.Errorf("IsEmptySeqEncoded(%d items) = %v", n, IsEmptySeqEncoded(buf))
		}
	}
	if _, err := SeqCountEncoded(nil); err == nil {
		t.Error("SeqCountEncoded(nil): want error")
	}
	if IsEmptySeqEncoded(nil) {
		t.Error("IsEmptySeqEncoded(nil) = true")
	}
}

// TestQuickFieldEncodedMatchesValue is the pointable property: for a random
// object and a key that is present or absent, FieldEncoded over the encoded
// one-object sequence returns exactly Encode(obj.Value(key)), or nil when
// the object has no such key.
func TestQuickFieldEncodedMatchesValue(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for iter := 0; iter < 2000; iter++ {
		var o *Object
		for o == nil {
			o, _ = randomItem(r, 3).(*Object)
		}
		// Keys are single letters a..h, so "z" is always absent and a random
		// letter is present about half the time.
		for _, key := range []string{string(rune('a' + r.Intn(8))), "z", ""} {
			buf := EncodeSeq(nil, Single(o))
			val, ok, err := FieldEncoded(buf, key)
			if err != nil || !ok {
				t.Fatalf("FieldEncoded(%s, %q) = ok %v, err %v", JSON(o), key, ok, err)
			}
			var want []byte
			if v := o.Value(key); v != nil {
				want = Encode(nil, v)
			}
			if !bytes.Equal(val, want) {
				t.Fatalf("FieldEncoded(%s, %q) = % x, want % x", JSON(o), key, val, want)
			}
		}
	}
}

// TestFieldEncodedNotApplicable: every shape other than exactly one object
// reports ok = false without error, so the caller takes the generic path.
func TestFieldEncodedNotApplicable(t *testing.T) {
	obj := ObjectFromPairs("a", Number(1))
	for _, s := range []Sequence{
		nil,
		Single(String("a")),
		Single(Array{obj}),
		Single(Null{}),
		Single(DateTime{Year: 2003, Month: 12, Day: 25}),
		{obj, obj},
		{obj, Number(2)},
	} {
		val, ok, err := FieldEncoded(EncodeSeq(nil, s), "a")
		if err != nil || ok || val != nil {
			t.Errorf("FieldEncoded(%s) = (% x, %v, %v), want not applicable", JSONSeq(s), val, ok, err)
		}
	}
}

// TestFieldEncodedRejectsTruncation: every proper prefix of a valid encoded
// sequence, whatever its shape, is an error and never a panic, and so is a
// trailing byte.
func TestFieldEncodedRejectsTruncation(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	seqs := []Sequence{Single(ObjectFromPairs("a", Number(1), "b", Array{String("x"), Null{}}, "c", ObjectFromPairs("d", Bool(true))))}
	for i := 0; i < 200; i++ {
		s := make(Sequence, r.Intn(3))
		for j := range s {
			s[j] = randomItem(r, 3)
		}
		seqs = append(seqs, s)
	}
	for _, s := range seqs {
		buf := EncodeSeq(nil, s)
		for cut := 0; cut < len(buf); cut++ {
			if _, _, err := FieldEncoded(buf[:cut], "a"); err == nil {
				t.Fatalf("FieldEncoded(% x) (prefix %d of %s) = nil error", buf[:cut], cut, JSONSeq(s))
			}
		}
		if _, _, err := FieldEncoded(append(buf, 0), "a"); err == nil {
			t.Fatalf("FieldEncoded with a trailing byte after %s = nil error", JSONSeq(s))
		}
	}
	// A string length past the end of the buffer must not overflow the
	// bounds check.
	huge := []byte{1, tagObject, 1, 1, 'a', tagString, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	if _, _, err := FieldEncoded(huge, "a"); err == nil {
		t.Fatal("FieldEncoded with an overflowing string length = nil error")
	}
}

// TestPatchCountMatchesEncode: a container built with a one-byte count
// placeholder and patched afterwards encodes exactly as Encode does, across
// the one/two/three-byte uvarint boundaries.
func TestPatchCountMatchesEncode(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 300, 16383, 16384} {
		arr := make(Array, n)
		keys := make([]string, n)
		vals := make([]Item, n)
		for i := range arr {
			arr[i] = Number(float64(i))
			keys[i] = fmt.Sprint("k", i)
			vals[i] = String("v")
		}
		obj := MustObject(keys, vals)

		buf, slot := AppendArrayHeader([]byte{0xaa})
		for _, m := range arr {
			buf = AppendNumber(buf, float64(m.(Number)))
		}
		buf = PatchCount(buf, slot, n)
		if want := Encode([]byte{0xaa}, arr); !bytes.Equal(buf, want) {
			t.Fatalf("array of %d: patched encoding differs from Encode", n)
		}

		buf, slot = AppendObjectHeader(nil)
		for i, k := range keys {
			buf = AppendString(AppendKey(buf, k), string(vals[i].(String)))
		}
		buf = PatchCount(buf, slot, n)
		if want := Encode(nil, obj); !bytes.Equal(buf, want) {
			t.Fatalf("object of %d: patched encoding differs from Encode", n)
		}
	}
}
