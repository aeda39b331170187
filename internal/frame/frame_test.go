package frame

import (
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"vxq/internal/item"
)

func seqField(items ...item.Item) []byte {
	return item.EncodeSeq(nil, item.Sequence(items))
}

func TestAppendAndRead(t *testing.T) {
	f := New(1024)
	ok := f.AppendTuple([][]byte{seqField(item.Number(1)), seqField(item.String("a"))})
	if !ok {
		t.Fatal("append failed")
	}
	ok = f.AppendTuple([][]byte{seqField(item.Number(2)), seqField()})
	if !ok {
		t.Fatal("append failed")
	}
	if f.TupleCount() != 2 {
		t.Fatalf("TupleCount = %d", f.TupleCount())
	}
	tu, err := f.Tuple(0)
	if err != nil {
		t.Fatal(err)
	}
	if tu.FieldCount() != 2 {
		t.Fatalf("FieldCount = %d", tu.FieldCount())
	}
	s, err := tu.FieldSeq(1)
	if err != nil {
		t.Fatal(err)
	}
	if !item.EqualSeq(s, item.Single(item.String("a"))) {
		t.Errorf("field = %s", item.JSONSeq(s))
	}
	tu2, _ := f.Tuple(1)
	s2, err := tu2.FieldSeq(1)
	if err != nil || len(s2) != 0 {
		t.Errorf("empty field: %v %v", s2, err)
	}
	if _, err := tu2.FieldSeq(5); err == nil {
		t.Error("out-of-range field must error")
	}
}

func TestFrameFullAndFlush(t *testing.T) {
	f := New(64)
	field := seqField(item.String(strings.Repeat("x", 20)))
	n := 0
	for f.AppendTuple([][]byte{field}) {
		n++
		if n > 100 {
			t.Fatal("frame never filled")
		}
	}
	if n == 0 {
		t.Fatal("no tuple fit in the frame")
	}
	if f.Oversize() {
		t.Error("normal tuples should not mark frame oversize")
	}
	f.Reset()
	if f.TupleCount() != 0 || f.Size() != 0 {
		t.Error("Reset did not clear the frame")
	}
	if !f.AppendTuple([][]byte{field}) {
		t.Error("append after reset should succeed")
	}
}

func TestOversizeTuple(t *testing.T) {
	f := New(64)
	big := seqField(item.String(strings.Repeat("y", 500)))
	if !f.AppendTuple([][]byte{big}) {
		t.Fatal("oversized tuple must be admitted into an empty frame")
	}
	if !f.Oversize() {
		t.Error("frame should be oversize")
	}
	// A second tuple must not fit.
	if f.AppendTuple([][]byte{seqField(item.Number(1))}) {
		t.Error("second tuple should not fit after oversize")
	}
	tu, err := f.Tuple(0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := tu.FieldSeq(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := s[0].(item.String); len(got) != 500 {
		t.Errorf("payload length = %d", len(got))
	}
}

func TestTupleIndexOutOfRange(t *testing.T) {
	f := New(128)
	if _, err := f.Tuple(0); err == nil {
		t.Error("Tuple(0) on empty frame must fail")
	}
	f.AppendTuple([][]byte{seqField(item.Number(1))})
	if _, err := f.Tuple(-1); err == nil {
		t.Error("negative index must fail")
	}
	if _, err := f.Tuple(1); err == nil {
		t.Error("past-end index must fail")
	}
}

func TestEncodeDecodeFields(t *testing.T) {
	seqs := []item.Sequence{
		item.Single(item.Number(1)),
		{},
		{item.String("a"), item.Bool(true)},
	}
	enc := EncodeFields(seqs)
	dec, err := DecodeFields(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seqs {
		if !item.EqualSeq(seqs[i], dec[i]) {
			t.Errorf("field %d mismatch", i)
		}
	}
	if _, err := DecodeFields([][]byte{{0xff, 0x01}}); err == nil {
		t.Error("corrupt field must fail to decode")
	}
}

type tuplesGen struct {
	Tuples [][]item.Sequence
}

func (tuplesGen) Generate(r *rand.Rand, size int) reflect.Value {
	nt := r.Intn(20)
	ts := make([][]item.Sequence, nt)
	nf := 1 + r.Intn(4)
	for i := range ts {
		fs := make([]item.Sequence, nf)
		for j := range fs {
			n := r.Intn(3)
			var s item.Sequence
			for k := 0; k < n; k++ {
				switch r.Intn(3) {
				case 0:
					s = append(s, item.Number(float64(r.Intn(100))))
				case 1:
					b := make([]byte, r.Intn(8))
					for x := range b {
						b[x] = byte('a' + r.Intn(26))
					}
					s = append(s, item.String(b))
				default:
					s = append(s, item.Bool(r.Intn(2) == 0))
				}
			}
			fs[j] = s
		}
		ts[i] = fs
	}
	return reflect.ValueOf(tuplesGen{Tuples: ts})
}

// TestQuickFrameRoundTrip: any batch of tuples written through frames (with
// flushes) reads back identically.
func TestQuickFrameRoundTrip(t *testing.T) {
	f := func(g tuplesGen) bool {
		fr := New(256)
		var got [][]item.Sequence
		drain := func() bool {
			for i := 0; i < fr.TupleCount(); i++ {
				tu, err := fr.Tuple(i)
				if err != nil {
					return false
				}
				seqs, err := DecodeFields(tu.Fields())
				if err != nil {
					return false
				}
				got = append(got, seqs)
			}
			fr.Reset()
			return true
		}
		for _, tup := range g.Tuples {
			enc := EncodeFields(tup)
			if !fr.AppendTuple(enc) {
				if !drain() {
					return false
				}
				if !fr.AppendTuple(enc) {
					return false
				}
			}
		}
		if !drain() {
			return false
		}
		if len(got) != len(g.Tuples) {
			return false
		}
		for i := range got {
			if len(got[i]) != len(g.Tuples[i]) {
				return false
			}
			for j := range got[i] {
				if !item.EqualSeq(got[i][j], g.Tuples[i][j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAccountant(t *testing.T) {
	a := NewAccountant(0)
	if !a.Allocate(100) {
		t.Error("unlimited accountant must always allow")
	}
	a.Allocate(50)
	if a.Current() != 150 || a.Peak() != 150 {
		t.Errorf("current=%d peak=%d", a.Current(), a.Peak())
	}
	a.Release(120)
	if a.Current() != 30 {
		t.Errorf("current=%d", a.Current())
	}
	if a.Peak() != 150 {
		t.Errorf("peak=%d", a.Peak())
	}
	a.ResetPeak()
	if a.Peak() != 30 {
		t.Errorf("peak after reset = %d", a.Peak())
	}
}

func TestAccountantLimit(t *testing.T) {
	a := NewAccountant(100)
	if !a.Allocate(60) {
		t.Error("60 <= 100 should be allowed")
	}
	if a.Allocate(60) {
		t.Error("120 > 100 should be denied")
	}
}

func TestAccountantConcurrent(t *testing.T) {
	a := NewAccountant(0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				a.Allocate(7)
				a.Release(7)
			}
		}()
	}
	wg.Wait()
	if a.Current() != 0 {
		t.Errorf("current = %d, want 0", a.Current())
	}
	if a.Peak() < 7 {
		t.Errorf("peak = %d, want >= 7", a.Peak())
	}
}

func TestNewDefaultCapacity(t *testing.T) {
	f := New(0)
	if f.Capacity() != DefaultFrameSize {
		t.Errorf("capacity = %d", f.Capacity())
	}
}
