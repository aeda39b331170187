package runtime

import (
	"fmt"
	"testing"

	"vxq/internal/frame"
	"vxq/internal/item"
)

// TestFieldEvalMatchesGenericValue: value($c, "k") lowered to FieldEval
// returns exactly what the generic value function returns — same items,
// same errors — whether the column is still encoded (the pointable path),
// already decoded (eager reference mode decodes every field first), or
// held by a tuple with no encoding at all, and for every column shape:
// one object with and without the key, non-objects, empty and multi-item
// sequences, and malformed bytes.
func TestFieldEvalMatchesGenericValue(t *testing.T) {
	obj := item.ObjectFromPairs(
		"date", item.String("2003-12-25T00:00"),
		"value", item.Number(-12.5),
		"attrs", item.Array{item.String("a"), item.Null{}},
		"nested", item.ObjectFromPairs("k", item.Bool(true)),
	)
	shapes := []item.Sequence{
		item.Single(obj),
		item.Single(item.ObjectFromPairs("other", item.Number(1))),
		item.Single(item.ObjectFromPairs()),
		item.Single(item.String("date")),
		item.Single(item.Array{obj}),
		nil,
		{obj, obj},
		{obj, item.Number(3)},
	}
	ctx := NewCtx(nil)
	for _, key := range []string{"date", "value", "attrs", "nested", "missing", ""} {
		fe := NewFieldEval(0, key)
		generic := CallEval{Fn: FnValue, Args: []Evaluator{ColumnEval{Col: 0}, ConstEval{Seq: item.Single(item.String(key))}}}
		for _, s := range shapes {
			raw := [][]byte{item.EncodeSeq(nil, s)}
			want, werr := generic.Eval(ctx, SeqTuple{s})

			var lt frame.LazyTuple
			lt.Reset(raw)
			got, gerr := fe.Eval(ctx, &lt)
			if !item.EqualSeq(got, want) || fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Errorf("encoded %s (%q) = %s, %v; generic %s, %v", item.JSONSeq(s), key, item.JSONSeq(got), gerr, item.JSONSeq(want), werr)
			}
			if s.IsSingleton() && s[0].Kind() == item.KindObject {
				if _, still := lt.EncodedField(0); !still {
					t.Errorf("encoded %s (%q): the field was decoded", item.JSONSeq(s), key)
				}
			}

			lt.Reset(raw)
			if err := lt.DecodeAll(); err != nil {
				t.Fatal(err)
			}
			got, gerr = fe.Eval(ctx, &lt)
			if !item.EqualSeq(got, want) || fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Errorf("decoded %s (%q) = %s, %v; generic %s, %v", item.JSONSeq(s), key, item.JSONSeq(got), gerr, item.JSONSeq(want), werr)
			}

			got, gerr = fe.Eval(ctx, SeqTuple{s})
			if !item.EqualSeq(got, want) || fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Errorf("plain %s (%q) = %s, %v; generic %s, %v", item.JSONSeq(s), key, item.JSONSeq(got), gerr, item.JSONSeq(want), werr)
			}
		}
	}

	// Malformed and truncated encodings fail with the generic path's decode
	// error, and an out-of-range column with the generic bounds error.
	good := item.EncodeSeq(nil, item.Single(obj))
	for _, raw := range [][]byte{good[:len(good)-1], append(append([]byte(nil), good...), 0), {1, 0x06, 1, 4, 'd', 'a', 't', 'e', 0xff}} {
		var lt frame.LazyTuple
		lt.Reset([][]byte{raw})
		_, gerr := NewFieldEval(0, "date").Eval(ctx, &lt)
		lt.Reset([][]byte{raw})
		_, werr := CallEval{Fn: FnValue, Args: []Evaluator{ColumnEval{Col: 0}, ConstEval{Seq: item.Single(item.String("date"))}}}.Eval(ctx, &lt)
		if gerr == nil || gerr.Error() != werr.Error() {
			t.Errorf("malformed % x: FieldEval error %v, generic %v", raw, gerr, werr)
		}
	}
	var lt frame.LazyTuple
	lt.Reset([][]byte{good})
	if _, err := NewFieldEval(3, "date").Eval(ctx, &lt); err == nil {
		t.Error("out-of-range column must fail")
	}
}
