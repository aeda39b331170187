package runtime

import (
	"os"
	"strings"
	"testing"

	"vxq/internal/item"
)

func evalFn(t *testing.T, name string, args ...item.Sequence) item.Sequence {
	t.Helper()
	f := MustFunction(name)
	out, err := f.Apply(NewCtx(nil), args)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return out
}

func evalFnErr(t *testing.T, name string, args ...item.Sequence) error {
	t.Helper()
	f := MustFunction(name)
	_, err := f.Apply(NewCtx(nil), args)
	return err
}

func one(it item.Item) item.Sequence { return item.Single(it) }

func TestValueOnObject(t *testing.T) {
	obj := item.ObjectFromPairs("a", item.Number(1), "b", item.String("x"))
	got := evalFn(t, "value", one(obj), one(item.String("b")))
	if !item.EqualSeq(got, one(item.String("x"))) {
		t.Errorf("got %s", item.JSONSeq(got))
	}
	// Missing key yields empty.
	got = evalFn(t, "value", one(obj), one(item.String("zzz")))
	if len(got) != 0 {
		t.Errorf("missing key: got %s", item.JSONSeq(got))
	}
}

func TestValueOnArrayByIndex(t *testing.T) {
	arr := item.Array{item.Number(10), item.Number(20)}
	got := evalFn(t, "value", one(arr), one(item.Number(2)))
	if !item.EqualSeq(got, one(item.Number(20))) {
		t.Errorf("got %s", item.JSONSeq(got))
	}
	if got := evalFn(t, "value", one(arr), one(item.Number(3))); len(got) != 0 {
		t.Errorf("out of range index: got %s", item.JSONSeq(got))
	}
	// String key on array yields empty (kind mismatch).
	if got := evalFn(t, "value", one(arr), one(item.String("a"))); len(got) != 0 {
		t.Errorf("string key on array: got %s", item.JSONSeq(got))
	}
}

func TestValueMapsOverSequence(t *testing.T) {
	seq := item.Sequence{
		item.ObjectFromPairs("k", item.Number(1)),
		item.ObjectFromPairs("other", item.Number(9)),
		item.ObjectFromPairs("k", item.Number(2)),
		item.Number(7), // scalar contributes nothing
	}
	got := evalFn(t, "value", seq, one(item.String("k")))
	want := item.Sequence{item.Number(1), item.Number(2)}
	if !item.EqualSeq(got, want) {
		t.Errorf("got %s", item.JSONSeq(got))
	}
}

func TestKeysOrMembers(t *testing.T) {
	arr := item.Array{item.Number(1), item.Number(2)}
	got := evalFn(t, "keys-or-members", one(arr))
	if !item.EqualSeq(got, item.Sequence{item.Number(1), item.Number(2)}) {
		t.Errorf("array members: %s", item.JSONSeq(got))
	}
	obj := item.ObjectFromPairs("x", item.Number(1), "y", item.Number(2))
	got = evalFn(t, "keys-or-members", one(obj))
	if !item.EqualSeq(got, item.Sequence{item.String("x"), item.String("y")}) {
		t.Errorf("object keys: %s", item.JSONSeq(got))
	}
	if got := evalFn(t, "keys-or-members", one(item.Number(5))); len(got) != 0 {
		t.Errorf("scalar: %s", item.JSONSeq(got))
	}
}

func TestIterateIdentity(t *testing.T) {
	s := item.Sequence{item.Number(1), item.String("a")}
	got := evalFn(t, "iterate", s)
	if !item.EqualSeq(got, s) {
		t.Errorf("got %s", item.JSONSeq(got))
	}
}

func TestDataAtomization(t *testing.T) {
	got := evalFn(t, "data", item.Sequence{item.String("x"), item.Number(2)})
	if !item.EqualSeq(got, item.Sequence{item.String("x"), item.Number(2)}) {
		t.Errorf("got %s", item.JSONSeq(got))
	}
	if err := evalFnErr(t, "data", one(item.Array{})); err == nil {
		t.Error("data on array must fail")
	}
	if err := evalFnErr(t, "data", one(item.ObjectFromPairs())); err == nil {
		t.Error("data on object must fail")
	}
}

func TestPromoteTreatIdentity(t *testing.T) {
	s := one(item.Number(3))
	if !item.EqualSeq(evalFn(t, "promote", s), s) {
		t.Error("promote must be identity")
	}
	if !item.EqualSeq(evalFn(t, "treat", s), s) {
		t.Error("treat must be identity")
	}
}

func TestDateTimeFunctions(t *testing.T) {
	dt := evalFn(t, "dateTime", one(item.String("2013-12-25T10:30")))
	d, err := dt.One()
	if err != nil {
		t.Fatal(err)
	}
	if d.(item.DateTime).Day != 25 {
		t.Errorf("day = %d", d.(item.DateTime).Day)
	}
	if got := evalFn(t, "year-from-dateTime", dt); !item.EqualSeq(got, one(item.Number(2013))) {
		t.Errorf("year = %s", item.JSONSeq(got))
	}
	if got := evalFn(t, "month-from-dateTime", dt); !item.EqualSeq(got, one(item.Number(12))) {
		t.Errorf("month = %s", item.JSONSeq(got))
	}
	if got := evalFn(t, "day-from-dateTime", dt); !item.EqualSeq(got, one(item.Number(25))) {
		t.Errorf("day = %s", item.JSONSeq(got))
	}
	if err := evalFnErr(t, "dateTime", one(item.String("garbage"))); err == nil {
		t.Error("bad dateTime must fail")
	}
	if err := evalFnErr(t, "dateTime", one(item.Number(1))); err == nil {
		t.Error("dateTime on number must fail")
	}
	if err := evalFnErr(t, "year-from-dateTime", one(item.Number(1))); err == nil {
		t.Error("year-from-dateTime on number must fail")
	}
}

func TestComparisons(t *testing.T) {
	cases := []struct {
		fn   string
		a, b item.Item
		want bool
	}{
		{"eq", item.Number(1), item.Number(1), true},
		{"eq", item.Number(1), item.Number(2), false},
		{"ne", item.String("a"), item.String("b"), true},
		{"lt", item.Number(1), item.Number(2), true},
		{"le", item.Number(2), item.Number(2), true},
		{"gt", item.Number(3), item.Number(2), true},
		{"ge", item.Number(2003), item.Number(2003), true},
		{"ge", item.Number(1999), item.Number(2003), false},
		{"eq", item.String("TMIN"), item.String("TMIN"), true},
		{"lt", item.DateTime{Year: 2003, Month: 1, Day: 1}, item.DateTime{Year: 2004, Month: 1, Day: 1}, true},
	}
	for _, c := range cases {
		got := evalFn(t, c.fn, one(c.a), one(c.b))
		if !item.EqualSeq(got, one(item.Bool(c.want))) {
			t.Errorf("%s(%s,%s) = %s, want %v", c.fn, item.JSON(c.a), item.JSON(c.b), item.JSONSeq(got), c.want)
		}
	}
}

func TestComparisonEmptyAndErrors(t *testing.T) {
	if got := evalFn(t, "eq", nil, one(item.Number(1))); len(got) != 0 {
		t.Error("empty operand must yield empty")
	}
	if err := evalFnErr(t, "eq", one(item.Number(1)), one(item.String("x"))); err == nil {
		t.Error("cross-kind comparison must fail")
	}
	if err := evalFnErr(t, "eq", one(item.Array{}), one(item.Array{})); err == nil {
		t.Error("array comparison must fail")
	}
	two := item.Sequence{item.Number(1), item.Number(2)}
	if err := evalFnErr(t, "eq", two, one(item.Number(1))); err == nil {
		t.Error("non-singleton operand must fail")
	}
}

func TestBooleans(t *testing.T) {
	tr, fa := one(item.Bool(true)), one(item.Bool(false))
	if !item.EqualSeq(evalFn(t, "and", tr, tr, tr), tr) {
		t.Error("and(t,t,t)")
	}
	if !item.EqualSeq(evalFn(t, "and", tr, fa), fa) {
		t.Error("and(t,f)")
	}
	if !item.EqualSeq(evalFn(t, "or", fa, tr), tr) {
		t.Error("or(f,t)")
	}
	if !item.EqualSeq(evalFn(t, "or", fa, fa), fa) {
		t.Error("or(f,f)")
	}
	if !item.EqualSeq(evalFn(t, "not", fa), tr) {
		t.Error("not(f)")
	}
	// Empty sequence is false.
	if !item.EqualSeq(evalFn(t, "and", tr, item.Empty), fa) {
		t.Error("and(t,()) should be false")
	}
	if !item.EqualSeq(evalFn(t, "boolean", one(item.String("x"))), tr) {
		t.Error("boolean(non-empty string)")
	}
}

func TestArithmetic(t *testing.T) {
	n := func(v float64) item.Sequence { return one(item.Number(v)) }
	if !item.EqualSeq(evalFn(t, "add", n(2), n(3)), n(5)) {
		t.Error("add")
	}
	if !item.EqualSeq(evalFn(t, "sub", n(14), n(4)), n(10)) {
		t.Error("sub")
	}
	if !item.EqualSeq(evalFn(t, "mul", n(6), n(7)), n(42)) {
		t.Error("mul")
	}
	if !item.EqualSeq(evalFn(t, "div", n(30), n(10)), n(3)) {
		t.Error("div")
	}
	if !item.EqualSeq(evalFn(t, "mod", n(7), n(4)), n(3)) {
		t.Error("mod")
	}
	if err := evalFnErr(t, "div", n(1), n(0)); err == nil {
		t.Error("division by zero must fail")
	}
	if err := evalFnErr(t, "add", one(item.String("x")), n(1)); err == nil {
		t.Error("string arithmetic must fail")
	}
	if got := evalFn(t, "add", item.Empty, n(1)); len(got) != 0 {
		t.Error("empty operand yields empty")
	}
}

func TestScalarFolds(t *testing.T) {
	s := item.Sequence{item.Number(1), item.Number(2), item.Number(3)}
	if !item.EqualSeq(evalFn(t, "count", s), one(item.Number(3))) {
		t.Error("count")
	}
	if !item.EqualSeq(evalFn(t, "count", item.Empty), one(item.Number(0))) {
		t.Error("count empty")
	}
	if !item.EqualSeq(evalFn(t, "sum", s), one(item.Number(6))) {
		t.Error("sum")
	}
	if !item.EqualSeq(evalFn(t, "avg", s), one(item.Number(2))) {
		t.Error("avg")
	}
	if got := evalFn(t, "avg", item.Empty); len(got) != 0 {
		t.Error("avg of empty is empty")
	}
	if err := evalFnErr(t, "sum", one(item.String("x"))); err == nil {
		t.Error("sum of strings must fail")
	}
}

func TestCollectionAndJSONDoc(t *testing.T) {
	src := &MemSource{Collections: map[string]map[string][]byte{
		"/books": {
			"b.json": []byte(`{"title":"B"}`),
			"a.json": []byte(`{"title":"A"}`),
		},
	}}
	ctx := NewCtx(src)
	f := MustFunction("collection")
	out, err := f.Apply(ctx, []item.Sequence{one(item.String("/books"))})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("collection returned %d docs", len(out))
	}
	// Sorted by name: a.json then b.json.
	if v := out[0].(*item.Object).Value("title"); !item.Equal(v, item.String("A")) {
		t.Errorf("first doc title = %v", v)
	}
	if ctx.Stats.FilesRead != 2 || ctx.Stats.BytesRead == 0 {
		t.Errorf("stats = %+v", ctx.Stats)
	}

	jd := MustFunction("json-doc")
	out, err = jd.Apply(ctx, []item.Sequence{one(item.String("/books/b.json"))})
	if err != nil {
		t.Fatal(err)
	}
	if v := out[0].(*item.Object).Value("title"); !item.Equal(v, item.String("B")) {
		t.Errorf("json-doc title = %v", v)
	}

	if _, err := f.Apply(ctx, []item.Sequence{one(item.String("/missing"))}); err == nil {
		t.Error("unknown collection must fail")
	}
	if _, err := f.Apply(NewCtx(nil), []item.Sequence{one(item.String("/books"))}); err == nil {
		t.Error("missing source must fail")
	}
}

func TestDirSource(t *testing.T) {
	dir := t.TempDir()
	if err := writeFile(dir+"/x.json", `{"a":1}`); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(dir+"/y.json", `{"a":2}`); err != nil {
		t.Fatal(err)
	}
	src := &DirSource{Mounts: map[string]string{"/c": dir}}
	files, err := src.Files("/c")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 || !strings.HasSuffix(files[0], "x.json") {
		t.Errorf("files = %v", files)
	}
	if _, err := src.Files("/nope"); err == nil {
		t.Error("unknown mount must fail")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func TestEvaluators(t *testing.T) {
	ctx := NewCtx(nil)
	fields := SeqTuple{
		one(item.Number(10)),
		one(item.ObjectFromPairs("k", item.String("v"))),
	}
	col := ColumnEval{Col: 0}
	got, err := col.Eval(ctx, fields)
	if err != nil || !item.EqualSeq(got, one(item.Number(10))) {
		t.Errorf("ColumnEval = %s, %v", item.JSONSeq(got), err)
	}
	if _, err := (ColumnEval{Col: 9}).Eval(ctx, fields); err == nil {
		t.Error("out-of-range column must fail")
	}
	c := ConstEval{Seq: one(item.String("k"))}
	call := CallEval{Fn: MustFunction("value"), Args: []Evaluator{ColumnEval{Col: 1}, c}}
	got, err = call.Eval(ctx, fields)
	if err != nil || !item.EqualSeq(got, one(item.String("v"))) {
		t.Errorf("CallEval = %s, %v", item.JSONSeq(got), err)
	}
	// Nested call error propagation.
	badCall := CallEval{Fn: MustFunction("data"), Args: []Evaluator{
		CallEval{Fn: MustFunction("value"), Args: []Evaluator{ColumnEval{Col: 99}, c}},
	}}
	if _, err := badCall.Eval(ctx, fields); err == nil {
		t.Error("nested error must propagate")
	}
}

func TestLookupFunctions(t *testing.T) {
	if _, err := LookupFunction("no-such-fn"); err == nil {
		t.Error("unknown function must fail")
	}
	if _, err := LookupAgg("no-such-agg"); err == nil {
		t.Error("unknown aggregate must fail")
	}
	if f := MustFunction("value"); f.Name != "value" {
		t.Error("MustFunction")
	}
}

func TestAggCount(t *testing.T) {
	st := MustAgg("agg-count").New()
	for i := 0; i < 5; i++ {
		if err := st.Step(one(item.Number(float64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	st.Step(item.Empty) // empty input contributes 0
	got, err := st.Finish()
	if err != nil || !item.EqualSeq(got, one(item.Number(5))) {
		t.Errorf("count = %s, %v", item.JSONSeq(got), err)
	}
}

func TestAggSequence(t *testing.T) {
	st := MustAgg("agg-sequence").New()
	st.Step(one(item.Number(1)))
	st.Step(one(item.Number(2)))
	got, _ := st.Finish()
	if !item.EqualSeq(got, item.Sequence{item.Number(1), item.Number(2)}) {
		t.Errorf("sequence = %s", item.JSONSeq(got))
	}
	if st.Size() <= 24 {
		t.Error("sequence state should report its size")
	}
}

func TestAggSumAvg(t *testing.T) {
	sum := MustAgg("agg-sum").New()
	avg := MustAgg("agg-avg").New()
	for _, v := range []float64{1, 2, 3, 4} {
		sum.Step(one(item.Number(v)))
		avg.Step(one(item.Number(v)))
	}
	if got, _ := sum.Finish(); !item.EqualSeq(got, one(item.Number(10))) {
		t.Errorf("sum = %s", item.JSONSeq(got))
	}
	if got, _ := avg.Finish(); !item.EqualSeq(got, one(item.Number(2.5))) {
		t.Errorf("avg = %s", item.JSONSeq(got))
	}
	if err := MustAgg("agg-sum").New().Step(one(item.String("x"))); err == nil {
		t.Error("agg-sum on string must fail")
	}
	empty := MustAgg("agg-avg").New()
	if got, _ := empty.Finish(); len(got) != 0 {
		t.Error("avg of nothing is empty")
	}
}

func TestAggAvgTwoStep(t *testing.T) {
	// Two partitions compute local states; global combines. The result must
	// equal single-step avg over the union.
	local1 := MustAgg("agg-avg-local").New()
	local2 := MustAgg("agg-avg-local").New()
	for _, v := range []float64{1, 2, 3} {
		local1.Step(one(item.Number(v)))
	}
	for _, v := range []float64{10, 20} {
		local2.Step(one(item.Number(v)))
	}
	p1, _ := local1.Finish()
	p2, _ := local2.Finish()
	global := MustAgg("agg-avg-global").New()
	global.Step(p1)
	global.Step(p2)
	got, err := global.Finish()
	if err != nil {
		t.Fatal(err)
	}
	want := one(item.Number((1 + 2 + 3 + 10 + 20) / 5.0))
	if !item.EqualSeq(got, want) {
		t.Errorf("two-step avg = %s, want %s", item.JSONSeq(got), item.JSONSeq(want))
	}
	if err := MustAgg("agg-avg-global").New().Step(one(item.Number(1))); err == nil {
		t.Error("global avg needs [sum,count] pairs")
	}
	if g, _ := MustAgg("agg-avg-global").New().Finish(); len(g) != 0 {
		t.Error("global avg of nothing is empty")
	}
}

func TestTwoStepCountEquivalence(t *testing.T) {
	// Global count = sum of local counts.
	l1 := MustAgg("agg-count").New()
	l2 := MustAgg("agg-count").New()
	for i := 0; i < 7; i++ {
		l1.Step(one(item.Number(0)))
	}
	for i := 0; i < 5; i++ {
		l2.Step(one(item.Number(0)))
	}
	c1, _ := l1.Finish()
	c2, _ := l2.Finish()
	g := MustAgg("agg-sum").New()
	g.Step(c1)
	g.Step(c2)
	got, _ := g.Finish()
	if !item.EqualSeq(got, one(item.Number(12))) {
		t.Errorf("two-step count = %s", item.JSONSeq(got))
	}
}

func TestStatsAdd(t *testing.T) {
	a := &Stats{BytesRead: 1, FilesRead: 2, TuplesProduced: 3, TuplesShuffled: 4, BytesShuffled: 5}
	b := &Stats{BytesRead: 10, FilesRead: 20, TuplesProduced: 30, TuplesShuffled: 40, BytesShuffled: 50}
	a.Add(b)
	if a.BytesRead != 11 || a.FilesRead != 22 || a.TuplesProduced != 33 ||
		a.TuplesShuffled != 44 || a.BytesShuffled != 55 {
		t.Errorf("Add = %+v", a)
	}
}
