package core

import (
	"fmt"
	"strings"
	"testing"

	"vxq/internal/hyracks"
	"vxq/internal/item"
	"vxq/internal/runtime"
)

// Paper queries (§5.2).
const (
	queryQ0 = `
for $r in collection("/sensors")("root")()("results")()
let $datetime := dateTime(data($r("date")))
where year-from-dateTime($datetime) ge 2003
  and month-from-dateTime($datetime) eq 12
  and day-from-dateTime($datetime) eq 25
return $r`

	queryQ0b = `
for $r in collection("/sensors")("root")()("results")()("date")
let $datetime := dateTime(data($r))
where year-from-dateTime($datetime) ge 2003
  and month-from-dateTime($datetime) eq 12
  and day-from-dateTime($datetime) eq 25
return $r`

	queryQ1 = `
for $r in collection("/sensors")("root")()("results")()
where $r("dataType") eq "TMIN"
group by $date := $r("date")
return count($r("station"))`

	queryQ1b = `
for $r in collection("/sensors")("root")()("results")()
where $r("dataType") eq "TMIN"
group by $date := $r("date")
return count(for $i in $r return $i("station"))`

	queryQ2 = `
avg(
  for $r_min in collection("/sensors")("root")()("results")()
  for $r_max in collection("/sensors")("root")()("results")()
  where $r_min("station") eq $r_max("station")
    and $r_min("date") eq $r_max("date")
    and $r_min("dataType") eq "TMIN"
    and $r_max("dataType") eq "TMAX"
  return $r_max("value") - $r_min("value")
) div 10`

	// Order-by keys over a grouped variable and over a let variable: the
	// §4.3 treat removal and the §4.1/§4.2 merges must see the keys.
	queryOrderByGroupCount = `
for $r in collection("/sensors")("root")()("results")()
group by $s := $r("station")
order by count($r) descending, $s
return $s`

	queryOrderByLet = `
for $m in collection("/sensors")("root")()
let $x := $m("results")
for $r in $x()
order by count($x) descending, $r("date"), $r("dataType")
return $r("value")`

	queryOrderByGroupAvg = `
for $r in collection("/sensors")("root")()("results")()
group by $s := $r("station")
let $n := count($r)
order by avg($r("value")), $s
return $n`
)

// sensorSource builds a small deterministic sensor collection:
// 3 files x 2 records x 4 measurements.
func sensorSource() *runtime.MemSource {
	meas := func(date, typ, station string, val int) string {
		return fmt.Sprintf(`{"date":%q,"dataType":%q,"station":%q,"value":%d}`, date, typ, station, val)
	}
	files := map[string][]byte{}
	for f := 0; f < 3; f++ {
		st := fmt.Sprintf("ST%03d", f)
		doc := `{"root":[` +
			`{"metadata":{"count":4},"results":[` +
			meas("2003-12-25T00:00", "TMIN", st, -f) + "," +
			meas("2003-12-25T00:00", "TMAX", st, 10+f) + "," +
			meas("2003-12-26T00:00", "TMIN", st, 1) + "," +
			meas("2002-12-25T00:00", "TMIN", st, 2) + `]},` +
			`{"metadata":{"count":2},"results":[` +
			meas("2004-12-25T00:00", "TMIN", st, 5) + "," +
			meas("2004-12-25T00:00", "TMAX", st, 15+f) + `]}` +
			`]}`
		files[fmt.Sprintf("s%d.json", f)] = []byte(doc)
	}
	return &runtime.MemSource{Collections: map[string]map[string][]byte{"/sensors": files}}
}

func ruleConfigs() map[string]RuleConfig {
	return map[string]RuleConfig{
		"none":       {},
		"path":       {PathRules: true},
		"path+pipe":  {PathRules: true, PipeliningRules: true},
		"path+group": {PathRules: true, GroupByRules: true},
		"all":        AllRules(),
		"pipe-only":  {PipeliningRules: true},
		"group-only": {GroupByRules: true},
	}
}

// runQuery compiles query and runs the job on both schedules, which must
// return the same rows; it returns the sequential run's result with its rows
// sorted.
func runQuery(t *testing.T, query string, cfg RuleConfig, partitions int) *hyracks.Result {
	t.Helper()
	c, err := CompileQuery(query, Options{Rules: cfg, Partitions: partitions})
	if err != nil {
		t.Fatalf("CompileQuery: %v", err)
	}
	res, err := hyracks.RunStaged(c.Job, &hyracks.Env{Source: sensorSource()})
	if err != nil {
		t.Fatalf("RunStaged: %v\noptimized plan:\n%s\njob:\n%s", err, c.OptimizedPlan, c.Job)
	}
	res.SortRows()
	pip, err := hyracks.RunPipelined(c.Job, &hyracks.Env{Source: sensorSource()})
	if err != nil {
		t.Fatalf("RunPipelined: %v\noptimized plan:\n%s\njob:\n%s", err, c.OptimizedPlan, c.Job)
	}
	pip.SortRows()
	if got, want := rowsString(pip), rowsString(res); got != want {
		t.Fatalf("schedules disagree:\n--- pipelined ---\n%s--- staged ---\n%s", got, want)
	}
	return res
}

func rowsString(res *hyracks.Result) string {
	var b strings.Builder
	for _, row := range res.Rows {
		for j, f := range row {
			if j > 0 {
				b.WriteString(" | ")
			}
			b.WriteString(item.JSONSeq(f))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestAllQueriesAllRuleConfigs is the central semantics-preservation test:
// every paper query and order-by regression must produce identical results
// under every rule configuration, partition count and schedule.
func TestAllQueriesAllRuleConfigs(t *testing.T) {
	queries := map[string]string{
		"Q0": queryQ0, "Q0b": queryQ0b, "Q1": queryQ1, "Q1b": queryQ1b, "Q2": queryQ2,
		"order-by-group-count": queryOrderByGroupCount,
		"order-by-let":         queryOrderByLet,
		"order-by-group-avg":   queryOrderByGroupAvg,
	}
	for qname, q := range queries {
		var want string
		for cfgName, cfg := range ruleConfigs() {
			parts := []int{1}
			if cfg.PipeliningRules {
				parts = []int{1, 2, 3}
			}
			for _, p := range parts {
				res := runQuery(t, q, cfg, p)
				got := rowsString(res)
				if want == "" {
					want = got
					continue
				}
				if got != want {
					t.Errorf("%s/%s/p=%d results differ:\n--- got ---\n%s--- want ---\n%s",
						qname, cfgName, p, got, want)
				}
			}
		}
	}
}

func TestQ0Results(t *testing.T) {
	res := runQuery(t, queryQ0, AllRules(), 2)
	// Dec-25 measurements from 2003 on: per file 2 (2003) + 2 (2004) = 4;
	// 3 files -> 12. The 2002 row is filtered out.
	if len(res.Rows) != 12 {
		t.Fatalf("Q0 rows = %d, want 12\n%s", len(res.Rows), rowsString(res))
	}
	for _, row := range res.Rows {
		obj, err := row[0].One()
		if err != nil {
			t.Fatal(err)
		}
		date := obj.(*item.Object).Value("date").(item.String)
		if !strings.Contains(string(date), "-12-25") {
			t.Errorf("unexpected date %s", date)
		}
		if strings.HasPrefix(string(date), "2002") {
			t.Errorf("2002 measurement not filtered: %s", date)
		}
	}
}

func TestQ0bReturnsDateStrings(t *testing.T) {
	res := runQuery(t, queryQ0b, AllRules(), 1)
	if len(res.Rows) != 12 {
		t.Fatalf("Q0b rows = %d, want 12", len(res.Rows))
	}
	for _, row := range res.Rows {
		it, _ := row[0].One()
		if it.Kind() != item.KindString {
			t.Fatalf("Q0b must return date strings, got %v", it.Kind())
		}
	}
}

func TestQ1Counts(t *testing.T) {
	res := runQuery(t, queryQ1, AllRules(), 2)
	// TMIN groups by date: 2003-12-25 (3 stations), 2003-12-26 (3),
	// 2002-12-25 (3), 2004-12-25 (3) -> 4 groups of count 3.
	if len(res.Rows) != 4 {
		t.Fatalf("Q1 groups = %d, want 4\n%s", len(res.Rows), rowsString(res))
	}
	for _, row := range res.Rows {
		c, _ := row[0].One()
		if float64(c.(item.Number)) != 3 {
			t.Errorf("group count = %s, want 3", item.JSONSeq(row[0]))
		}
	}
}

func TestQ2Average(t *testing.T) {
	res := runQuery(t, queryQ2, AllRules(), 2)
	if len(res.Rows) != 1 {
		t.Fatalf("Q2 rows = %d\n%s", len(res.Rows), rowsString(res))
	}
	// Matches per station f: 2003-12-25 diff (10+f)-(-f) = 10+2f and
	// 2004-12-25 diff (15+f)-5 = 10+f. f=0,1,2:
	// diffs = 10,12,14,10,11,12 -> avg = 69/6 = 11.5 -> div 10 = 1.15.
	got, _ := res.Rows[0][0].One()
	if f := float64(got.(item.Number)); f < 1.149 || f > 1.151 {
		t.Errorf("Q2 = %v, want 1.15", f)
	}
}

func TestPlanShapesFollowThePaper(t *testing.T) {
	// Fig. 5 shape (no rules): ASSIGN collection + UNNEST iterate, two-step
	// keys-or-members, promote/data present.
	c, err := CompileQuery(queryQ0, Options{Rules: RuleConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	orig := c.OriginalPlan
	for _, want := range []string{"collection(", "promote(data(", "keys-or-members(", "iterate("} {
		if !strings.Contains(orig, want) {
			t.Errorf("original plan missing %q:\n%s", want, orig)
		}
	}
	if strings.Contains(orig, "DATASCAN") {
		t.Errorf("original plan must not contain DATASCAN:\n%s", orig)
	}
	// With no rules the optimized plan keeps the ASSIGN collection.
	if !strings.Contains(c.OptimizedPlan, "collection(") {
		t.Errorf("unoptimized compile lost collection():\n%s", c.OptimizedPlan)
	}

	// Path rules only (Fig. 4 analogue): keys-or-members merged into
	// UNNEST, promote/data gone, still no DATASCAN.
	c, err = CompileQuery(queryQ0, Options{Rules: RuleConfig{PathRules: true}})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(c.OptimizedPlan, "promote(") {
		t.Errorf("path rules must remove promote:\n%s", c.OptimizedPlan)
	}
	if !strings.Contains(c.OptimizedPlan, "UNNEST") ||
		!strings.Contains(c.OptimizedPlan, "keys-or-members(") {
		t.Errorf("path rules should merge keys-or-members into UNNEST:\n%s", c.OptimizedPlan)
	}
	if strings.Contains(c.OptimizedPlan, "DATASCAN") {
		t.Errorf("no DATASCAN without pipelining rules:\n%s", c.OptimizedPlan)
	}

	// Pipelining rules (Fig. 8 analogue): a DATASCAN with the full
	// projection path, no leftover navigation ASSIGNs for the path.
	c, err = CompileQuery(queryQ0, Options{Rules: RuleConfig{PathRules: true, PipeliningRules: true}})
	if err != nil {
		t.Fatal(err)
	}
	want := `DATASCAN $v`
	if !strings.Contains(c.OptimizedPlan, want) {
		t.Fatalf("pipelining rules must introduce DATASCAN:\n%s", c.OptimizedPlan)
	}
	if !strings.Contains(c.OptimizedPlan, `("root")()("results")()`) {
		t.Errorf("DATASCAN must carry the full projection path:\n%s", c.OptimizedPlan)
	}
	if strings.Contains(c.OptimizedPlan, "keys-or-members") {
		t.Errorf("all navigation should be merged into DATASCAN:\n%s", c.OptimizedPlan)
	}
}

func TestQ0bPathIncludesDate(t *testing.T) {
	c, err := CompileQuery(queryQ0b, Options{Rules: AllRules()})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.OptimizedPlan, `("root")()("results")()("date")`) {
		t.Errorf("Q0b DATASCAN must project down to the date field:\n%s", c.OptimizedPlan)
	}
}

func TestGroupByRulesTransformQ1(t *testing.T) {
	// Without group-by rules: treat + scalar count over the sequence.
	c, err := CompileQuery(queryQ1, Options{Rules: RuleConfig{PathRules: true, PipeliningRules: true}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.OptimizedPlan, "treat(") {
		t.Errorf("treat should remain without group-by rules:\n%s", c.OptimizedPlan)
	}
	if !strings.Contains(c.OptimizedPlan, "sequence(") {
		t.Errorf("sequence aggregate should remain without group-by rules:\n%s", c.OptimizedPlan)
	}

	// With group-by rules (Fig. 12): count pushed into the GROUP-BY, no
	// treat, no sequence aggregate, no subplan.
	c, err = CompileQuery(queryQ1, Options{Rules: AllRules()})
	if err != nil {
		t.Fatal(err)
	}
	plan := c.OptimizedPlan
	if strings.Contains(plan, "treat(") {
		t.Errorf("group-by rules must remove treat:\n%s", plan)
	}
	if strings.Contains(plan, "sequence(") {
		t.Errorf("group-by rules must remove the sequence aggregate:\n%s", plan)
	}
	if strings.Contains(plan, "SUBPLAN") {
		t.Errorf("the subplan must be pushed into the group-by:\n%s", plan)
	}
	if !strings.Contains(plan, "count(") {
		t.Errorf("count aggregate missing:\n%s", plan)
	}
}

func TestQ1bAlreadyOptimizedShape(t *testing.T) {
	// Q1b's original plan already contains the SUBPLAN form (Fig. 11); the
	// conversion rule is not needed, only the push-down.
	c, err := CompileQuery(queryQ1b, Options{Rules: RuleConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.OriginalPlan, "SUBPLAN") {
		t.Errorf("Q1b original plan should contain a SUBPLAN:\n%s", c.OriginalPlan)
	}
	c, err = CompileQuery(queryQ1b, Options{Rules: AllRules()})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(c.OptimizedPlan, "SUBPLAN") {
		t.Errorf("push-down must remove the subplan:\n%s", c.OptimizedPlan)
	}
}

func TestQ2BecomesHashJoin(t *testing.T) {
	c, err := CompileQuery(queryQ2, Options{Rules: AllRules()})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.OptimizedPlan, "HASH-JOIN") {
		t.Fatalf("Q2 must become a hash join:\n%s", c.OptimizedPlan)
	}
	// The dataType filters must be pushed into the branches as SELECTs.
	if n := strings.Count(c.OptimizedPlan, "SELECT"); n < 2 {
		t.Errorf("expected at least 2 pushed SELECTs, found %d:\n%s", n, c.OptimizedPlan)
	}
	// Both branches become DATASCANs under pipelining.
	if n := strings.Count(c.OptimizedPlan, "DATASCAN"); n != 2 {
		t.Errorf("expected 2 DATASCANs, found %d:\n%s", n, c.OptimizedPlan)
	}
}

func TestTwoStepAggregationInJob(t *testing.T) {
	c, err := CompileQuery(queryQ1, Options{Rules: AllRules(), Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	js := c.Job.String()
	if !strings.Contains(js, "GROUP-BY local") || !strings.Contains(js, "GROUP-BY global") {
		t.Errorf("expected two-step group-by in job:\n%s", js)
	}
	if !strings.Contains(js, "HASH") {
		t.Errorf("expected hash exchange in job:\n%s", js)
	}
}

func TestPipelinedExecutorAgrees(t *testing.T) {
	for _, q := range []string{queryQ0, queryQ1, queryQ2} {
		c, err := CompileQuery(q, Options{Rules: AllRules(), Partitions: 2})
		if err != nil {
			t.Fatal(err)
		}
		staged, err := hyracks.RunStaged(c.Job, &hyracks.Env{Source: sensorSource()})
		if err != nil {
			t.Fatal(err)
		}
		piped, err := hyracks.RunPipelined(c.Job, &hyracks.Env{Source: sensorSource()})
		if err != nil {
			t.Fatal(err)
		}
		staged.SortRows()
		piped.SortRows()
		if rowsString(staged) != rowsString(piped) {
			t.Errorf("executors disagree for %q", q)
		}
	}
}

func TestBookstoreQueriesEndToEnd(t *testing.T) {
	src := &runtime.MemSource{Collections: map[string]map[string][]byte{
		"/books": {
			"a.json": []byte(`{"bookstore":{"book":[
				{"-category":"COOKING","title":"Everyday Italian","author":"Giada De Laurentiis","year":"2005","price":"30.00"},
				{"-category":"CHILDREN","title":"Harry Potter","author":"J K. Rowling","year":"2005","price":"29.99"}]}}`),
			"b.json": []byte(`{"bookstore":{"book":[
				{"-category":"WEB","title":"XQuery Kick Start","author":"James McGovern","year":"2003","price":"49.99"},
				{"-category":"WEB","title":"Learning XML","author":"James McGovern","year":"2003","price":"39.95"}]}}`),
		},
	}}
	run := func(q string, cfg RuleConfig) *hyracks.Result {
		t.Helper()
		c, err := CompileQuery(q, Options{Rules: cfg, Partitions: 2})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		res, err := hyracks.RunStaged(c.Job, &hyracks.Env{Source: src})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		res.SortRows()
		return res
	}
	// Listing 3: all books.
	for name, cfg := range ruleConfigs() {
		res := run(`collection("/books")("bookstore")("book")()`, cfg)
		if len(res.Rows) != 4 {
			t.Errorf("%s: books = %d, want 4", name, len(res.Rows))
		}
	}
	// Listings 4/5: counts per author.
	for _, q := range []string{
		`for $x in collection("/books")("bookstore")("book")()
		 group by $author := $x("author")
		 return count($x("title"))`,
		`for $x in collection("/books")("bookstore")("book")()
		 group by $author := $x("author")
		 return count(for $j in $x return $j("title"))`,
	} {
		res := run(q, AllRules())
		if len(res.Rows) != 3 {
			t.Fatalf("author groups = %d, want 3\n%s", len(res.Rows), rowsString(res))
		}
		// Sorted counts: 1, 1, 2.
		var counts []float64
		for _, row := range res.Rows {
			c, _ := row[0].One()
			counts = append(counts, float64(c.(item.Number)))
		}
		if counts[0] != 1 || counts[1] != 1 || counts[2] != 2 {
			t.Errorf("counts = %v", counts)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []string{
		`for $x in collection("/c")() return $missing`, // unbound var
		`nonsense syntax here(((`,
		`no-such-function(1)`, // unknown function caught at physical compile
	}
	for _, q := range cases {
		if _, err := CompileQuery(q, Options{Rules: AllRules()}); err == nil {
			t.Errorf("CompileQuery(%q) should fail", q)
		}
	}
}

func TestJSONDocQuery(t *testing.T) {
	src := &runtime.MemSource{Collections: map[string]map[string][]byte{
		"/books": {"books.json": []byte(`{"bookstore":{"book":[{"title":"T1"},{"title":"T2"}]}}`)},
	}}
	c, err := CompileQuery(`json-doc("/books/books.json")("bookstore")("book")()`,
		Options{Rules: AllRules()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := hyracks.RunStaged(c.Job, &hyracks.Env{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("books = %d, want 2\nplan:\n%s", len(res.Rows), c.OptimizedPlan)
	}
}
