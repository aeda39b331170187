package asterixsim

import (
	"strings"
	"testing"

	"vxq/internal/core"
	"vxq/internal/gen"
	"vxq/internal/hyracks"
	"vxq/internal/item"
	"vxq/internal/runtime"
)

const q0b = `
for $r in collection("/sensors")("root")()("results")()("date")
let $datetime := dateTime(data($r))
where year-from-dateTime($datetime) ge 2003
  and month-from-dateTime($datetime) eq 12
  and day-from-dateTime($datetime) eq 25
return $r`

func testSource(t *testing.T) runtime.Source {
	t.Helper()
	cfg := gen.Default()
	cfg.Files = 4
	cfg.RecordsPerFile = 6
	cfg.MeasurementsPerArray = 10
	docs, _, err := cfg.InMemory()
	if err != nil {
		t.Fatal(err)
	}
	return &runtime.MemSource{Collections: map[string]map[string][]byte{"/sensors": docs}}
}

func vxqueryReference(t *testing.T, src runtime.Source) [][]item.Sequence {
	t.Helper()
	c, err := core.CompileQuery(q0b, core.Options{Rules: core.AllRules(), Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := hyracks.RunStaged(c.Job, &hyracks.Env{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	res.SortRows()
	return res.Rows
}

func TestExternalModeMatchesVXQuery(t *testing.T) {
	src := testSource(t)
	want := vxqueryReference(t, src)
	sys := New(External, src)
	res, err := sys.Run(q0b, 2)
	if err != nil {
		t.Fatal(err)
	}
	res.SortRows()
	if len(res.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(want))
	}
	for i := range want {
		if !item.EqualSeq(res.Rows[i][0], want[i][0]) {
			t.Fatalf("row %d differs", i)
		}
	}
}

func TestLoadFirstModeMatchesVXQuery(t *testing.T) {
	src := testSource(t)
	want := vxqueryReference(t, src)
	sys := New(LoadFirst, src)
	if err := sys.Load("/sensors"); err != nil {
		t.Fatal(err)
	}
	if sys.DocumentsLoaded != 4*6 {
		t.Errorf("documents loaded = %d, want 24", sys.DocumentsLoaded)
	}
	if sys.StorageBytes <= 0 {
		t.Error("no storage accounted")
	}
	res, err := sys.Run(q0b, 2)
	if err != nil {
		t.Fatal(err)
	}
	res.SortRows()
	if len(res.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(want))
	}
	for i := range want {
		if !item.EqualSeq(res.Rows[i][0], want[i][0]) {
			t.Fatalf("row %d differs", i)
		}
	}
}

func TestNoProjectionPushdownInPlan(t *testing.T) {
	sys := New(External, testSource(t))
	c, err := sys.Compile(q0b, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The DATASCAN must NOT carry the projection path: documents are
	// materialized whole.
	if strings.Contains(c.OptimizedPlan, `DATASCAN $v`) &&
		strings.Contains(c.OptimizedPlan, `("root")()("results")()("date")`) &&
		strings.Contains(c.OptimizedPlan, "DATASCAN $v1 <- collection(\"/sensors\")(") {
		t.Errorf("projection was pushed into DATASCAN:\n%s", c.OptimizedPlan)
	}
	if !strings.Contains(c.OptimizedPlan, "DATASCAN") {
		t.Errorf("expected a DATASCAN:\n%s", c.OptimizedPlan)
	}
	if !strings.Contains(c.OptimizedPlan, "UNNEST") {
		t.Errorf("navigation should remain above the scan:\n%s", c.OptimizedPlan)
	}
}

func TestAsterixMaterializesMoreMemory(t *testing.T) {
	src := testSource(t)
	run := func(rules core.RuleConfig) int64 {
		t.Helper()
		c, err := core.CompileQuery(q0b, core.Options{Rules: rules, Partitions: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := hyracks.RunStaged(c.Job, &hyracks.Env{Source: src})
		if err != nil {
			t.Fatal(err)
		}
		return res.PeakMemory
	}
	vxq := run(core.AllRules())
	asterix := core.AllRules()
	asterix.NoProjectionPushdown = true
	ast := run(asterix)
	if ast <= vxq {
		t.Errorf("whole-document materialization should peak higher: vxq=%d asterix=%d", vxq, ast)
	}
}

func TestLoadRequiresLoadFirstMode(t *testing.T) {
	sys := New(External, testSource(t))
	if err := sys.Load("/sensors"); err == nil {
		t.Error("Load in External mode must fail")
	}
	lf := New(LoadFirst, testSource(t))
	if _, err := lf.Run(q0b, 1); err == nil {
		t.Error("Run before Load must fail in LoadFirst mode")
	}
}

func TestModeString(t *testing.T) {
	if External.String() != "AsterixDB" || LoadFirst.String() != "AsterixDB(load)" {
		t.Error("mode names")
	}
}
