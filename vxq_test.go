package vxq

import (
	"strings"
	"testing"

	"vxq/internal/gen"
	"vxq/internal/item"
)

func sensorEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	return sensorEngineLayout(t, opts, false)
}

// sensorEngineLayout is sensorEngine over either file layout: one root
// document per file, or (split) one newline-delimited record per line.
func sensorEngineLayout(t *testing.T, opts Options, split bool) *Engine {
	t.Helper()
	cfg := gen.Default()
	cfg.Files = 4
	cfg.RecordsPerFile = 4
	cfg.MeasurementsPerArray = 10
	cfg.SplitRecords = split
	docs, _, err := cfg.InMemory()
	if err != nil {
		t.Fatal(err)
	}
	eng := New(opts)
	eng.MountDocs("/sensors", docs)
	return eng
}

const apiQ1 = `
for $r in collection("/sensors")("root")()("results")()
where $r("dataType") eq "TMIN"
group by $date := $r("date")
return count($r("station"))`

func TestQueryBasic(t *testing.T) {
	eng := sensorEngine(t, Options{Partitions: 2})
	res, err := eng.Query(apiQ1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) == 0 {
		t.Fatal("no results")
	}
	var total float64
	for _, it := range res.Items {
		n, ok := it.(item.Number)
		if !ok {
			t.Fatalf("expected number, got %s", JSON(it))
		}
		total += float64(n)
	}
	// 16 records x 10 measurements, 5 cycling types -> 2 TMIN each = 32.
	if total != 32 {
		t.Errorf("total TMIN count = %v, want 32", total)
	}
	if res.Stats.FilesRead != 4 {
		t.Errorf("files read = %d", res.Stats.FilesRead)
	}
}

func TestStagedAndPipelinedAgree(t *testing.T) {
	a, err := sensorEngine(t, Options{Partitions: 3}).Query(apiQ1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sensorEngine(t, Options{Partitions: 3, Staged: true}).Query(apiQ1)
	if err != nil {
		t.Fatal(err)
	}
	if !item.EqualSeq(item.Sequence(a.Items), item.Sequence(b.Items)) {
		t.Error("executors disagree")
	}
}

func TestRuleTogglesPreserveResults(t *testing.T) {
	variants := []Options{
		{},
		{DisablePathRules: true, DisablePipeliningRules: true, DisableGroupByRules: true},
		{DisableGroupByRules: true},
		{DisablePipeliningRules: true},
	}
	// Both layouts hold the same records, so every run must agree. Without
	// the pipelining rules collection() reads a split file itself, and must
	// see every record, not just the first document.
	var want []Item
	for _, split := range []bool{false, true} {
		for i, o := range variants {
			res, err := sensorEngineLayout(t, o, split).Query(apiQ1)
			if err != nil {
				t.Fatalf("split=%v variant %d: %v", split, i, err)
			}
			if want == nil {
				want = res.Items
				continue
			}
			if !item.EqualSeq(item.Sequence(res.Items), item.Sequence(want)) {
				t.Errorf("split=%v variant %d results differ", split, i)
			}
		}
	}
}

func TestExplain(t *testing.T) {
	eng := sensorEngine(t, Options{Partitions: 2})
	orig, opt, phys, err := eng.Explain(apiQ1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(orig, "collection(") {
		t.Errorf("original plan:\n%s", orig)
	}
	if !strings.Contains(opt, "DATASCAN") {
		t.Errorf("optimized plan:\n%s", opt)
	}
	if !strings.Contains(phys, "fragment") {
		t.Errorf("physical plan:\n%s", phys)
	}
}

func TestQueryError(t *testing.T) {
	eng := sensorEngine(t, Options{})
	if _, err := eng.Query("for $x return"); err == nil {
		t.Error("syntax error must surface")
	}
	if _, err := eng.Query(`collection("/missing")()`); err == nil {
		t.Error("unknown collection must surface")
	}
}

func TestMountDirectory(t *testing.T) {
	dir := t.TempDir()
	cfg := gen.Default()
	cfg.Files = 2
	cfg.RecordsPerFile = 2
	cfg.MeasurementsPerArray = 5
	if _, err := cfg.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	eng := New(Options{Partitions: 2})
	eng.Mount("/disk", dir)
	res, err := eng.Query(`collection("/disk")("root")()("results")()`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 2*2*5 {
		t.Errorf("items = %d, want 20", len(res.Items))
	}
}

func TestResultPlansPopulated(t *testing.T) {
	res, err := sensorEngine(t, Options{}).Query(apiQ1)
	if err != nil {
		t.Fatal(err)
	}
	if res.OriginalPlan == "" || res.OptimizedPlan == "" || res.PhysicalPlan == "" {
		t.Error("plans missing from result")
	}
	if res.PeakMemory <= 0 {
		t.Error("peak memory not tracked")
	}
}

func TestJSONHelper(t *testing.T) {
	if JSON(item.Number(42)) != "42" {
		t.Error("JSON helper")
	}
}

func TestZoneMapIndexPrunesFiles(t *testing.T) {
	cfg := gen.Default()
	cfg.Files = 15 // one file per year, 2000..2014
	cfg.RecordsPerFile = 4
	cfg.MeasurementsPerArray = 10
	cfg.PartitionByYear = true
	docs, _, err := cfg.InMemory()
	if err != nil {
		t.Fatal(err)
	}
	// A selection bounded on the raw date string: only 2010 qualifies.
	q := `
		for $r in collection("/sensors")("root")()("results")()("date")
		where $r ge "2010-01-01" and $r lt "2011-01-01"
		return $r`

	without := New(Options{Partitions: 2})
	without.MountDocs("/sensors", docs)
	resNo, err := without.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if resNo.Stats.FilesSkipped != 0 {
		t.Fatalf("no index, yet %d files skipped", resNo.Stats.FilesSkipped)
	}

	with := New(Options{Partitions: 2})
	with.MountDocs("/sensors", docs)
	if err := with.BuildIndex("/sensors", `("root")()("results")()("date")`); err != nil {
		t.Fatal(err)
	}
	resIdx, err := with.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	// Same answer...
	if !item.EqualSeq(item.Sequence(resIdx.Items), item.Sequence(resNo.Items)) {
		t.Fatalf("index changed the result: %d vs %d items", len(resIdx.Items), len(resNo.Items))
	}
	if len(resIdx.Items) == 0 {
		t.Fatal("query returned nothing; bad test setup")
	}
	// ...but most files skipped (14 of 15 are other years).
	if resIdx.Stats.FilesSkipped != 14 {
		t.Errorf("files skipped = %d, want 14", resIdx.Stats.FilesSkipped)
	}
	if resIdx.Stats.FilesRead != 1 {
		t.Errorf("files read = %d, want 1", resIdx.Stats.FilesRead)
	}
	if resIdx.Stats.BytesRead >= resNo.Stats.BytesRead {
		t.Errorf("index did not reduce bytes read: %d vs %d",
			resIdx.Stats.BytesRead, resNo.Stats.BytesRead)
	}
}

func TestIndexFilterShownInPlan(t *testing.T) {
	eng := sensorEngine(t, Options{})
	_, opt, _, err := eng.Explain(`
		for $r in collection("/sensors")("root")()("results")()
		where $r("dataType") eq "TMIN" and $r("value") ge 100
		return $r`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(opt, "filter{") {
		t.Errorf("plan missing scan filter:\n%s", opt)
	}
}

func TestBuildIndexErrors(t *testing.T) {
	eng := sensorEngine(t, Options{})
	if err := eng.BuildIndex("/sensors", "not a path"); err == nil {
		t.Error("bad path must fail")
	}
	if err := eng.BuildIndex("/missing", `("a")`); err == nil {
		t.Error("missing collection must fail")
	}
	// Non-scalar path.
	if err := eng.BuildIndex("/sensors", `("root")()`); err == nil {
		t.Error("object path must fail")
	}
	if err := eng.BuildIndexes("/sensors"); err == nil {
		t.Error("empty path list must fail")
	}
}

// TestBuildIndexesMultiPath: one BuildIndexes call over two paths registers
// a zone map for each, and queries bounded on either path prune files.
func TestBuildIndexesMultiPath(t *testing.T) {
	cfg := gen.Default()
	cfg.Files = 10
	cfg.RecordsPerFile = 4
	cfg.MeasurementsPerArray = 10
	cfg.PartitionByYear = true
	docs, _, err := cfg.InMemory()
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Options{Partitions: 2})
	eng.MountDocs("/sensors", docs)
	err = eng.BuildIndexes("/sensors",
		`("root")()("results")()("date")`,
		`("root")()("results")()("value")`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(`
		for $r in collection("/sensors")("root")()("results")()("date")
		where $r ge "2005-01-01" and $r lt "2006-01-01"
		return $r`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FilesSkipped != 9 {
		t.Errorf("date-bounded query: files skipped = %d, want 9", res.Stats.FilesSkipped)
	}
	if len(res.Items) == 0 {
		t.Fatal("date-bounded query returned nothing; bad test setup")
	}
	res, err = eng.Query(`
		for $v in collection("/sensors")("root")()("results")()("value")
		where $v gt 10000000
		return $v`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FilesSkipped == 0 {
		t.Error("value-bounded impossible predicate skipped no files; second map not registered")
	}
}
