package hyracks

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"vxq/internal/frame"
	"vxq/internal/item"
	"vxq/internal/runtime"
)

// spillBudget is the per-operator budget the out-of-core tests run under —
// small enough that bigSource exceeds it at least 4x in every blocking
// operator, which is the acceptance bar for the grace-hash/merge-sort paths.
const spillBudget = 4 << 10

// bigSource generates 2n sensor records (a TMIN/TMAX pair per index, unique
// (station, date) per pair, integer values so every aggregate is exact in
// float64 regardless of summation order). At n=400 the collection is ~100 KiB
// of raw JSON — far beyond the 4 KiB test budget.
func bigSource(n int) *runtime.MemSource {
	files := map[string][]byte{}
	var entries []string
	file := 0
	flush := func() {
		if len(entries) == 0 {
			return
		}
		doc := []byte(`{"root":[` + joinStrings(entries) + `]}`)
		files[fmt.Sprintf("f%03d.json", file)] = doc
		file++
		entries = entries[:0]
	}
	rec := func(date, typ, station string, val int) string {
		return fmt.Sprintf(`{"metadata":{"count":1},"results":[{"date":%q,"dataType":%q,"station":%q,"value":%d}]}`,
			date, typ, station, val)
	}
	for i := 0; i < n; i++ {
		station := fmt.Sprintf("S%02d", i%23)
		date := fmt.Sprintf("2014-01-%03d", i)
		entries = append(entries,
			rec(date, "TMIN", station, i%50-10),
			rec(date, "TMAX", station, i%60+5))
		if len(entries) >= 40 {
			flush()
		}
	}
	flush()
	return &runtime.MemSource{Collections: map[string]map[string][]byte{"/sensors": files}}
}

func joinStrings(ss []string) string {
	var b bytes.Buffer
	for i, s := range ss {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s)
	}
	return b.String()
}

// bigGroupBy groups on (date, station) — one group per generated pair, so the
// hash table grows far past the test budget — counting rows and summing the
// integer values.
func bigGroupBy() *GroupBySpec {
	return &GroupBySpec{
		Keys: []runtime.Evaluator{
			call("value", col(0), constStr("date")),
			call("value", col(0), constStr("station")),
		},
		Aggs: []AggDef{
			{Fn: runtime.MustAgg("agg-count"), Arg: col(0)},
			{Fn: runtime.MustAgg("agg-sum"), Arg: call("value", col(0), constStr("value"))},
		},
	}
}

// bigSortOps assigns (station, value) and sorts by them; the buffered rows
// blow the budget and force external runs.
func bigSortOps() []OpSpec {
	return []OpSpec{
		&AssignSpec{Evals: []runtime.Evaluator{
			call("value", col(0), constStr("station")),
			call("value", col(0), constStr("value")),
		}},
		&SortSpec{Keys: []SortDef{{Key: col(1)}, {Key: col(2), Desc: true}}},
		&ProjectSpec{Cols: []int{1, 2}},
	}
}

// bigJoinJob is joinJob without the trailing average: TMIN rows join TMAX
// rows on (station, date) and the per-match differences are collected
// directly, so the spilled and in-memory row sets can be compared
// byte-for-byte after canonical sorting.
func bigJoinJob(parts int) *Job {
	filter := func(typ string) OpSpec {
		return &SelectSpec{Cond: call("eq", call("value", col(0), constStr("dataType")), constStr(typ))}
	}
	keys := func() []runtime.Evaluator {
		return []runtime.Evaluator{
			call("value", col(0), constStr("station")),
			call("value", col(0), constStr("date")),
		}
	}
	diff := &AssignSpec{Evals: []runtime.Evaluator{call("sub",
		call("value", col(1), constStr("value")),
		call("value", col(0), constStr("value")),
	)}}
	return &Job{
		Fragments: []*Fragment{
			{ID: 0, Source: ScanSource{Collection: "/sensors", Project: measurementsPath()},
				Ops: []OpSpec{filter("TMIN")}, Partitions: parts, SinkExchange: 0},
			{ID: 1, Source: ScanSource{Collection: "/sensors", Project: measurementsPath()},
				Ops: []OpSpec{filter("TMAX")}, Partitions: parts, SinkExchange: 1},
			{ID: 2, Source: JoinSource{Build: 0, Probe: 1,
				Spec: &JoinSpec{BuildKeys: keys(), ProbeKeys: keys()}},
				Ops: []OpSpec{diff, &ProjectSpec{Cols: []int{2}}}, Partitions: parts, SinkExchange: 2},
			{ID: 3, Source: ExchangeSource{Exchange: 2}, Partitions: 1, SinkExchange: -1},
		},
		Exchanges: []*Exchange{
			{ID: 0, Kind: ExchangeHash, Keys: keys(), ConsumerPartitions: parts},
			{ID: 1, Kind: ExchangeHash, Keys: keys(), ConsumerPartitions: parts},
			{ID: 2, Kind: ExchangeMerge, ConsumerPartitions: 1},
		},
	}
}

// checkNoSpillFiles fails if the dedicated spill directory still holds any
// file — on every exit path the operators must remove their runs and temp
// files.
func checkNoSpillFiles(t *testing.T, name, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, e := range ents {
		t.Errorf("%s: spill file left behind: %s", name, e.Name())
	}
}

// sameRowsBytes requires two (already canonically sorted) results to be
// byte-identical under the canonical item encoding.
func sameRowsBytes(t *testing.T, name string, want, got *Result) {
	t.Helper()
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("%s: %d rows, want %d", name, len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if len(want.Rows[i]) != len(got.Rows[i]) {
			t.Fatalf("%s: row %d arity %d, want %d", name, i, len(got.Rows[i]), len(want.Rows[i]))
		}
		for j := range want.Rows[i] {
			wb := item.EncodeSeq(nil, want.Rows[i][j])
			gb := item.EncodeSeq(nil, got.Rows[i][j])
			if !bytes.Equal(wb, gb) {
				t.Fatalf("%s: row %d field %d not byte-identical: want %s, got %s",
					name, i, j, item.JSONSeq(want.Rows[i][j]), item.JSONSeq(got.Rows[i][j]))
			}
		}
	}
}

// runSpillDiff is the acceptance harness: the job runs unbudgeted in memory,
// then under a tiny budget with both executors. The budgeted runs must spill
// (Stats.SpilledBytes > 0 on an input >= 4x the budget), produce
// byte-identical rows, return the accountant to zero, and leave the spill
// directory empty.
func runSpillDiff(t *testing.T, name string, job *Job, src *runtime.MemSource) {
	t.Helper()
	runSpillDiffOpt(t, name, job, src, true)
}

func runSpillDiffOpt(t *testing.T, name string, job *Job, src *runtime.MemSource, wantSpill bool) {
	t.Helper()
	plain, err := RunStaged(job, &Env{Source: src})
	if err != nil {
		t.Fatalf("%s: in-memory run: %v", name, err)
	}
	plain.SortRows()
	if plain.Stats.BytesRead < 4*spillBudget {
		t.Fatalf("%s: input %d bytes is under 4x the %d budget — test data too small",
			name, plain.Stats.BytesRead, spillBudget)
	}
	for _, mode := range executors {
		dir := t.TempDir()
		acct := frame.NewAccountant(0)
		env := &Env{Source: src, Accountant: acct,
			OpMemoryBudget: spillBudget, SpillDir: dir}
		res, err := mode.run(job, env)
		if err != nil {
			t.Fatalf("%s/%s: %v", name, mode.name, err)
		}
		res.SortRows()
		sameRowsBytes(t, name+"/"+mode.name, plain, res)
		if wantSpill {
			if res.Stats.SpilledBytes <= 0 {
				t.Errorf("%s/%s: SpilledBytes = %d, want > 0 (budget never hit?)",
					name, mode.name, res.Stats.SpilledBytes)
			}
			if res.Stats.SpillPartitions <= 0 || res.Stats.SpillWaves <= 0 {
				t.Errorf("%s/%s: spill stats partitions=%d waves=%d, want > 0",
					name, mode.name, res.Stats.SpillPartitions, res.Stats.SpillWaves)
			}
		}
		if cur := acct.Current(); cur != 0 {
			t.Errorf("%s/%s: accountant balance = %d after clean end, want 0", name, mode.name, cur)
		}
		checkNoSpillFiles(t, name+"/"+mode.name, dir)
	}
}

func TestSpillGroupByDifferential(t *testing.T) {
	src := bigSource(400)
	runSpillDiff(t, "group-by-1p", scanJob(1, measurementsPath(), bigGroupBy()), src)
	runSpillDiff(t, "group-by-2p", scanJob(2, measurementsPath(), bigGroupBy()), src)
}

func TestSpillTwoStepGroupByDifferential(t *testing.T) {
	// The standard two-step shape groups by date; bigSource gives every pair a
	// distinct date, so both the local and the global tables exceed budget.
	src := bigSource(400)
	runSpillDiff(t, "two-step-gby", twoStepGroupByJob(2, 2), src)
}

func TestSpillSortDifferential(t *testing.T) {
	src := bigSource(400)
	runSpillDiff(t, "sort-1p", scanJob(1, measurementsPath(), bigSortOps()...), src)
	runSpillDiff(t, "sort-2p", scanJob(2, measurementsPath(), bigSortOps()...), src)
}

func TestSpillJoinDifferential(t *testing.T) {
	src := bigSource(400)
	runSpillDiff(t, "join-1p", bigJoinJob(1), src)
	runSpillDiff(t, "join-2p", bigJoinJob(2), src)
}

// TestSpillSortStability: external merge sort must be byte-identical to the
// in-memory stable sort, including the ORDER of duplicate-key rows. The sort
// key (station) has 23 distinct values over 800 rows, so runs are full of
// ties; each row's payload (its unique date) exposes any reordering. A single
// partition end to end makes row order deterministic, so the results compare
// positionally without canonical sorting.
func TestSpillSortStability(t *testing.T) {
	src := bigSource(400)
	job := func() *Job {
		return scanJob(1, measurementsPath(),
			&AssignSpec{Evals: []runtime.Evaluator{
				call("value", col(0), constStr("station")),
				call("value", col(0), constStr("date")),
			}},
			&SortSpec{Keys: []SortDef{{Key: col(1)}}},
			&ProjectSpec{Cols: []int{1, 2}})
	}
	plain, err := RunStaged(job(), &Env{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	spilled, err := RunStaged(job(), &Env{Source: src,
		OpMemoryBudget: spillBudget, SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if spilled.Stats.SpilledBytes <= 0 {
		t.Fatalf("SpilledBytes = %d, want > 0", spilled.Stats.SpilledBytes)
	}
	// No SortRows here: positional comparison checks stability itself.
	sameRowsBytes(t, "sort-stability", plain, spilled)
	checkNoSpillFiles(t, "sort-stability", dir)
}

// TestSpillEagerModeNeverSpills: the eager reference mode keeps decoded
// items, which cannot round-trip through raw-byte spill files; budgets must
// be ignored there rather than corrupt results.
func TestSpillEagerModeNeverSpills(t *testing.T) {
	src := bigSource(100)
	res, err := RunStaged(scanJob(1, measurementsPath(), bigGroupBy()),
		&Env{Source: src, EagerReference: true,
			OpMemoryBudget: spillBudget, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SpilledBytes != 0 {
		t.Errorf("eager mode spilled %d bytes, want 0", res.Stats.SpilledBytes)
	}
	if len(res.Rows) != 100 {
		t.Errorf("groups = %d, want 100", len(res.Rows))
	}
}

// TestSpillHygieneAndBalanceOnError injects failures downstream of each
// spilling operator (an out-of-range project fails the first emitted tuple,
// after runs already exist on disk) and mid-scan (a corrupt file aborts the
// input stream). Both executors must surface the error, remove every spill
// file, and return the accountant to zero — in pipelined mode the failure
// also cancels sibling tasks mid-flight, which is the executors'
// cancellation path.
func TestSpillHygieneAndBalanceOnError(t *testing.T) {
	src := bigSource(400)
	boom := &ProjectSpec{Cols: []int{42}}
	joinFail := bigJoinJob(2)
	joinFail.Fragments[2].Ops = []OpSpec{boom}
	corrupt := bigSource(400)
	corrupt.Collections["/sensors"]["zzz-corrupt.json"] = []byte(`{"root": [ {"x": `)
	cases := map[string]struct {
		job *Job
		src *runtime.MemSource
	}{
		"group-by-downstream": {scanJob(2, measurementsPath(), bigGroupBy(), boom), src},
		"sort-downstream": {scanJob(2, measurementsPath(),
			&AssignSpec{Evals: []runtime.Evaluator{call("value", col(0), constStr("station"))}},
			&SortSpec{Keys: []SortDef{{Key: col(1)}}},
			boom), src},
		"join-downstream":     {joinFail, src},
		"group-by-scan-error": {scanJob(2, measurementsPath(), bigGroupBy()), corrupt},
	}
	for name, c := range cases {
		for _, mode := range executors {
			dir := t.TempDir()
			acct := frame.NewAccountant(0)
			env := &Env{Source: c.src, Accountant: acct,
				OpMemoryBudget: spillBudget, SpillDir: dir}
			if _, err := mode.run(c.job, env); err == nil {
				t.Fatalf("%s/%s: expected error", name, mode.name)
			}
			if cur := acct.Current(); cur != 0 {
				t.Errorf("%s/%s: accountant balance = %d after failed run, want 0", name, mode.name, cur)
			}
			checkNoSpillFiles(t, name+"/"+mode.name, dir)
		}
	}
}

// TestSpillUnderForcedHashCollisions forces every key hash to one value:
// grace-hash partitioning cannot split anything by hash, so recursion must
// hit its depth bound and fall back to in-memory processing instead of
// looping forever — and still produce correct results.
func TestSpillUnderForcedHashCollisions(t *testing.T) {
	testHashEncodedField = func([]byte) (uint64, error) { return 42, nil }
	defer func() { testHashEncodedField = nil }()
	src := bigSource(120)
	runSpillDiff(t, "collisions-group-by", scanJob(1, measurementsPath(), bigGroupBy()), src)
	// The join's single-hash guard (maybeSpill: a one-bucket table cannot be
	// split) keeps it in memory under total collision — correctness and
	// hygiene still hold, spilling is just declined.
	runSpillDiffOpt(t, "collisions-join", bigJoinJob(1), src, false)
}

// TestSpillAccountantBalancesWithProfile: the profiling wrappers snapshot
// spill counters at Close; they must not perturb the charge/release pairing
// of the out-of-core paths.
func TestSpillAccountantBalancesWithProfile(t *testing.T) {
	src := bigSource(200)
	jobs := map[string]*Job{
		"group-by": scanJob(2, measurementsPath(), bigGroupBy()),
		"sort":     scanJob(2, measurementsPath(), bigSortOps()...),
		"join":     bigJoinJob(2),
	}
	for name, job := range jobs {
		acct := frame.NewAccountant(0)
		res, err := RunStaged(job, &Env{Source: src, Accountant: acct, Profile: true,
			OpMemoryBudget: spillBudget, SpillDir: t.TempDir()})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cur := acct.Current(); cur != 0 {
			t.Errorf("%s: accountant balance = %d, want 0", name, cur)
		}
		var spilled int64
		for _, sp := range res.Profile.Spans {
			spilled += sp.SpilledBytes
		}
		if spilled <= 0 {
			t.Errorf("%s: no profile span reports spilled bytes", name)
		}
		if spilled != res.Stats.SpilledBytes {
			t.Errorf("%s: span spill sum %d != stats %d", name, spilled, res.Stats.SpilledBytes)
		}
	}
}
