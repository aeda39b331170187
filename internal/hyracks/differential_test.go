package hyracks

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"vxq/internal/frame"
	"vxq/internal/item"
	"vxq/internal/runtime"
)

// runModes runs the job once in eager reference mode and once in the default
// lazy encoded mode (both staged, same partitioning) and requires the sorted
// results to be byte-identical under the canonical encoding.
func runModes(t *testing.T, name string, job *Job) {
	t.Helper()
	eager, err := RunStaged(job, &Env{Source: testSource(), EagerReference: true})
	if err != nil {
		t.Fatalf("%s: eager: %v", name, err)
	}
	lazy, err := RunStaged(job, &Env{Source: testSource()})
	if err != nil {
		t.Fatalf("%s: lazy: %v", name, err)
	}
	eager.SortRows()
	lazy.SortRows()
	if len(eager.Rows) != len(lazy.Rows) {
		t.Fatalf("%s: eager %d rows, lazy %d rows", name, len(eager.Rows), len(lazy.Rows))
	}
	for i := range eager.Rows {
		if len(eager.Rows[i]) != len(lazy.Rows[i]) {
			t.Fatalf("%s: row %d arity: eager %d, lazy %d", name, i, len(eager.Rows[i]), len(lazy.Rows[i]))
		}
		for j := range eager.Rows[i] {
			eb := item.EncodeSeq(nil, eager.Rows[i][j])
			lb := item.EncodeSeq(nil, lazy.Rows[i][j])
			if !bytes.Equal(eb, lb) {
				t.Fatalf("%s: row %d field %d not byte-identical: eager %s, lazy %s",
					name, i, j, item.JSONSeq(eager.Rows[i][j]), item.JSONSeq(lazy.Rows[i][j]))
			}
		}
	}
	// The shuffle statistics must agree too: both modes move the same tuples.
	if eager.Stats.TuplesShuffled != lazy.Stats.TuplesShuffled ||
		eager.Stats.BytesShuffled != lazy.Stats.BytesShuffled {
		t.Errorf("%s: shuffle stats diverge: eager %d tuples/%d bytes, lazy %d tuples/%d bytes",
			name, eager.Stats.TuplesShuffled, eager.Stats.BytesShuffled,
			lazy.Stats.TuplesShuffled, lazy.Stats.BytesShuffled)
	}
}

// TestDifferentialLazyVsEagerFixedPlans covers the named plan shapes: every
// operator kind, exchanges of all three kinds, and the join.
func TestDifferentialLazyVsEagerFixedPlans(t *testing.T) {
	sortSpec := &SortSpec{Keys: []SortDef{{Key: col(0)}, {Key: col(1), Desc: true}}}
	fixed := map[string]*Job{
		"scan":        scanJob(2, measurementsPath()),
		"whole-docs":  scanJob(1, nil),
		"select-tmin": scanJob(2, measurementsPath(), &SelectSpec{Cond: call("eq", call("value", col(0), constStr("dataType")), constStr("TMIN"))}),
		"assign": scanJob(1, measurementsPath(), &AssignSpec{Evals: []runtime.Evaluator{
			call("value", col(0), constStr("station")),
			call("value", col(0), constStr("value")),
		}}),
		"unnest": scanJob(1, nil,
			&UnnestSpec{Expr: call("keys-or-members", call("value", col(0), constStr("root")))},
			&UnnestSpec{Expr: call("keys-or-members", call("value", col(1), constStr("results")))},
			&ProjectSpec{Cols: []int{2}}),
		"aggregate": scanJob(2, measurementsPath(),
			&AggregateSpec{Aggs: []AggDef{
				{Fn: runtime.MustAgg("agg-count"), Arg: col(0)},
				{Fn: runtime.MustAgg("agg-avg"), Arg: call("value", col(0), constStr("value"))},
			}}),
		"group-by": scanJob(1, measurementsPath(), &GroupBySpec{
			Keys: []runtime.Evaluator{call("value", col(0), constStr("date"))},
			Aggs: []AggDef{
				{Fn: runtime.MustAgg("agg-count"), Arg: call("value", col(0), constStr("station"))},
				{Fn: runtime.MustAgg("agg-min"), Arg: call("value", col(0), constStr("value"))},
			},
		}),
		"two-step-gby-1x1": twoStepGroupByJob(1, 1),
		"two-step-gby-3x2": twoStepGroupByJob(3, 2),
		"hash-join-1":      joinJob(1),
		"hash-join-3":      joinJob(3),
		"sort": scanJob(2, measurementsPath(), &AssignSpec{Evals: []runtime.Evaluator{
			call("value", col(0), constStr("station")),
			call("value", col(0), constStr("value")),
		}}, &ProjectSpec{Cols: []int{1, 2}}, sortSpec),
		"subplan": scanJob(1, nil, &SubplanSpec{Nested: []OpSpec{
			&UnnestSpec{Expr: call("keys-or-members", call("value", col(0), constStr("root")))},
			&AggregateSpec{Aggs: []AggDef{{Fn: runtime.MustAgg("agg-count"), Arg: col(1)}}},
		}}, &ProjectSpec{Cols: []int{1}}),
	}
	for name, job := range fixed {
		runModes(t, name, job)
	}
}

// TestDifferentialLazyVsEagerRandomPlans runs a deterministic corpus of
// randomly composed plans through both modes. Plans draw selects, assigns,
// group-bys, sorts and aggregates over the sensor fields with random
// partition counts, so lazy/eager equivalence is checked well beyond the
// hand-written shapes.
func TestDifferentialLazyVsEagerRandomPlans(t *testing.T) {
	r := rand.New(rand.NewSource(20180326)) // EDBT 2018 paper day, for luck
	for i := 0; i < 24; i++ {
		job := randomJob(r)
		runModes(t, fmt.Sprintf("random-%d", i), job)
	}
}

func randomJob(r *rand.Rand) *Job {
	fields := []string{"date", "dataType", "station"}
	vals := map[string][]string{
		"date":     {"2013-12-25T00:00", "2013-12-26T00:00", "2014-01-01T00:00"},
		"dataType": {"TMIN", "TMAX", "AWND"},
		"station":  {"S1", "S2", "S3", "S9"},
	}
	var ops []OpSpec
	if r.Intn(2) == 0 {
		f := fields[r.Intn(len(fields))]
		v := vals[f][r.Intn(len(vals[f]))]
		ops = append(ops, &SelectSpec{Cond: call("eq", call("value", col(0), constStr(f)), constStr(v))})
	}
	keyField := fields[r.Intn(len(fields))]
	ops = append(ops, &AssignSpec{Evals: []runtime.Evaluator{
		call("value", col(0), constStr(keyField)),
		call("value", col(0), constStr("value")),
	}})
	// Columns now: 0 = document, 1 = key field, 2 = value.
	switch r.Intn(4) {
	case 0:
		aggs := []AggDef{{Fn: runtime.MustAgg("agg-count"), Arg: col(2)}}
		if r.Intn(2) == 0 {
			aggs = append(aggs, AggDef{Fn: runtime.MustAgg("agg-sum"), Arg: col(2)})
		}
		ops = append(ops, &GroupBySpec{Keys: []runtime.Evaluator{col(1)}, Aggs: aggs})
	case 1:
		ops = append(ops,
			&ProjectSpec{Cols: []int{1, 2}},
			&SortSpec{Keys: []SortDef{{Key: col(0), Desc: r.Intn(2) == 0}, {Key: col(1)}}})
	case 2:
		ops = append(ops, &AggregateSpec{Aggs: []AggDef{
			{Fn: runtime.MustAgg("agg-count"), Arg: col(1)},
			{Fn: runtime.MustAgg("agg-max"), Arg: col(2)},
		}})
	case 3:
		ops = append(ops, &ProjectSpec{Cols: []int{1, 2}})
	}
	return scanJob(1+r.Intn(3), measurementsPath(), ops...)
}

// TestEncodedPathsUnderForcedHashCollisions forces every encoded key hash to
// a single value, so group-by tables, join tables and hash routing live
// entirely on their bucket chains and byte/structural key comparison. The
// results must not change.
func TestEncodedPathsUnderForcedHashCollisions(t *testing.T) {
	testHashEncodedField = func([]byte) (uint64, error) { return 42, nil }
	defer func() { testHashEncodedField = nil }()
	jobs := map[string]*Job{
		"group-by": scanJob(1, measurementsPath(), &GroupBySpec{
			Keys: []runtime.Evaluator{call("value", col(0), constStr("date"))},
			Aggs: []AggDef{{Fn: runtime.MustAgg("agg-count"), Arg: col(0)}},
		}),
		"two-step-gby": twoStepGroupByJob(2, 2),
		"hash-join":    joinJob(2),
	}
	for name, job := range jobs {
		res, err := RunStaged(job, &Env{Source: testSource()})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res.SortRows()
		switch name {
		case "group-by", "two-step-gby":
			if len(res.Rows) != 2 {
				t.Fatalf("%s: groups = %d, want 2 (collision chain broken?)", name, len(res.Rows))
			}
			for _, row := range res.Rows {
				c, _ := row[1].One()
				if float64(c.(item.Number)) != 3 {
					t.Errorf("%s: group %s count = %s, want 3", name,
						item.JSONSeq(row[0]), item.JSONSeq(row[1]))
				}
			}
		case "hash-join":
			if len(res.Rows) != 1 || !item.EqualSeq(res.Rows[0][0], item.Single(item.Number(9.5))) {
				t.Fatalf("%s: rows = %v", name, res.Rows)
			}
		}
	}
}

// TestExchangeForwardsWholeFrames checks the merge/1:1 fast path: frames
// cross those exchanges intact (no per-tuple re-emit) while the shuffle
// statistics still count the tuples and bytes that moved.
func TestExchangeForwardsWholeFrames(t *testing.T) {
	// fragment 0 (2 partitions) --1:1--> fragment 1 --merge--> fragment 2
	passthrough := func() []OpSpec { return nil }
	job := &Job{
		Fragments: []*Fragment{
			{ID: 0, Source: ScanSource{Collection: "/sensors", Project: measurementsPath()},
				Ops: passthrough(), Partitions: 2, SinkExchange: 0},
			{ID: 1, Source: ExchangeSource{Exchange: 0},
				Ops: passthrough(), Partitions: 2, SinkExchange: 1},
			{ID: 2, Source: ExchangeSource{Exchange: 1},
				Ops: passthrough(), Partitions: 1, SinkExchange: -1},
		},
		Exchanges: []*Exchange{
			{ID: 0, Kind: ExchangeOneToOne, ConsumerPartitions: 2},
			{ID: 1, Kind: ExchangeMerge, ConsumerPartitions: 1},
		},
	}
	for _, mode := range executors {
		acct := frame.NewAccountant(0)
		res, err := mode.run(job, &Env{Source: testSource(), Accountant: acct})
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		if len(res.Rows) != 6 {
			t.Fatalf("%s: rows = %d, want 6", mode.name, len(res.Rows))
		}
		// 6 tuples through the 1:1 exchange + 6 through the merge.
		if res.Stats.TuplesShuffled != 12 {
			t.Errorf("%s: TuplesShuffled = %d, want 12", mode.name, res.Stats.TuplesShuffled)
		}
		if res.Stats.BytesShuffled <= 0 {
			t.Errorf("%s: BytesShuffled = %d, want > 0", mode.name, res.Stats.BytesShuffled)
		}
		if cur := acct.Current(); cur != 0 {
			t.Errorf("%s: accountant balance = %d after forwarding, want 0", mode.name, cur)
		}
	}
}

// TestAccountantBalancesToZeroBothModes extends the accountant invariant to
// both decode modes over the blocking operators (group-by holds an arena and
// interned keys in lazy mode, decoded key sequences in eager mode), with and
// without profile collection — the profiling wrappers and counter snapshots
// must not perturb a single charge/release pair.
func TestAccountantBalancesToZeroBothModes(t *testing.T) {
	sortSpec := &SortSpec{Keys: []SortDef{{Key: col(1)}}}
	jobs := map[string]*Job{
		"two-step-gby": twoStepGroupByJob(2, 2),
		"hash-join":    joinJob(2),
		"sort": scanJob(2, measurementsPath(), &AssignSpec{Evals: []runtime.Evaluator{
			call("value", col(0), constStr("station")),
		}}, sortSpec),
	}
	for name, job := range jobs {
		for _, eager := range []bool{false, true} {
			for _, profile := range []bool{false, true} {
				acct := frame.NewAccountant(0)
				env := &Env{Source: testSource(), Accountant: acct, EagerReference: eager, Profile: profile}
				res, err := RunStaged(job, env)
				if err != nil {
					t.Fatalf("%s (eager=%v profile=%v): %v", name, eager, profile, err)
				}
				if cur := acct.Current(); cur != 0 {
					t.Errorf("%s (eager=%v profile=%v): accountant balance = %d after clean end, want 0",
						name, eager, profile, cur)
				}
				if acct.Peak() <= 0 {
					t.Errorf("%s (eager=%v profile=%v): peak = %d, want > 0", name, eager, profile, acct.Peak())
				}
				if profile {
					// The profile's held-memory high-water must be visible in
					// at least one keyed operator's span.
					var peak int64
					for _, sp := range res.Profile.Spans {
						if sp.MemPeak > peak {
							peak = sp.MemPeak
						}
					}
					if peak <= 0 {
						t.Errorf("%s (eager=%v): no span reports a memory high-water", name, eager)
					}
				}
			}
		}
	}
}
