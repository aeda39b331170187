package hyracks

import (
	"testing"

	"vxq/internal/gen"
	"vxq/internal/runtime"
)

// q1AllocsPerRecordBound is the pinned allocation budget of a Q1-shaped
// pipeline per scanned measurement: 7.1 measured (go1.24, linux/amd64) plus
// headroom. The scan transcodes records straight into tuple bytes and
// SELECT/GROUP-BY read single fields from those bytes, so what remains is
// the per-tuple result of the field reads and the comparison. Building an
// item tree per record and decoding whole objects to read one key cost
// about 32 allocations per record; a change that brings either back fails
// here.
const q1AllocsPerRecordBound = 9

// TestQ1AllocsPerRecordBound runs scan -> SELECT dataType eq "TMIN" ->
// GROUP-BY date with count(station) over a generated collection and pins
// the heap allocations per scanned measurement.
func TestQ1AllocsPerRecordBound(t *testing.T) {
	cfg := gen.Default()
	cfg.SplitRecords = true
	docs, _, err := cfg.InMemory()
	if err != nil {
		t.Fatal(err)
	}
	src := &runtime.MemSource{Collections: map[string]map[string][]byte{"/sensors": docs}}
	job := scanJob(1, measurementsPath(),
		&SelectSpec{Cond: call("eq", call("value", col(0), constStr("dataType")), constStr("TMIN"))},
		&GroupBySpec{
			Keys: []runtime.Evaluator{call("value", col(0), constStr("date"))},
			Aggs: []AggDef{{Fn: runtime.MustAgg("agg-count"), Arg: call("value", col(0), constStr("station"))}},
		})
	var runErr error
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := RunStaged(job, &Env{Source: src}); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	perRecord := allocs / float64(cfg.Measurements())
	t.Logf("%.0f allocs per run over %d measurements: %.2f per record (bound %.1f)", allocs, cfg.Measurements(), perRecord, float64(q1AllocsPerRecordBound))
	if perRecord > q1AllocsPerRecordBound {
		t.Fatalf("%.2f allocations per scanned record, bound %.1f", perRecord, float64(q1AllocsPerRecordBound))
	}
}
