package bench

import (
	goruntime "runtime"
	"testing"
	"time"

	"vxq/internal/jsonparse"
)

// The parse-kernel microbenchmarks: tokens flowing through the projector on
// the project-1-of-N-fields and skip-whole-record shapes, through the
// structural-index kernel and the token-level reference skip. Run with -benchmem: the bytes/s column is the headline, and
// the per-record allocation count is reported as a custom metric.

func benchParseShape(b *testing.B, shape, mode string) {
	b.Helper()
	data, records := ParseBenchStream(4 << 20)
	path, err := ParseBenchPath(shape)
	if err != nil {
		b.Fatal(err)
	}
	skip, err := ParseBenchMode(mode)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ScanParseBench(data, path, skip); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	goruntime.ReadMemStats(&m1)
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(int64(b.N)*int64(records)), "allocs/record")
}

// BenchmarkProjectOneField: project 1 small field from ~1 KiB records with
// the structural-index kernel — the acceptance-criteria shape.
func BenchmarkProjectOneField(b *testing.B) { benchParseShape(b, "project1", "index") }

// BenchmarkProjectOneFieldReference is the same shape through the
// token-level reference skip (the pre-kernel behaviour).
func BenchmarkProjectOneFieldReference(b *testing.B) { benchParseShape(b, "project1", "reference") }

// BenchmarkSkipWholeRecord: a projection that matches nothing, so every
// record is skipped whole — the pure skip throughput ceiling, through the
// structural-index kernel.
func BenchmarkSkipWholeRecord(b *testing.B) { benchParseShape(b, "skiprecord", "index") }

// BenchmarkSkipWholeRecordReference is the token-level counterpart.
func BenchmarkSkipWholeRecordReference(b *testing.B) { benchParseShape(b, "skiprecord", "reference") }

// BenchmarkBitmapBuilder runs phase 1 alone: IndexBlock over every 64-byte
// block of the workload with carried state, no consumer.
func BenchmarkBitmapBuilder(b *testing.B) {
	data, _ := ParseBenchStream(4 << 20)
	blocks := len(data) / 64
	data = data[:blocks*64]
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var st jsonparse.StructState
		for off := 0; off < len(data); off += 64 {
			m := jsonparse.IndexBlock(data[off:off+64], &st)
			sink ^= m.Structural
		}
	}
	b.StopTimer()
	if sink == 0xdeadbeef {
		b.Log(sink)
	}
}

// BenchmarkLexerTokens streams every token of the workload through Next —
// the tokenizer floor without any skip at all (full parse minus tree
// building).
func BenchmarkLexerTokens(b *testing.B) {
	data, _ := ParseBenchStream(4 << 20)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := jsonparse.NewLexer(data)
		for {
			if err := l.Next(); err != nil {
				b.Fatal(err)
			}
			if l.Kind == jsonparse.TokEOF {
				break
			}
		}
	}
}

// TestParseKernelBounds pins the structural-index kernel's committed claims
// in machine-independent form (ratios against in-process baselines, not
// absolute MB/s, so CI noise and slow runners cannot flip it):
//
//   - skiprecord: the index kernel beats the token-level reference by >= 2x;
//   - project1: the index kernel beats the reference by >= 1.5x;
//   - project1 allocations: <= 0.05 allocs/record (the interned-item scan);
//   - all modes emit identical item counts;
//   - the phase-1 bitmap builder allocates nothing.
func TestParseKernelBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping kernel bounds in -short")
	}
	const minDur = 300 * time.Millisecond
	data, records := ParseBenchStream(4 << 20)
	run := func(shape, mode string) ParseBenchResult {
		t.Helper()
		r, err := MeasureParseBench(shape, mode, data, records, minDur)
		if err != nil {
			t.Fatalf("%s/%s: %v", shape, mode, err)
		}
		t.Logf("%s/%s: %.0f MB/s, %.4f allocs/record, emitted %d",
			shape, mode, r.MBPerSec, r.AllocsPerRecord, r.Emitted)
		return r
	}
	for _, shape := range []string{"project1", "skiprecord"} {
		idx := run(shape, "index")
		ref := run(shape, "reference")
		if idx.Emitted != ref.Emitted {
			t.Errorf("%s: emitted diverges: index %d, reference %d",
				shape, idx.Emitted, ref.Emitted)
		}
		if speedup := ref.Seconds / idx.Seconds; speedup < 1.5 {
			t.Errorf("%s: index speedup over reference = %.2fx, want >= 1.5x (index %.4fs, reference %.4fs)",
				shape, speedup, idx.Seconds, ref.Seconds)
		}
		if shape == "skiprecord" {
			if speedup := ref.Seconds / idx.Seconds; speedup < 2 {
				t.Errorf("skiprecord: index speedup over reference = %.2fx, want >= 2x", speedup)
			}
		}
		if shape == "project1" && idx.AllocsPerRecord > 0.05 {
			t.Errorf("project1 index allocs/record = %.4f, want <= 0.05", idx.AllocsPerRecord)
		}
	}
	bb := MeasureBitmapBuilder(data, minDur)
	t.Logf("bitmap builder: %.2f GB/s, %.4f allocs/chunk", bb.GBPerSec, bb.AllocsPerChunk)
	if bb.AllocsPerChunk > 0.001 {
		t.Errorf("bitmap builder allocs/chunk = %.4f, want 0", bb.AllocsPerChunk)
	}
}
