package bench

import (
	"bytes"
	"fmt"
	goruntime "runtime"
	"time"

	"vxq/internal/item"
	"vxq/internal/jsonparse"
)

// The parse-kernel benchmarks measure the on-demand scan kernel (structural
// raw-skip, zero-alloc token views, lazy numbers) against the token-level
// reference skip on the two shapes the issue's acceptance criteria name:
//
//   - project1: project one small field out of ~1 KiB records, so nearly
//     every byte is skipped — the DATASCAN-with-projection hot path;
//   - skiprecord: a path that matches nothing, so the whole record is
//     skipped — the pure skip throughput ceiling.

// ParseBenchRecordTarget is the approximate record size of the parse-kernel
// workload (the issue's "~1 KiB records").
const ParseBenchRecordTarget = 1024

// parseBenchRecord renders one synthetic sensor-ish record of roughly 1 KiB:
// a handful of small leading fields, a long readings array, a padded note
// string with escapes, and a nested metadata object. The projected field
// ("dataType") sits among the leading fields; everything else is skip fodder.
func parseBenchRecord(i int) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"id":"rec-%08d","dataType":"TMIN","station":"GSW%06d","value":%d.%d`,
		i, 100000+i%900000, -40+i%80, i%10)
	b.WriteString(`,"readings":[`)
	for j := 0; j < 60; j++ {
		if j > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d.%02d", (i+j)%100, j)
	}
	b.WriteString(`],"meta":{"source":"noaa\/ghcnd","quality":"Q","flags":[null,true,false],"revision":3}`)
	fmt.Fprintf(&b, `,"note":"record %d \"quoted\" padding %s"}`, i,
		bytes.Repeat([]byte("abcdefgh"), 57))
	return b.Bytes()
}

// ParseBenchStream builds the newline-delimited workload: records ~1 KiB
// each, totalling roughly totalBytes.
func ParseBenchStream(totalBytes int) (data []byte, records int) {
	var b bytes.Buffer
	for i := 0; b.Len() < totalBytes; i++ {
		b.Write(parseBenchRecord(i))
		b.WriteByte('\n')
		records++
	}
	return b.Bytes(), records
}

// ParseBenchPath returns the projection path of a parse-kernel shape.
func ParseBenchPath(shape string) (jsonparse.Path, error) {
	switch shape {
	case "project1":
		return jsonparse.Path{jsonparse.KeyStep("dataType")}, nil
	case "skiprecord":
		return jsonparse.Path{jsonparse.KeyStep("nosuchfield")}, nil
	default:
		return nil, fmt.Errorf("unknown parse bench shape %q", shape)
	}
}

// ParseBenchMode resolves a benchmark mode name to the lexer's reference-skip
// switch: "index" is the SWAR structural-index kernel, "reference" the
// token-level oracle.
func ParseBenchMode(mode string) (reference bool, err error) {
	switch mode {
	case "index":
		return false, nil
	case "reference":
		return true, nil
	default:
		return false, fmt.Errorf("unknown parse bench mode %q", mode)
	}
}

// ScanParseBench runs one pass of the shape's projected scan over data, with
// the token-level reference skip when reference is set, returning the number
// of emitted items.
func ScanParseBench(data []byte, path jsonparse.Path, reference bool) (int, error) {
	l := jsonparse.NewLexer(data)
	l.SetReferenceSkip(reference)
	emitted := 0
	_, err := jsonparse.ScanValues(l, path, -1, func(item.Item) error {
		emitted++
		return nil
	})
	return emitted, err
}

// ParseBenchResult is one measured configuration of the parse-kernel
// benchmark, serialized into BENCH_parse.json.
type ParseBenchResult struct {
	Shape           string  `json:"shape"`
	Mode            string  `json:"mode"` // "index" or "reference"
	Records         int64   `json:"records"`
	Bytes           int64   `json:"bytes"`
	Seconds         float64 `json:"seconds"`
	MBPerSec        float64 `json:"mb_per_sec"`
	RecordsPerSec   float64 `json:"records_per_sec"`
	AllocsPerRecord float64 `json:"allocs_per_record"`
	Emitted         int64   `json:"emitted"`
}

// MeasureParseBench times repeated passes of one shape/mode over data until
// minDuration has elapsed (at least one pass), reporting the best-pass
// throughput and the exact allocations per record.
func MeasureParseBench(shape, mode string, data []byte, records int, minDuration time.Duration) (ParseBenchResult, error) {
	path, err := ParseBenchPath(shape)
	if err != nil {
		return ParseBenchResult{}, err
	}
	skip, err := ParseBenchMode(mode)
	if err != nil {
		return ParseBenchResult{}, err
	}
	// Warm-up pass (page in the buffer, build the intern table's steady state
	// equivalent — each pass uses a fresh lexer, like a fresh morsel).
	if _, err := ScanParseBench(data, path, skip); err != nil {
		return ParseBenchResult{}, err
	}
	var (
		passes   int64
		emitted  int64
		best     float64
		m0, m1   goruntime.MemStats
		deadline = time.Now().Add(minDuration)
	)
	goruntime.ReadMemStats(&m0)
	for {
		start := time.Now()
		e, err := ScanParseBench(data, path, skip)
		sec := time.Since(start).Seconds()
		if err != nil {
			return ParseBenchResult{}, err
		}
		passes++
		emitted += int64(e)
		if best == 0 || sec < best {
			best = sec
		}
		if !time.Now().Before(deadline) {
			break
		}
	}
	goruntime.ReadMemStats(&m1)
	totalRecords := passes * int64(records)
	return ParseBenchResult{
		Shape:           shape,
		Mode:            mode,
		Records:         int64(records),
		Bytes:           int64(len(data)),
		Seconds:         best,
		MBPerSec:        float64(len(data)) / (1 << 20) / best,
		RecordsPerSec:   float64(records) / best,
		AllocsPerRecord: float64(m1.Mallocs-m0.Mallocs) / float64(totalRecords),
		Emitted:         emitted / passes,
	}, nil
}

// BitmapBuilderResult is the standalone phase-1 measurement: IndexBlock run
// over every 64-byte block of the workload with carried state, no phase-2
// consumer at all — the raw ceiling of the structural-index pass.
type BitmapBuilderResult struct {
	Bytes          int64   `json:"bytes"`
	Seconds        float64 `json:"seconds"`
	MBPerSec       float64 `json:"mb_per_sec"`
	GBPerSec       float64 `json:"gb_per_sec"`
	AllocsPerChunk float64 `json:"allocs_per_chunk"` // per 4 KiB chunk of input
}

// MeasureBitmapBuilder times repeated full-buffer passes of the phase-1
// bitmap builder until minDuration has elapsed, reporting best-pass
// throughput and allocations per 4 KiB chunk (the streaming refill unit —
// the kernel itself must not allocate at all).
func MeasureBitmapBuilder(data []byte, minDuration time.Duration) BitmapBuilderResult {
	blocks := len(data) / 64
	data = data[:blocks*64]
	var sink uint64
	pass := func() {
		var st jsonparse.StructState
		for off := 0; off < len(data); off += 64 {
			m := jsonparse.IndexBlock(data[off:off+64], &st)
			sink ^= m.Structural ^ m.InString ^ m.Newline
		}
	}
	pass() // warm-up
	var (
		passes   int64
		best     float64
		m0, m1   goruntime.MemStats
		deadline = time.Now().Add(minDuration)
	)
	goruntime.ReadMemStats(&m0)
	for {
		start := time.Now()
		pass()
		sec := time.Since(start).Seconds()
		passes++
		if best == 0 || sec < best {
			best = sec
		}
		if !time.Now().Before(deadline) {
			break
		}
	}
	goruntime.ReadMemStats(&m1)
	if sink == 0xdeadbeef {
		fmt.Println(sink) // defeat dead-code elimination; never taken in practice
	}
	chunks := passes * int64(len(data)) / 4096
	res := BitmapBuilderResult{
		Bytes:   int64(len(data)),
		Seconds: best,
	}
	res.MBPerSec = float64(len(data)) / (1 << 20) / best
	res.GBPerSec = float64(len(data)) / (1 << 30) / best
	if chunks > 0 {
		res.AllocsPerChunk = float64(m1.Mallocs-m0.Mallocs) / float64(chunks)
	}
	return res
}
