package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"time"
)

// The answer oracle shares no code with the engine: it decodes the
// generated files with encoding/json into plain measurements and computes
// each query's expected result directly.

// measurement is one decoded measurement object. Strings are interned.
type measurement struct {
	date, dataType, station string
	value                   float64
}

type oracleKind int

const (
	specQ0 oracleKind = iota
	specQ0b
	specQ1
	specQ2
	specSortTMAX
	specWindow
	specYearGroupBy
	specThresholdCount
)

// oracleSpec names a query's semantics and its parameters.
type oracleSpec struct {
	kind     oracleKind
	lo, hi   string // date bounds, lo inclusive, hi exclusive
	minValue int    // value threshold (< 0: none)
}

// answer is an expected result in canonical form.
type answer struct {
	// items are canonical JSON texts (encoding/json re-marshalled), sorted
	// unless ties is set.
	items []string
	// ties, for ordered queries, holds the sizes of consecutive runs of
	// equal sort keys; items inside a run may come in any order.
	ties []int
	// approx compares a single number with a relative tolerance (avg).
	approx bool
}

// readMeasurements decodes every file with encoding/json.
func readMeasurements(files []string) ([]measurement, error) {
	intern := map[string]string{}
	in := func(s string) string {
		if v, ok := intern[s]; ok {
			return v
		}
		intern[s] = s
		return s
	}
	type doc struct {
		Root []struct {
			Results []struct {
				Date     string  `json:"date"`
				DataType string  `json:"dataType"`
				Station  string  `json:"station"`
				Value    float64 `json:"value"`
			} `json:"results"`
		} `json:"root"`
	}
	var out []measurement
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return nil, err
		}
		dec := json.NewDecoder(fh)
		for {
			var d doc
			if err := dec.Decode(&d); err != nil {
				if errors.Is(err, io.EOF) {
					break
				}
				fh.Close()
				return nil, fmt.Errorf("oracle: %s: %w", f, err)
			}
			for _, rec := range d.Root {
				for _, m := range rec.Results {
					out = append(out, measurement{in(m.Date), in(m.DataType), in(m.Station), m.Value})
				}
			}
		}
		fh.Close()
	}
	return out, nil
}

func canonical(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps, strings and numbers reach here
	}
	return string(b)
}

// canonicalText re-marshals a JSON text through encoding/json, so object
// keys are sorted and numbers print one way.
func canonicalText(s string) (string, error) {
	var v any
	if err := json.Unmarshal([]byte(s), &v); err != nil {
		return "", err
	}
	return canonical(v), nil
}

func (s oracleSpec) inWindow(date string) bool { return date >= s.lo && date < s.hi }

// expect computes the expected answer of a query over the measurements.
func expect(spec oracleSpec, ms []measurement) (answer, error) {
	var a answer
	switch spec.kind {
	case specQ0, specQ0b:
		for _, m := range ms {
			t, err := time.Parse("2006-01-02T15:04", m.date)
			if err != nil {
				return a, fmt.Errorf("oracle: date %q: %w", m.date, err)
			}
			if t.Year() < 2003 || t.Month() != 12 || t.Day() != 25 {
				continue
			}
			if spec.kind == specQ0b {
				a.items = append(a.items, canonical(m.date))
			} else {
				a.items = append(a.items, canonical(map[string]any{
					"date": m.date, "dataType": m.dataType, "station": m.station, "value": m.value}))
			}
		}
	case specQ1:
		counts := map[string]int{}
		for _, m := range ms {
			if m.dataType == "TMIN" {
				counts[m.date]++
			}
		}
		for _, n := range counts {
			a.items = append(a.items, canonical(n))
		}
	case specQ2:
		type side struct{ n, sum float64 }
		mins, maxs := map[[2]string]side{}, map[[2]string]side{}
		for _, m := range ms {
			k := [2]string{m.station, m.date}
			switch m.dataType {
			case "TMIN":
				s := mins[k]
				mins[k] = side{s.n + 1, s.sum + m.value}
			case "TMAX":
				s := maxs[k]
				maxs[k] = side{s.n + 1, s.sum + m.value}
			}
		}
		var total, pairs float64
		for k, lo := range mins {
			if hi, ok := maxs[k]; ok {
				// Every (TMIN, TMAX) pair contributes max - min.
				total += lo.n*hi.sum - hi.n*lo.sum
				pairs += lo.n * hi.n
			}
		}
		if pairs == 0 {
			return a, fmt.Errorf("oracle: Q2 join is empty")
		}
		a.items = []string{canonical(total / pairs / 10)}
		a.approx = true
	case specSortTMAX:
		var sel []measurement
		for _, m := range ms {
			if m.dataType == "TMAX" && (spec.minValue < 0 || m.value >= float64(spec.minValue)) {
				sel = append(sel, m)
			}
		}
		sort.Slice(sel, func(i, j int) bool {
			if sel[i].value != sel[j].value {
				return sel[i].value > sel[j].value
			}
			return sel[i].date < sel[j].date
		})
		a.ties = []int{}
		for i, m := range sel {
			if i == 0 || m.value != sel[i-1].value || m.date != sel[i-1].date {
				a.ties = append(a.ties, 0)
			}
			a.ties[len(a.ties)-1]++
			a.items = append(a.items, canonical(m.station))
		}
	case specWindow:
		for _, m := range ms {
			if spec.inWindow(m.date) && m.dataType == "TMAX" {
				a.items = append(a.items, canonical(m.value))
			}
		}
	case specYearGroupBy:
		counts := map[string]int{}
		for _, m := range ms {
			if spec.inWindow(m.date) && m.dataType == "TMIN" {
				counts[m.date]++
			}
		}
		for d, n := range counts {
			a.items = append(a.items, canonical(map[string]any{"date": d, "stations": n}))
		}
	case specThresholdCount:
		n := 0
		for _, m := range ms {
			if spec.inWindow(m.date) && m.value >= float64(spec.minValue) {
				n++
			}
		}
		a.items = []string{canonical(n)}
	default:
		return a, fmt.Errorf("oracle: unknown query kind %d", spec.kind)
	}
	a.sortRuns()
	return a, nil
}

// sortRuns puts items in canonical order: wholly sorted, or sorted within
// each run of ties.
func (a *answer) sortRuns() {
	if a.ties == nil {
		sort.Strings(a.items)
		return
	}
	at := 0
	for _, n := range a.ties {
		sort.Strings(a.items[at : at+n])
		at += n
	}
}

// matches compares canonical result texts against the expected answer.
func (a answer) matches(got []string) error {
	if len(got) != len(a.items) {
		return fmt.Errorf("got %d items, want %d", len(got), len(a.items))
	}
	if a.approx {
		g, err1 := strconv.ParseFloat(got[0], 64)
		w, err2 := strconv.ParseFloat(a.items[0], 64)
		if err1 != nil || err2 != nil || math.Abs(g-w) > 1e-9*math.Max(1, math.Abs(w)) {
			return fmt.Errorf("got %s, want %s", got[0], a.items[0])
		}
		return nil
	}
	g := answer{items: append([]string(nil), got...), ties: a.ties}
	g.sortRuns()
	for i := range g.items {
		if g.items[i] != a.items[i] {
			return fmt.Errorf("item %d: got %s, want %s", i, g.items[i], a.items[i])
		}
	}
	return nil
}
