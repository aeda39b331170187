package bench

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"vxq/internal/core"
	"vxq/internal/frame"
	"vxq/internal/hyracks"
	"vxq/internal/item"
	"vxq/internal/runtime"
)

// The spill benchmark measures the out-of-core operators: each blocking
// query shape (group-by, self-join, order-by) runs once fully in memory and
// once under a per-operator budget several times smaller than the input, and
// the harness enforces the acceptance gates — identical results, actual
// spilling, an accountant that balances to zero, a high-water no worse than
// the in-memory run, and an empty spill directory afterwards.

// SpillBenchBudget is the per-operator memory budget of the budgeted runs.
const SpillBenchBudget int64 = 16 << 10

// QuerySortAll orders every measurement — the external-merge-sort shape (the
// paper's queries have no order-by, so the spill benchmark supplies one).
const QuerySortAll = `
for $r in collection("/sensors")("root")()("results")()
order by $r("station"), $r("value") descending
return $r("value")`

// SpillBenchRun is one measured execution.
type SpillBenchRun struct {
	Seconds         float64 `json:"seconds"`
	Rows            int64   `json:"rows"`
	PeakMemory      int64   `json:"peak_memory"`
	SpilledBytes    int64   `json:"spilled_bytes"`
	SpillPartitions int64   `json:"spill_partitions"`
	SpillWaves      int64   `json:"spill_waves"`
}

// SpillBenchResult pairs the in-memory and budgeted runs of one query.
type SpillBenchResult struct {
	Query       string        `json:"query"`
	BudgetBytes int64         `json:"budget_bytes"`
	InputBytes  int64         `json:"input_bytes"`
	OverBudget  float64       `json:"over_budget"` // input / budget
	InMemory    SpillBenchRun `json:"in_memory"`
	Spilled     SpillBenchRun `json:"spilled"`
	Slowdown    float64       `json:"slowdown"` // spilled / in-memory seconds
}

// RunSpillBench runs the three blocking shapes over the scaled default
// dataset and returns one result per query. Any violated gate is an error.
func RunSpillBench(s Settings) ([]SpillBenchResult, error) {
	cfg := defaultDataset(s)
	src, total, err := sensorSource(cfg)
	if err != nil {
		return nil, err
	}
	if total < 4*SpillBenchBudget {
		return nil, fmt.Errorf("spillbench: input %d bytes is under 4x the %d budget", total, SpillBenchBudget)
	}
	queries := []struct{ name, text string }{
		{"Q1-groupby", QueryQ1},
		{"Q2-join", QueryQ2},
		{"sort", QuerySortAll},
	}
	var results []SpillBenchResult
	for _, q := range queries {
		c, err := core.CompileQuery(q.text, core.Options{Rules: core.AllRules(), Partitions: 2})
		if err != nil {
			return nil, fmt.Errorf("spillbench %s: %w", q.name, err)
		}
		mem, memRows, err := spillBenchRun(q.name+"/memory", c.Job, src, 0, "")
		if err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp("", "vxq-spill-bench-")
		if err != nil {
			return nil, err
		}
		sp, spRows, err := spillBenchRun(q.name+"/spilled", c.Job, src, SpillBenchBudget, dir)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		ents, derr := os.ReadDir(dir)
		os.RemoveAll(dir)
		if derr != nil {
			return nil, derr
		}
		if len(ents) != 0 {
			return nil, fmt.Errorf("spillbench %s: %d spill files left behind", q.name, len(ents))
		}
		if err := sameSortedRows(q.name, memRows, spRows); err != nil {
			return nil, err
		}
		if sp.SpilledBytes <= 0 {
			return nil, fmt.Errorf("spillbench %s: budgeted run spilled 0 bytes (input %d, budget %d)",
				q.name, total, SpillBenchBudget)
		}
		if sp.PeakMemory > mem.PeakMemory {
			return nil, fmt.Errorf("spillbench %s: budgeted high-water %d exceeds in-memory %d",
				q.name, sp.PeakMemory, mem.PeakMemory)
		}
		results = append(results, SpillBenchResult{
			Query:       q.name,
			BudgetBytes: SpillBenchBudget,
			InputBytes:  total,
			OverBudget:  float64(total) / float64(SpillBenchBudget),
			InMemory:    mem,
			Spilled:     sp,
			Slowdown:    sp.Seconds / mem.Seconds,
		})
	}
	return results, nil
}

// spillBenchRun executes one staged run and checks the accountant balances.
func spillBenchRun(name string, job *hyracks.Job, src runtime.Source, budget int64, dir string) (SpillBenchRun, [][]item.Sequence, error) {
	acct := frame.NewAccountant(0)
	env := &hyracks.Env{Source: src, Accountant: acct,
		OpMemoryBudget: budget, SpillDir: dir}
	start := time.Now()
	res, err := hyracks.RunStaged(job, env)
	elapsed := time.Since(start)
	if err != nil {
		return SpillBenchRun{}, nil, fmt.Errorf("spillbench %s: %w", name, err)
	}
	if cur := acct.Current(); cur != 0 {
		return SpillBenchRun{}, nil, fmt.Errorf("spillbench %s: accountant balance %d after clean end, want 0", name, cur)
	}
	res.SortRows()
	return SpillBenchRun{
		Seconds:         elapsed.Seconds(),
		Rows:            int64(len(res.Rows)),
		PeakMemory:      res.PeakMemory,
		SpilledBytes:    res.Stats.SpilledBytes,
		SpillPartitions: res.Stats.SpillPartitions,
		SpillWaves:      res.Stats.SpillWaves,
	}, res.Rows, nil
}

// sameSortedRows requires two canonically sorted row sets to be
// byte-identical under the canonical item encoding.
func sameSortedRows(name string, a, b [][]item.Sequence) error {
	if len(a) != len(b) {
		return fmt.Errorf("spillbench %s: %d in-memory rows vs %d spilled", name, len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return fmt.Errorf("spillbench %s: row %d arity differs", name, i)
		}
		for j := range a[i] {
			if !bytes.Equal(item.EncodeSeq(nil, a[i][j]), item.EncodeSeq(nil, b[i][j])) {
				return fmt.Errorf("spillbench %s: row %d field %d not byte-identical: %s vs %s",
					name, i, j, item.JSONSeq(a[i][j]), item.JSONSeq(b[i][j]))
			}
		}
	}
	return nil
}
