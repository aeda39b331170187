package algebricks

import (
	"fmt"

	"vxq/internal/hyracks"
	"vxq/internal/item"
	"vxq/internal/runtime"
)

// CompileOptions controls physical plan generation.
type CompileOptions struct {
	// Partitions is the number of partitions for partitioned-parallel
	// fragments (those rooted at a DATASCAN). Non-partitioned plans (the
	// unoptimized collection() evaluation) always run on one partition,
	// which is exactly the paper's observation that DATASCAN is what
	// unlocks partitioned parallelism.
	Partitions int
	// TwoStepAggregation enables Algebricks' local/global aggregation
	// scheme (§4.3) for group-bys and aggregates over partitioned input.
	TwoStepAggregation bool
	// ScanFormat selects how DATASCAN decodes collection files (raw JSON
	// by default; binary ADM for the AsterixDB-load simulator).
	ScanFormat hyracks.ScanFormat
}

// Compile lowers an optimized logical plan to a Hyracks job.
func Compile(p *Plan, opts CompileOptions) (*hyracks.Job, error) {
	if opts.Partitions <= 0 {
		opts.Partitions = 1
	}
	PruneColumns(p)
	c := &compiler{opts: opts, job: &hyracks.Job{}}
	dr, ok := p.Root.(*DistributeResult)
	if !ok {
		return nil, fmt.Errorf("algebricks: plan root must be DISTRIBUTE-RESULT, got %T", p.Root)
	}
	s, err := c.compile(dr.In)
	if err != nil {
		return nil, err
	}
	cols := make([]int, len(dr.Vs))
	for i, v := range dr.Vs {
		col, err := columnOf(s.schema, v)
		if err != nil {
			return nil, err
		}
		cols[i] = col
	}
	s.ops = append(s.ops, &hyracks.ProjectSpec{Cols: cols})
	c.job.Fragments = append(c.job.Fragments, &hyracks.Fragment{
		ID: c.nextFragID(), Source: s.src, Ops: fuseProjects(s.ops),
		Partitions: s.partitions, SinkExchange: -1,
	})
	if err := c.job.Validate(); err != nil {
		return nil, err
	}
	return c.job, nil
}

type compiler struct {
	opts    CompileOptions
	job     *hyracks.Job
	fragSeq int
	exchSeq int
}

func (c *compiler) nextFragID() int {
	id := c.fragSeq
	c.fragSeq++
	return id
}

// stream is a fragment under construction.
type stream struct {
	src        hyracks.SourceSpec
	ops        []hyracks.OpSpec
	partitions int
	schema     []Var
}

// closeToExchange finalizes the stream's fragment, sinking into a new
// exchange, and returns the exchange id.
func (c *compiler) closeToExchange(s *stream, kind hyracks.ExchangeKind,
	keys []runtime.Evaluator, consumers int) int {
	id := c.exchSeq
	c.exchSeq++
	c.job.Exchanges = append(c.job.Exchanges, &hyracks.Exchange{
		ID: id, Kind: kind, Keys: keys, ConsumerPartitions: consumers,
	})
	c.job.Fragments = append(c.job.Fragments, &hyracks.Fragment{
		ID: c.nextFragID(), Source: s.src, Ops: fuseProjects(s.ops),
		Partitions: s.partitions, SinkExchange: id,
	})
	return id
}

// fuseProjects merges each ProjectSpec into the preceding ASSIGN / SELECT
// operator's fused output projection, so dead fields are dropped at emit
// time rather than copied and re-projected. UNNEST is deliberately *not*
// fused: like Hyracks, it writes complete output tuples into frames, so a
// plan that unnests a large materialized sequence pays for copying it —
// the very cost the paper's pipelining rules eliminate (§4.2).
func fuseProjects(ops []hyracks.OpSpec) []hyracks.OpSpec {
	out := make([]hyracks.OpSpec, 0, len(ops))
	for _, op := range ops {
		pr, ok := op.(*hyracks.ProjectSpec)
		if !ok || len(out) == 0 {
			out = append(out, op)
			continue
		}
		switch prev := out[len(out)-1].(type) {
		case *hyracks.AssignSpec:
			if prev.OutCols == nil {
				prev.OutCols = pr.Cols
				continue
			}
		case *hyracks.SelectSpec:
			if prev.OutCols == nil {
				prev.OutCols = pr.Cols
				continue
			}
		}
		out = append(out, op)
	}
	return out
}

func columnOf(schema []Var, v Var) (int, error) {
	for i, sv := range schema {
		if sv == v {
			return i, nil
		}
	}
	return 0, fmt.Errorf("algebricks: variable %v not in schema %v", v, schema)
}

// exprEval compiles a logical expression to a runtime evaluator over the
// given schema.
func exprEval(e Expr, schema []Var) (runtime.Evaluator, error) {
	switch x := e.(type) {
	case *VarExpr:
		col, err := columnOf(schema, x.V)
		if err != nil {
			return nil, err
		}
		return runtime.ColumnEval{Col: col}, nil
	case *ConstExpr:
		return runtime.ConstEval{Seq: x.Seq}, nil
	case *CallExpr:
		if col, key, ok := fieldAccess(x, schema); ok {
			return runtime.NewFieldEval(col, key), nil
		}
		fn, err := runtime.LookupFunction(x.Fn)
		if err != nil {
			return nil, err
		}
		args := make([]runtime.Evaluator, len(x.Args))
		for i, a := range x.Args {
			ev, err := exprEval(a, schema)
			if err != nil {
				return nil, err
			}
			args[i] = ev
		}
		return runtime.CallEval{Fn: fn, Args: args}, nil
	default:
		return nil, fmt.Errorf("algebricks: unknown expression %T", e)
	}
}

// fieldAccess recognizes value($v, "key") over a schema column with a
// constant string key, which lowers to runtime.FieldEval.
func fieldAccess(e *CallExpr, schema []Var) (int, string, bool) {
	if e.Fn != "value" || len(e.Args) != 2 {
		return 0, "", false
	}
	v, ok := e.Args[0].(*VarExpr)
	if !ok {
		return 0, "", false
	}
	c, ok := e.Args[1].(*ConstExpr)
	if !ok || len(c.Seq) != 1 {
		return 0, "", false
	}
	key, ok := c.Seq[0].(item.String)
	if !ok {
		return 0, "", false
	}
	col, err := columnOf(schema, v.V)
	if err != nil {
		return 0, "", false
	}
	return col, string(key), true
}

// Aggregate function lowering tables: logical name to physical aggregate
// for single-step, local and global execution.
var (
	aggSingle = map[string]string{
		"sequence": "agg-sequence", "count": "agg-count",
		"sum": "agg-sum", "avg": "agg-avg",
		"min": "agg-min", "max": "agg-max",
	}
	aggLocal = map[string]string{
		"count": "agg-count", "sum": "agg-sum", "avg": "agg-avg-local",
		"min": "agg-min", "max": "agg-max",
	}
	aggGlobal = map[string]string{
		"count": "agg-sum", "sum": "agg-sum", "avg": "agg-avg-global",
		"min": "agg-min", "max": "agg-max",
	}
)

func splittable(aggs []AggExpr) bool {
	for _, a := range aggs {
		if _, ok := aggLocal[a.Fn]; !ok {
			return false
		}
	}
	return true
}

func (c *compiler) aggDefs(aggs []AggExpr, schema []Var, table map[string]string) ([]hyracks.AggDef, error) {
	defs := make([]hyracks.AggDef, len(aggs))
	for i, a := range aggs {
		phys, ok := table[a.Fn]
		if !ok {
			return nil, fmt.Errorf("algebricks: no physical aggregate for %q", a.Fn)
		}
		fn, err := runtime.LookupAgg(phys)
		if err != nil {
			return nil, err
		}
		arg, err := exprEval(a.Arg, schema)
		if err != nil {
			return nil, err
		}
		defs[i] = hyracks.AggDef{Fn: fn, Arg: arg}
	}
	return defs, nil
}

func (c *compiler) compile(op Op) (*stream, error) {
	switch o := op.(type) {
	case *EmptyTupleSource:
		return &stream{src: hyracks.ETSSource{}, partitions: 1}, nil

	case *DataScan:
		if _, ok := o.In.(*EmptyTupleSource); !ok {
			return nil, fmt.Errorf("algebricks: DATASCAN input must be EMPTY-TUPLE-SOURCE, got %T", o.In)
		}
		return &stream{
			src:        hyracks.ScanSource{Collection: o.Collection, Project: o.Project, Format: c.opts.ScanFormat, Filter: o.Filter},
			partitions: c.opts.Partitions,
			schema:     []Var{o.V},
		}, nil

	case *Assign:
		s, err := c.compile(o.In)
		if err != nil {
			return nil, err
		}
		ev, err := exprEval(o.E, s.schema)
		if err != nil {
			return nil, err
		}
		s.ops = append(s.ops, &hyracks.AssignSpec{Evals: []runtime.Evaluator{ev}, Desc: o.Label()})
		s.schema = append(s.schema, o.V)
		return s, nil

	case *Select:
		s, err := c.compile(o.In)
		if err != nil {
			return nil, err
		}
		ev, err := exprEval(o.Cond, s.schema)
		if err != nil {
			return nil, err
		}
		s.ops = append(s.ops, &hyracks.SelectSpec{Cond: ev, Desc: o.Cond.String()})
		return s, nil

	case *Project:
		s, err := c.compile(o.In)
		if err != nil {
			return nil, err
		}
		cols := make([]int, len(o.Vs))
		for i, v := range o.Vs {
			col, err := columnOf(s.schema, v)
			if err != nil {
				return nil, err
			}
			cols[i] = col
		}
		s.ops = append(s.ops, &hyracks.ProjectSpec{Cols: cols})
		s.schema = append([]Var(nil), o.Vs...)
		return s, nil

	case *Unnest:
		s, err := c.compile(o.In)
		if err != nil {
			return nil, err
		}
		ev, err := exprEval(o.E, s.schema)
		if err != nil {
			return nil, err
		}
		s.ops = append(s.ops, &hyracks.UnnestSpec{Expr: ev, Desc: o.Label()})
		s.schema = append(s.schema, o.V)
		return s, nil

	case *Subplan:
		s, err := c.compile(o.In)
		if err != nil {
			return nil, err
		}
		nestedOps, nestedVars, err := c.compileNested(o.Nested, s.schema)
		if err != nil {
			return nil, err
		}
		s.ops = append(s.ops, &hyracks.SubplanSpec{Nested: nestedOps, Desc: "nested plan"})
		s.schema = append(s.schema, nestedVars...)
		return s, nil

	case *Aggregate:
		s, err := c.compile(o.In)
		if err != nil {
			return nil, err
		}
		outVars := make([]Var, len(o.Aggs))
		for i, a := range o.Aggs {
			outVars[i] = a.V
		}
		if s.partitions == 1 {
			defs, err := c.aggDefs(o.Aggs, s.schema, aggSingle)
			if err != nil {
				return nil, err
			}
			s.ops = append(s.ops, &hyracks.AggregateSpec{Aggs: defs, Desc: aggList(o.Aggs)})
			s.schema = outVars
			return s, nil
		}
		if c.opts.TwoStepAggregation && splittable(o.Aggs) {
			local, err := c.aggDefs(o.Aggs, s.schema, aggLocal)
			if err != nil {
				return nil, err
			}
			s.ops = append(s.ops, &hyracks.AggregateSpec{Aggs: local, Desc: "local " + aggList(o.Aggs)})
			exch := c.closeToExchange(s, hyracks.ExchangeMerge, nil, 1)
			gs := &stream{src: hyracks.ExchangeSource{Exchange: exch}, partitions: 1, schema: outVars}
			global := make([]hyracks.AggDef, len(o.Aggs))
			for i, a := range o.Aggs {
				fn, err := runtime.LookupAgg(aggGlobal[a.Fn])
				if err != nil {
					return nil, err
				}
				global[i] = hyracks.AggDef{Fn: fn, Arg: runtime.ColumnEval{Col: i}}
			}
			gs.ops = append(gs.ops, &hyracks.AggregateSpec{Aggs: global, Desc: "global " + aggList(o.Aggs)})
			gs.schema = outVars
			return gs, nil
		}
		// Not splittable (or two-step disabled): merge everything to one
		// partition, then aggregate in a single step.
		exch := c.closeToExchange(s, hyracks.ExchangeMerge, nil, 1)
		gs := &stream{src: hyracks.ExchangeSource{Exchange: exch}, partitions: 1, schema: s.schema}
		defs, err := c.aggDefs(o.Aggs, gs.schema, aggSingle)
		if err != nil {
			return nil, err
		}
		gs.ops = append(gs.ops, &hyracks.AggregateSpec{Aggs: defs, Desc: aggList(o.Aggs)})
		gs.schema = outVars
		return gs, nil

	case *GroupBy:
		s, err := c.compile(o.In)
		if err != nil {
			return nil, err
		}
		keyEvals := make([]runtime.Evaluator, len(o.Keys))
		for i, k := range o.Keys {
			ev, err := exprEval(k.E, s.schema)
			if err != nil {
				return nil, err
			}
			keyEvals[i] = ev
		}
		outVars := make([]Var, 0, len(o.Keys)+len(o.Aggs))
		for _, k := range o.Keys {
			outVars = append(outVars, k.V)
		}
		for _, a := range o.Aggs {
			outVars = append(outVars, a.V)
		}
		if s.partitions == 1 {
			defs, err := c.aggDefs(o.Aggs, s.schema, aggSingle)
			if err != nil {
				return nil, err
			}
			s.ops = append(s.ops, &hyracks.GroupBySpec{Keys: keyEvals, Aggs: defs, Desc: o.Label()})
			s.schema = outVars
			return s, nil
		}
		if c.opts.TwoStepAggregation && splittable(o.Aggs) {
			local, err := c.aggDefs(o.Aggs, s.schema, aggLocal)
			if err != nil {
				return nil, err
			}
			s.ops = append(s.ops, &hyracks.GroupBySpec{Keys: keyEvals, Aggs: local, Desc: "local"})
			// After the local group-by the key occupies columns [0,k).
			exchKeys := make([]runtime.Evaluator, len(o.Keys))
			for i := range o.Keys {
				exchKeys[i] = runtime.ColumnEval{Col: i}
			}
			parts := s.partitions
			exch := c.closeToExchange(s, hyracks.ExchangeHash, exchKeys, parts)
			gs := &stream{src: hyracks.ExchangeSource{Exchange: exch}, partitions: parts}
			globalKeys := make([]runtime.Evaluator, len(o.Keys))
			for i := range o.Keys {
				globalKeys[i] = runtime.ColumnEval{Col: i}
			}
			global := make([]hyracks.AggDef, len(o.Aggs))
			for i, a := range o.Aggs {
				fn, err := runtime.LookupAgg(aggGlobal[a.Fn])
				if err != nil {
					return nil, err
				}
				global[i] = hyracks.AggDef{Fn: fn, Arg: runtime.ColumnEval{Col: len(o.Keys) + i}}
			}
			gs.ops = append(gs.ops, &hyracks.GroupBySpec{Keys: globalKeys, Aggs: global, Desc: "global"})
			gs.schema = outVars
			return gs, nil
		}
		// Single-step over partitioned input: repartition raw tuples by the
		// key expressions, then group in one pass.
		parts := s.partitions
		inputSchema := s.schema
		exch := c.closeToExchange(s, hyracks.ExchangeHash, keyEvals, parts)
		gs := &stream{src: hyracks.ExchangeSource{Exchange: exch}, partitions: parts, schema: inputSchema}
		keyEvals2 := make([]runtime.Evaluator, len(o.Keys))
		for i, k := range o.Keys {
			ev, err := exprEval(k.E, gs.schema)
			if err != nil {
				return nil, err
			}
			keyEvals2[i] = ev
		}
		defs, err := c.aggDefs(o.Aggs, gs.schema, aggSingle)
		if err != nil {
			return nil, err
		}
		gs.ops = append(gs.ops, &hyracks.GroupBySpec{Keys: keyEvals2, Aggs: defs, Desc: o.Label()})
		gs.schema = outVars
		return gs, nil

	case *Sort:
		s, err := c.compile(o.In)
		if err != nil {
			return nil, err
		}
		// A global order needs all tuples in one place: merge partitioned
		// streams to a single partition before sorting.
		if s.partitions > 1 {
			exch := c.closeToExchange(s, hyracks.ExchangeMerge, nil, 1)
			s = &stream{src: hyracks.ExchangeSource{Exchange: exch}, partitions: 1, schema: s.schema}
		}
		defs := make([]hyracks.SortDef, len(o.Keys))
		for i, k := range o.Keys {
			ev, err := exprEval(k.E, s.schema)
			if err != nil {
				return nil, err
			}
			defs[i] = hyracks.SortDef{Key: ev, Desc: k.Desc}
		}
		s.ops = append(s.ops, &hyracks.SortSpec{Keys: defs, Desc: o.Label()})
		return s, nil

	case *Join:
		return c.compileJoin(o)

	case *DistributeResult:
		return nil, fmt.Errorf("algebricks: nested DISTRIBUTE-RESULT")

	case *NestedTupleSource:
		return nil, fmt.Errorf("algebricks: NESTED-TUPLE-SOURCE outside a nested plan")

	default:
		return nil, fmt.Errorf("algebricks: cannot compile %T", op)
	}
}

func (c *compiler) compileJoin(o *Join) (*stream, error) {
	sl, err := c.compile(o.Left)
	if err != nil {
		return nil, err
	}
	sr, err := c.compile(o.Right)
	if err != nil {
		return nil, err
	}
	parts := max(sl.partitions, sr.partitions)
	if len(o.LeftKeys) == 0 {
		// Cross product (no equi keys extracted): all rows meet in a single
		// bucket, so one partition does the work.
		parts = 1
	}
	buildKeys := make([]runtime.Evaluator, len(o.LeftKeys))
	exchLeftKeys := make([]runtime.Evaluator, len(o.LeftKeys))
	for i, e := range o.LeftKeys {
		ev, err := exprEval(e, sl.schema)
		if err != nil {
			return nil, err
		}
		buildKeys[i] = ev
		exchLeftKeys[i], _ = exprEval(e, sl.schema)
	}
	probeKeys := make([]runtime.Evaluator, len(o.RightKeys))
	exchRightKeys := make([]runtime.Evaluator, len(o.RightKeys))
	for i, e := range o.RightKeys {
		ev, err := exprEval(e, sr.schema)
		if err != nil {
			return nil, err
		}
		probeKeys[i] = ev
		exchRightKeys[i], _ = exprEval(e, sr.schema)
	}
	combined := append(append([]Var(nil), sl.schema...), sr.schema...)
	bexch := c.closeToExchange(sl, hyracks.ExchangeHash, exchLeftKeys, parts)
	pexch := c.closeToExchange(sr, hyracks.ExchangeHash, exchRightKeys, parts)
	s := &stream{
		src: hyracks.JoinSource{Build: bexch, Probe: pexch, Spec: &hyracks.JoinSpec{
			BuildKeys: buildKeys, ProbeKeys: probeKeys, Desc: o.Label(),
		}},
		partitions: parts,
		schema:     combined,
	}
	if !isTrueConst(o.Cond) {
		ev, err := exprEval(o.Cond, s.schema)
		if err != nil {
			return nil, err
		}
		s.ops = append(s.ops, &hyracks.SelectSpec{Cond: ev, Desc: "residual " + o.Cond.String()})
	}
	return s, nil
}

func isTrueConst(e Expr) bool {
	c, ok := e.(*ConstExpr)
	if !ok || len(c.Seq) != 1 {
		return false
	}
	b, ok := c.Seq[0].(item.Bool)
	return ok && bool(b)
}

// compileNested lowers a nested (subplan) plan rooted at an Aggregate with a
// NestedTupleSource leaf into a physical op chain. The chain sees the outer
// tuple as its single input tuple.
func (c *compiler) compileNested(root Op, outerSchema []Var) ([]hyracks.OpSpec, []Var, error) {
	agg, ok := root.(*Aggregate)
	if !ok {
		return nil, nil, fmt.Errorf("algebricks: nested plan root must be AGGREGATE, got %T", root)
	}
	var build func(op Op) ([]hyracks.OpSpec, []Var, error)
	build = func(op Op) ([]hyracks.OpSpec, []Var, error) {
		switch o := op.(type) {
		case *NestedTupleSource:
			return nil, append([]Var(nil), outerSchema...), nil
		case *Assign:
			ops, schema, err := build(o.In)
			if err != nil {
				return nil, nil, err
			}
			ev, err := exprEval(o.E, schema)
			if err != nil {
				return nil, nil, err
			}
			return append(ops, &hyracks.AssignSpec{Evals: []runtime.Evaluator{ev}, Desc: o.Label()}),
				append(schema, o.V), nil
		case *Select:
			ops, schema, err := build(o.In)
			if err != nil {
				return nil, nil, err
			}
			ev, err := exprEval(o.Cond, schema)
			if err != nil {
				return nil, nil, err
			}
			return append(ops, &hyracks.SelectSpec{Cond: ev, Desc: o.Cond.String()}), schema, nil
		case *Project:
			ops, schema, err := build(o.In)
			if err != nil {
				return nil, nil, err
			}
			cols := make([]int, len(o.Vs))
			for i, v := range o.Vs {
				col, err := columnOf(schema, v)
				if err != nil {
					return nil, nil, err
				}
				cols[i] = col
			}
			return append(ops, &hyracks.ProjectSpec{Cols: cols}), append([]Var(nil), o.Vs...), nil
		case *Unnest:
			ops, schema, err := build(o.In)
			if err != nil {
				return nil, nil, err
			}
			ev, err := exprEval(o.E, schema)
			if err != nil {
				return nil, nil, err
			}
			return append(ops, &hyracks.UnnestSpec{Expr: ev, Desc: o.Label()}),
				append(schema, o.V), nil
		default:
			return nil, nil, fmt.Errorf("algebricks: unsupported nested operator %T", op)
		}
	}
	ops, schema, err := build(agg.In)
	if err != nil {
		return nil, nil, err
	}
	defs, err := c.aggDefs(agg.Aggs, schema, aggSingle)
	if err != nil {
		return nil, nil, err
	}
	ops = append(ops, &hyracks.AggregateSpec{Aggs: defs, Desc: aggList(agg.Aggs)})
	ops = fuseProjects(ops)
	outVars := make([]Var, len(agg.Aggs))
	for i, a := range agg.Aggs {
		outVars[i] = a.V
	}
	return ops, outVars, nil
}
