package algebricks

// Column pruning: Algebricks inserts PROJECT operators so that only the
// variables still needed above each operator are carried in its output
// tuples. Without this, an operator chain accumulates every upstream field
// — in the unoptimized plans that means the whole materialized collection
// is copied into every downstream tuple. Pruning runs automatically at the
// start of physical compilation (it is part of the substrate, not of the
// paper's JSONiq rule categories, which are about *what* is materialized,
// not about dead columns).

type varSet map[Var]bool

func (s varSet) clone() varSet {
	out := make(varSet, len(s))
	for v := range s {
		out[v] = true
	}
	return out
}

// addExprs adds every variable op's expressions read.
func (s varSet) addExprs(op Op) {
	for _, e := range ExprSlots(op) {
		for _, v := range (*e).FreeVars(nil) {
			s[v] = true
		}
	}
}

// PruneColumns inserts PROJECT operators below each operator so that dead
// columns are dropped as early as possible. It mutates the plan.
func PruneColumns(p *Plan) {
	if dr, ok := p.Root.(*DistributeResult); ok {
		req := varSet{}
		for _, v := range dr.Vs {
			req[v] = true
		}
		pruneOp(dr.In, req, nil)
	}
}

// pruneOp prunes the subtree rooted at op in place, given the set of
// variables its consumers require. outer is the schema a NestedTupleSource
// exposes. One rule covers every operator: its inputs carry what its
// consumers need, minus the variable it defines, plus what its expressions
// read. AGGREGATE and GROUP-BY emit fresh tuples, so their inputs carry
// only what they read.
func pruneOp(op Op, required varSet, outer []Var) {
	need := required.clone()
	switch o := op.(type) {
	case *Aggregate, *GroupBy:
		need = varSet{}
	case *Assign:
		delete(need, o.V)
	case *Unnest:
		delete(need, o.V)
	case *Subplan:
		// The nested plan's expressions may reference outer variables
		// (its own variables never occur in the outer schema).
		Walk(o.Nested, need.addExprs)
		// The nested root is an AGGREGATE, which requires nothing above.
		pruneOp(o.Nested, nil, Schema(o.In, outer))
	}
	need.addExprs(op)
	for _, in := range op.InputSlots() {
		pruneOp(*in, need, outer)
		*in = projectTo(*in, need, outer)
	}
}

// projectTo wraps child in a PROJECT keeping only the required variables,
// when that actually drops columns.
func projectTo(child Op, required varSet, outer []Var) Op {
	schema := Schema(child, outer)
	keep := make([]Var, 0, len(schema))
	for _, v := range schema {
		if required[v] {
			keep = append(keep, v)
		}
	}
	if len(keep) == len(schema) {
		return child
	}
	if p, ok := child.(*Project); ok {
		p.Vs = keep
		return p
	}
	return &Project{Vs: keep, In: child}
}
