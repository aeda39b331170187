package algebricks

import (
	"fmt"
	"strings"

	"vxq/internal/hyracks"
	"vxq/internal/jsonparse"
)

// Op is a logical operator. Operators form a tree via input slots; the
// rewriter mutates trees by replacing the contents of slots.
type Op interface {
	// Label renders the operator head for plan printing.
	Label() string
	// InputSlots returns pointers to the operator's input slots, leftmost
	// first, so rules can replace children in place.
	InputSlots() []*Op
}

// EmptyTupleSource is the leaf operator producing one empty tuple (§3.2).
type EmptyTupleSource struct{}

// Label implements Op.
func (*EmptyTupleSource) Label() string { return "EMPTY-TUPLE-SOURCE" }

// InputSlots implements Op.
func (*EmptyTupleSource) InputSlots() []*Op { return nil }

// NestedTupleSource is the leaf of a nested (subplan / group-by) plan; it
// stands for the outer tuple being processed.
type NestedTupleSource struct{}

// Label implements Op.
func (*NestedTupleSource) Label() string { return "NESTED-TUPLE-SOURCE" }

// InputSlots implements Op.
func (*NestedTupleSource) InputSlots() []*Op { return nil }

// DataScan is Algebricks' DATASCAN operator (§4.2): it iterates over the
// files of a collection, and — when Project is non-empty — applies the
// projection path while parsing, emitting one V-binding per matching item.
// DataScan is what enables partitioned-parallel execution.
type DataScan struct {
	Collection string
	Project    jsonparse.Path
	V          Var
	In         Op
	// Filter enables zone-map file pruning at run time (attached by the
	// index rule; may be nil).
	Filter *hyracks.ScanFilter
}

// Label implements Op.
func (o *DataScan) Label() string {
	suffix := ""
	if o.Filter != nil {
		suffix = " filter{" + o.Filter.String() + "}"
	}
	if len(o.Project) == 0 {
		return fmt.Sprintf("DATASCAN %v <- collection(%q)%s", o.V, o.Collection, suffix)
	}
	return fmt.Sprintf("DATASCAN %v <- collection(%q)%s%s", o.V, o.Collection, o.Project, suffix)
}

// InputSlots implements Op.
func (o *DataScan) InputSlots() []*Op { return []*Op{&o.In} }

// Assign evaluates a scalar expression and binds its result to V.
type Assign struct {
	V  Var
	E  Expr
	In Op
}

// Label implements Op.
func (o *Assign) Label() string { return fmt.Sprintf("ASSIGN %v := %s", o.V, o.E) }

// InputSlots implements Op.
func (o *Assign) InputSlots() []*Op { return []*Op{&o.In} }

// Select filters tuples by the effective boolean value of Cond.
type Select struct {
	Cond Expr
	In   Op
}

// Label implements Op.
func (o *Select) Label() string { return fmt.Sprintf("SELECT %s", o.Cond) }

// InputSlots implements Op.
func (o *Select) InputSlots() []*Op { return []*Op{&o.In} }

// Unnest evaluates an unnesting expression and emits one tuple per item,
// bound to V.
type Unnest struct {
	V  Var
	E  Expr
	In Op
}

// Label implements Op.
func (o *Unnest) Label() string { return fmt.Sprintf("UNNEST %v <- %s", o.V, o.E) }

// InputSlots implements Op.
func (o *Unnest) InputSlots() []*Op { return []*Op{&o.In} }

// AggExpr is one aggregate computation inside an Aggregate or GroupBy.
type AggExpr struct {
	V   Var
	Fn  string // logical aggregate name: "sequence", "count", "sum", "avg"
	Arg Expr
}

func (a AggExpr) String() string { return fmt.Sprintf("%v := %s(%s)", a.V, a.Fn, a.Arg) }

// Aggregate folds its whole input into one tuple (§3.2).
type Aggregate struct {
	Aggs []AggExpr
	In   Op
}

// Label implements Op.
func (o *Aggregate) Label() string { return "AGGREGATE " + aggList(o.Aggs) }

// InputSlots implements Op.
func (o *Aggregate) InputSlots() []*Op { return []*Op{&o.In} }

func aggList(aggs []AggExpr) string {
	parts := make([]string, len(aggs))
	for i, a := range aggs {
		parts[i] = a.String()
	}
	return strings.Join(parts, ", ")
}

// KeyExpr is one group-by key definition.
type KeyExpr struct {
	V Var
	E Expr
}

func (k KeyExpr) String() string { return fmt.Sprintf("%v := %s", k.V, k.E) }

// GroupBy groups its input by the key expressions and runs the aggregate
// expressions per group (its "inner focus" in the paper's wording).
type GroupBy struct {
	Keys []KeyExpr
	Aggs []AggExpr
	In   Op
}

// Label implements Op.
func (o *GroupBy) Label() string {
	keys := make([]string, len(o.Keys))
	for i, k := range o.Keys {
		keys[i] = k.String()
	}
	return fmt.Sprintf("GROUP-BY [%s] { AGGREGATE %s }", strings.Join(keys, ", "), aggList(o.Aggs))
}

// InputSlots implements Op.
func (o *GroupBy) InputSlots() []*Op { return []*Op{&o.In} }

// Subplan runs Nested (a plan rooted at an Aggregate, with a
// NestedTupleSource leaf) once per input tuple and appends the nested
// aggregate's bindings to the tuple.
type Subplan struct {
	Nested Op
	In     Op
}

// Label implements Op.
func (o *Subplan) Label() string { return "SUBPLAN" }

// InputSlots implements Op.
func (o *Subplan) InputSlots() []*Op { return []*Op{&o.In} }

// NestedSlot returns the slot of the nested plan root.
func (o *Subplan) NestedSlot() *Op { return &o.Nested }

// Join is a binary join. Before optimization Cond holds the whole predicate
// (True for a cross product); the join-extraction rule moves equality
// conjuncts into LeftKeys/RightKeys for hash execution, leaving any residual
// in Cond.
type Join struct {
	Cond      Expr
	LeftKeys  []Expr
	RightKeys []Expr
	Left      Op
	Right     Op
}

// Label implements Op.
func (o *Join) Label() string {
	if len(o.LeftKeys) > 0 {
		lk := make([]string, len(o.LeftKeys))
		rk := make([]string, len(o.RightKeys))
		for i := range o.LeftKeys {
			lk[i] = o.LeftKeys[i].String()
			rk[i] = o.RightKeys[i].String()
		}
		return fmt.Sprintf("HASH-JOIN [%s] = [%s] residual %s",
			strings.Join(lk, ", "), strings.Join(rk, ", "), o.Cond)
	}
	return fmt.Sprintf("JOIN %s", o.Cond)
}

// InputSlots implements Op.
func (o *Join) InputSlots() []*Op { return []*Op{&o.Left, &o.Right} }

// SortKey is one ordering key of a Sort.
type SortKey struct {
	E    Expr
	Desc bool
}

// Sort orders the tuple stream by its keys (the XQuery order-by clause).
type Sort struct {
	Keys []SortKey
	In   Op
}

// Label implements Op.
func (o *Sort) Label() string {
	keys := make([]string, len(o.Keys))
	for i, k := range o.Keys {
		keys[i] = k.E.String()
		if k.Desc {
			keys[i] += " desc"
		}
	}
	return fmt.Sprintf("ORDER-BY [%s]", strings.Join(keys, ", "))
}

// InputSlots implements Op.
func (o *Sort) InputSlots() []*Op { return []*Op{&o.In} }

// Project restricts the tuple to the listed variables. Projects are
// inserted by the column-pruning pass at physical compilation time so dead
// columns are not carried through the pipeline; rewrite rules never see
// them.
type Project struct {
	Vs []Var
	In Op
}

// Label implements Op.
func (o *Project) Label() string {
	vs := make([]string, len(o.Vs))
	for i, v := range o.Vs {
		vs[i] = v.String()
	}
	return fmt.Sprintf("PROJECT [%s]", strings.Join(vs, ", "))
}

// InputSlots implements Op.
func (o *Project) InputSlots() []*Op { return []*Op{&o.In} }

// DistributeResult is the plan root: it returns the listed variables.
type DistributeResult struct {
	Vs []Var
	In Op
}

// Label implements Op.
func (o *DistributeResult) Label() string {
	vs := make([]string, len(o.Vs))
	for i, v := range o.Vs {
		vs[i] = v.String()
	}
	return fmt.Sprintf("DISTRIBUTE-RESULT [%s]", strings.Join(vs, ", "))
}

// InputSlots implements Op.
func (o *DistributeResult) InputSlots() []*Op { return []*Op{&o.In} }

// ExprSlots returns a pointer to every scalar expression slot of op, in
// operator order. It is the one list of an operator's expressions: the
// rewrite rules, VarUsed and column pruning all read it, so an operator or
// field added here is seen by every plan walker at once.
func ExprSlots(op Op) []*Expr {
	var s []*Expr
	switch o := op.(type) {
	case *Assign:
		s = append(s, &o.E)
	case *Select:
		s = append(s, &o.Cond)
	case *Unnest:
		s = append(s, &o.E)
	case *Aggregate:
		s = appendAggSlots(s, o.Aggs)
	case *GroupBy:
		for i := range o.Keys {
			s = append(s, &o.Keys[i].E)
		}
		s = appendAggSlots(s, o.Aggs)
	case *Join:
		s = append(s, &o.Cond)
		for i := range o.LeftKeys {
			s = append(s, &o.LeftKeys[i])
		}
		for i := range o.RightKeys {
			s = append(s, &o.RightKeys[i])
		}
	case *Sort:
		for i := range o.Keys {
			s = append(s, &o.Keys[i].E)
		}
	}
	return s
}

func appendAggSlots(s []*Expr, aggs []AggExpr) []*Expr {
	for i := range aggs {
		s = append(s, &aggs[i].Arg)
	}
	return s
}
