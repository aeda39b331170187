package algebricks

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// allOps holds one zero value of every logical operator type.
func allOps() []Op {
	return []Op{
		&EmptyTupleSource{}, &NestedTupleSource{}, &DataScan{}, &Assign{},
		&Select{}, &Unnest{}, &Aggregate{}, &GroupBy{}, &Subplan{}, &Join{},
		&Sort{}, &Project{}, &DistributeResult{},
	}
}

// TestAllOpsListsEveryOperator keeps allOps complete: every type in the
// package that implements InputSlots must be in it.
func TestAllOpsListsEveryOperator(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Name.Name != "InputSlots" {
				continue
			}
			recv := fn.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			declared = append(declared, recv.(*ast.Ident).Name)
		}
	}
	var listed []string
	for _, op := range allOps() {
		listed = append(listed, reflect.TypeOf(op).Elem().Name())
	}
	sort.Strings(declared)
	sort.Strings(listed)
	if !reflect.DeepEqual(declared, listed) {
		t.Errorf("operators declared %v, listed in allOps %v", declared, listed)
	}
}

var exprType = reflect.TypeOf((*Expr)(nil)).Elem()

// fillExprs sets every Expr reachable from v — the value itself, slice
// elements (two per slice) and exported struct fields — to a distinct
// VarExpr and returns their addresses.
func fillExprs(v reflect.Value, next *Var) []*Expr {
	switch {
	case v.Type() == exprType:
		*next++
		v.Set(reflect.ValueOf(VarRef(*next)))
		return []*Expr{v.Addr().Interface().(*Expr)}
	case v.Kind() == reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		var out []*Expr
		for i := 0; i < v.Len(); i++ {
			out = append(out, fillExprs(v.Index(i), next)...)
		}
		return out
	case v.Kind() == reflect.Struct:
		var out []*Expr
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				out = append(out, fillExprs(v.Field(i), next)...)
			}
		}
		return out
	}
	return nil
}

// TestExprSlotsCoversEveryExprField checks ExprSlots against the operator
// structs themselves: every Expr field, direct or inside a slice or a
// SortKey/AggExpr/KeyExpr element, must come back exactly once.
func TestExprSlotsCoversEveryExprField(t *testing.T) {
	for _, op := range allOps() {
		var next Var
		want := fillExprs(reflect.ValueOf(op).Elem(), &next)
		got := ExprSlots(op)
		name := reflect.TypeOf(op).Elem().Name()
		if len(got) != len(want) {
			t.Errorf("%s: ExprSlots returns %d slots, the struct has %d Expr fields", name, len(got), len(want))
			continue
		}
		seen := map[*Expr]bool{}
		for _, s := range got {
			seen[s] = true
		}
		for _, w := range want {
			if !seen[w] {
				t.Errorf("%s: ExprSlots misses the slot holding %s", name, *w)
			}
		}
	}
}

// TestVarUsedSeesSortKeysAndVarLists checks VarUsed on the references that
// are not ASSIGN expressions: sort keys, join keys inside a nested plan, and
// PROJECT / DISTRIBUTE-RESULT variable lists.
func TestVarUsedSeesSortKeysAndVarLists(t *testing.T) {
	vars := &VarAllocator{}
	vA, vB, vC, vD := vars.New(), vars.New(), vars.New(), vars.New()
	asg := &Assign{V: vA, E: Num(1), In: &EmptyTupleSource{}}
	sortOp := &Sort{Keys: []SortKey{{E: Call("count", VarRef(vA))}}, In: asg}
	nested := &Aggregate{
		Aggs: []AggExpr{{V: vD, Fn: "count", Arg: Num(1)}},
		In: &Join{
			Cond: True(), LeftKeys: []Expr{VarRef(vB)}, RightKeys: []Expr{Num(1)},
			Left: &NestedTupleSource{}, Right: &NestedTupleSource{},
		},
	}
	root := &DistributeResult{Vs: []Var{vC}, In: &Project{
		Vs: []Var{vC, vD},
		In: &Subplan{Nested: nested, In: sortOp},
	}}
	for _, tc := range []struct {
		v    Var
		skip []Op
		want bool
	}{
		{vA, nil, true},
		{vA, []Op{asg, sortOp}, false},
		{vB, nil, true},
		{vC, nil, true},
		{vD, nil, true},
		{vD, []Op{root.In}, false},
		{vars.New(), nil, false},
	} {
		if got := VarUsed(root, tc.v, tc.skip...); got != tc.want {
			t.Errorf("VarUsed(%s, skip %d ops) = %v, want %v", tc.v, len(tc.skip), got, tc.want)
		}
	}
}
