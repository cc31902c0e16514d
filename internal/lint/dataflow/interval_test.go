package dataflow_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"math"
	"testing"

	"repro/internal/lint/dataflow"
)

// analyzeIv type-checks src (a complete file for package p), runs the
// interval engine over the function F with a test hook (idx() returns
// [-1, +inf), pure() has no effects), and returns the result plus the
// pieces needed to find sink() call sites.
func analyzeIv(t *testing.T, src string) (*dataflow.IntervalResult, *ast.File, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:     make(map[ast.Expr]types.TypeAndValue),
		Defs:      make(map[*ast.Ident]types.Object),
		Uses:      make(map[*ast.Ident]types.Object),
		Implicits: make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{file}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	var fd *ast.FuncDecl
	for _, d := range file.Decls {
		if f, ok := d.(*ast.FuncDecl); ok && f.Name.Name == "F" {
			fd = f
		}
	}
	if fd == nil {
		t.Fatal("no function F in source")
	}
	a := &dataflow.IntervalAnalysis{
		Info: info,
		Fset: fset,
		Call: testIntervalCall,
	}
	return dataflow.RunIntervals(fd.Type, fd.Body, a), file, info
}

// testIntervalCall is the unit tests' Call hook: idx() returns
// [-1, +inf), and sink() and pure() have no effects.
func testIntervalCall(call *ast.CallExpr, recv dataflow.Interval, args []dataflow.Interval) (dataflow.IntervalEffect, bool) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return dataflow.IntervalEffect{}, false
	}
	switch id.Name {
	case "idx":
		return dataflow.IntervalEffect{
			Results:    []dataflow.Interval{dataflow.AtLeast(-1)},
			NoMutation: true,
		}, true
	case "sink", "pure":
		return dataflow.IntervalEffect{NoMutation: true}, true
	}
	return dataflow.IntervalEffect{}, false
}

const ivPrelude = `package p

func sink(v int)     {}
func sinkf(v float64) {}
func idx() int       { return -1 }
func pure()          {}
func cond() bool     { return false }
`

// sinkArgs returns, in source order, the recorded interval of the
// first argument of every sink/sinkf call in the file.
func sinkArgs(res *dataflow.IntervalResult, file *ast.File) []dataflow.Interval {
	var out []dataflow.Interval
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && (id.Name == "sink" || id.Name == "sinkf") {
			iv, ok := res.Expr[call.Args[0]]
			if !ok {
				iv = dataflow.TopInterval()
			}
			out = append(out, iv)
		}
		return true
	})
	return out
}

func wantIv(t *testing.T, got dataflow.Interval, lo, hi float64) {
	t.Helper()
	if got.Lo != lo || got.Hi != hi {
		t.Errorf("interval = %v, want [%g, %g]", got, lo, hi)
	}
}

func TestIntervalOps(t *testing.T) {
	inf := math.Inf(1)
	a := dataflow.Interval{2, 5}
	b := dataflow.Interval{-1, 3}
	wantIv(t, a.Add(b), 1, 8)
	wantIv(t, a.Sub(b), -1, 6)
	wantIv(t, a.Mul(b), -5, 15)
	wantIv(t, a.Neg(), -5, -2)
	wantIv(t, a.Join(b), -1, 5)
	if m, ok := a.Meet(b); !ok || m != (dataflow.Interval{2, 3}) {
		t.Errorf("meet = %v, %v", m, ok)
	}
	if _, ok := a.Meet(dataflow.Interval{6, 7}); ok {
		t.Error("disjoint meet should fail")
	}
	// Division excluding zero; containing zero degrades to Top.
	wantIv(t, dataflow.Interval{10, 20}.Div(dataflow.Interval{2, 5}), 2, 10)
	if !(dataflow.Interval{10, 20}).Div(b).IsTop() {
		t.Error("division by zero-containing interval should be Top")
	}
	// Widening jumps grown bounds to infinity.
	wantIv(t, a.Widen(dataflow.Interval{2, 6}), 2, inf)
	wantIv(t, a.Widen(dataflow.Interval{1, 5}), -inf, 5)
	// 0 × inf is 0, not NaN.
	wantIv(t, dataflow.Interval{0, 0}.Mul(dataflow.AtLeast(0)), 0, 0)
	if got := dataflow.AtLeast(0).String(); got != "[0, +inf)" {
		t.Errorf("String() = %q", got)
	}
	if got := (dataflow.Interval{2, 7}).String(); got != "[2, 7]" {
		t.Errorf("String() = %q", got)
	}
}

func TestIntervalConstFoldAndStrongUpdate(t *testing.T) {
	res, file, _ := analyzeIv(t, ivPrelude+`
func F() {
	x := 2*3 + 1
	sink(x)
	x = -5
	sink(x)
}`)
	got := sinkArgs(res, file)
	wantIv(t, got[0], 7, 7)
	wantIv(t, got[1], -5, -5)
}

func TestIntervalGuardRefinement(t *testing.T) {
	res, file, _ := analyzeIv(t, ivPrelude+`
func F(n int) {
	if n < 0 {
		return
	}
	sink(n) // guard clause: n is provably nonnegative here
	if n > 10 {
		sink(n)
	} else {
		sink(n)
	}
}`)
	got := sinkArgs(res, file)
	wantIv(t, got[0], 0, math.Inf(1))
	wantIv(t, got[1], 11, math.Inf(1))
	wantIv(t, got[2], 0, 10)
}

func TestIntervalBranchJoin(t *testing.T) {
	res, file, _ := analyzeIv(t, ivPrelude+`
func F() {
	x := 0
	if cond() {
		x = 1
	} else {
		x = 4
	}
	sink(x)
}`)
	wantIv(t, sinkArgs(res, file)[0], 1, 4)
}

func TestIntervalLoopWidening(t *testing.T) {
	res, file, _ := analyzeIv(t, ivPrelude+`
func F() {
	for i := 0; i < 10; i++ {
		sink(i) // widened head meets the loop condition: [0, 9]
	}
	for j := -3; j < 0; j++ {
		sink(j)
	}
}`)
	got := sinkArgs(res, file)
	wantIv(t, got[0], 0, 9)
	wantIv(t, got[1], -3, -1)
}

func TestIntervalRangeIndex(t *testing.T) {
	res, file, _ := analyzeIv(t, ivPrelude+`
func F(xs []int) {
	for i := range xs {
		sink(i)
	}
	for k := range 4 {
		sink(k)
	}
}`)
	got := sinkArgs(res, file)
	wantIv(t, got[0], 0, math.Inf(1))
	wantIv(t, got[1], 0, 3)
}

func TestIntervalCallSummaryAndNeqShave(t *testing.T) {
	res, file, _ := analyzeIv(t, ivPrelude+`
func F() {
	i := idx()
	sink(i) // hook summary: [-1, +inf)
	if i != -1 {
		sink(i) // the disequality shaves the -1 endpoint
	}
	if i >= 0 {
		sink(i)
	}
}`)
	got := sinkArgs(res, file)
	wantIv(t, got[0], -1, math.Inf(1))
	wantIv(t, got[1], 0, math.Inf(1))
	wantIv(t, got[2], 0, math.Inf(1))
}

func TestIntervalPoisonAndClosure(t *testing.T) {
	res, file, _ := analyzeIv(t, ivPrelude+`
func F() {
	x := 1
	p := &x
	_ = p
	sink(x) // address taken: any alias may rewrite x

	y := 2
	f := func() { y = -9 }
	_ = f
	sink(y) // closure may run later: y is unknown
}`)
	got := sinkArgs(res, file)
	if !got[0].IsTop() {
		t.Errorf("address-taken x = %v, want Top", got[0])
	}
	if !got[1].IsTop() {
		t.Errorf("closure-written y = %v, want Top", got[1])
	}
}

func TestIntervalSwitchRefinement(t *testing.T) {
	res, file, _ := analyzeIv(t, ivPrelude+`
func F(n int) {
	switch n {
	case 1, 2:
		sink(n)
	}
	switch {
	case n > 5:
		sink(n)
	}
}`)
	got := sinkArgs(res, file)
	wantIv(t, got[0], 1, 2)
	wantIv(t, got[1], 6, math.Inf(1))
}

func TestIntervalSeedAndReturns(t *testing.T) {
	fset := token.NewFileSet()
	src := ivPrelude + `
func F(w float64) float64 {
	if w < 0 {
		w = 0
	}
	return w
}`
	file, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{file}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	var fd *ast.FuncDecl
	for _, d := range file.Decls {
		if f, ok := d.(*ast.FuncDecl); ok && f.Name.Name == "F" {
			fd = f
		}
	}
	param := info.Defs[fd.Type.Params.List[0].Names[0]].(*types.Var)
	res := dataflow.RunIntervals(fd.Type, fd.Body, &dataflow.IntervalAnalysis{
		Info: info,
		Fset: fset,
		Seed: map[*types.Var]dataflow.Interval{param: dataflow.AtMost(100)},
	})
	if len(res.Returns) != 1 || len(res.Returns[0].Results) != 1 {
		t.Fatalf("returns = %+v", res.Returns)
	}
	wantIv(t, res.Returns[0].Results[0], 0, 100)
}

func TestIntervalCompoundAndDivision(t *testing.T) {
	res, file, _ := analyzeIv(t, ivPrelude+`
func F(n int) {
	x := 10
	x += 2
	sink(x)
	if n >= 2 && n <= 5 {
		sink(100 / n)
	}
	y := 3
	y *= -2
	sink(y)
}`)
	got := sinkArgs(res, file)
	wantIv(t, got[0], 12, 12)
	wantIv(t, got[1], 20, 50)
	wantIv(t, got[2], -6, -6)
}

func TestIntervalMinMaxBuiltins(t *testing.T) {
	res, file, _ := analyzeIv(t, ivPrelude+`
func F(n int) {
	sink(max(n, 0))
	sink(min(n, 7))
}`)
	got := sinkArgs(res, file)
	wantIv(t, got[0], 0, math.Inf(1))
	wantIv(t, got[1], math.Inf(-1), 7)
}

func TestIntervalConversions(t *testing.T) {
	res, file, _ := analyzeIv(t, ivPrelude+`
func F(n int) {
	x := 5
	sink(int(int64(x)))
	if n >= 0 {
		sinkf(float64(n))
	}
	neg := -1
	sink(int(uint32(neg))) // wraps: must degrade to Top
}`)
	got := sinkArgs(res, file)
	wantIv(t, got[0], 5, 5)
	wantIv(t, got[1], 0, math.Inf(1))
	if !got[2].IsTop() {
		t.Errorf("wrapping conversion = %v, want Top", got[2])
	}
}
