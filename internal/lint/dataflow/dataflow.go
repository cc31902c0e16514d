// Package dataflow is the function-level abstract interpreter behind
// the flow-sensitive repolint analyzers. One generic walker (walk.go)
// interprets a function body in source order and owns the structure:
// the per-variable state and its copy-and-join across branches, the
// statement and expression recursion, switch, type-switch and select
// clauses, tuple and per-result call plumbing, named results and return
// sites, lvalue stores, and the call prelude. Three domains plug into
// it through one small lattice/transfer interface:
//
//   - Taint (Run, this file) propagates nondeterminism along def-use
//     chains for detflow: assignments carry the right-hand side's taint,
//     operators join their operands, calls transfer taint through a
//     per-call Effect from the analyzer (where interprocedural summaries
//     over internal/lint/callgraph plug in), a clean reassignment or a
//     sanitizer call kills, and ranging over a map or a multi-way select
//     are built-in sources.
//   - Interval (RunIntervals, interval.go) bounds every numeric value
//     for rangecheck and lookahead, with widening at loop heads and
//     branch-condition refinement.
//   - Protocol state (RunProto, states.go) follows a finite-state
//     machine per tracked value for typestate, with deferred calls,
//     must-complete checks at exits and per-callee summaries.
//
// Each domain keeps its own control-flow policy as hooks: taint runs
// two fixed loop passes inside up to four whole-body passes and records
// expression values in the final pass; intervals widen loops to a
// fixpoint, drop arms that statically never fall through and join
// recorded values across passes; protocol state follows a path until
// it returns and gives function literals their own frame.
package dataflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"path/filepath"
)

// Taint is the abstract value tracked for every variable and
// expression. The zero Taint is "clean".
type Taint struct {
	// Desc is the human-readable provenance of an internal
	// nondeterminism source ("map iteration order (cluster.go:375)").
	// Empty when the value does not depend on an internal source.
	Desc string
	// Param reports that the value depends on a parameter or receiver
	// the caller seeded via Analysis.Seed — how summary computation
	// discovers parameter-to-result flow.
	Param bool
}

// Tainted reports whether t carries any taint.
func (t Taint) Tainted() bool { return t.Desc != "" || t.Param }

// Join merges two taints: an internal source wins the description slot
// (first non-empty), parameter dependence is disjunctive.
func Join(a, b Taint) Taint {
	if a.Desc == "" {
		a.Desc = b.Desc
	}
	a.Param = a.Param || b.Param
	return a
}

// JoinAll folds Join over ts.
func JoinAll(ts []Taint) Taint {
	var out Taint
	for _, t := range ts {
		out = Join(out, t)
	}
	return out
}

// Effect is the transfer function of one call, as decided by the
// analyzer's Call hook.
type Effect struct {
	// Result is joined into every result of the call.
	Result Taint
	// Results, when non-nil, gives per-result taints (length must match
	// the call's result arity); tuple assignments and returns then keep
	// per-result precision instead of collapsing to one joined taint.
	Results []Taint
	// Propagate joins the taints of the receiver and arguments into the
	// results (the default assumption for calls whose body is unknown).
	Propagate bool
	// Kills names arguments whose base object is sanitized: its taint
	// is removed from the state (sort.Strings over collected map keys).
	Kills []ast.Expr
	// NoMutation suppresses the conservative rule that a call with a
	// tainted input may store that input into its receiver or into any
	// pointer-typed argument. Sources and sanitizers set it.
	NoMutation bool
}

// Analysis configures one engine run over a function body.
type Analysis struct {
	Info *types.Info
	Fset *token.FileSet

	// Call classifies one call, given the taints of its receiver (zero
	// for non-method calls) and arguments. Returning ok=false selects
	// the default: propagate input taints to the results and apply the
	// mutation rule.
	Call func(call *ast.CallExpr, recv Taint, args []Taint) (Effect, bool)

	// TaintMapRange taints the key/value variables of a range over a
	// map, which is the engine-level model of Go's randomized map
	// iteration order.
	TaintMapRange bool
	// TaintSelect taints variables bound by the comm clauses of a
	// select with more than one case — the scheduler picks the winner.
	TaintSelect bool

	// Seed pre-taints objects (parameters, the receiver) before the
	// walk; summary computation uses it to detect param-to-result flow.
	Seed map[*types.Var]Taint
}

// Return is the taint observed at one return statement of the analyzed
// function (literals nested inside it keep their own returns).
type Return struct {
	Pos token.Pos
	// Taints has one entry per result when the arity is derivable (a
	// naked return over named results, or a tuple-call return with a
	// per-result Effect); otherwise one entry per written expression.
	Taints []Taint
}

// Result is the converged outcome of one engine run.
type Result struct {
	// Expr records the taint of every expression at its occurrence, in
	// the final (converged) pass. Analyzers look up sink arguments here.
	Expr map[ast.Expr]Taint
	// Objects is the final taint state of every variable.
	Objects map[types.Object]Taint
	// Returns lists the taints flowing out of the function's own return
	// statements.
	Returns []Return
}

// maxLoopPasses bounds the fixpoint iteration of loop bodies. Two
// passes propagate any single loop-carried def-use chain; the outer
// whole-body iteration in Run composes longer chains.
const maxLoopPasses = 2

// maxBodyPasses bounds the whole-body fixpoint (sanitizer kills make
// the transfer non-monotone, so we cap instead of testing convergence
// alone).
const maxBodyPasses = 4

// Run interprets body under a and returns the converged result. ft is
// the function's type (for named results); it may be nil for synthetic
// bodies.
func Run(ft *ast.FuncType, body *ast.BlockStmt, a *Analysis) *Result {
	t := &taint{a: a, w: newWalker[Taint, Taint](a.Info)}
	t.w.d = t
	seed := func() {
		for v, s := range a.Seed {
			t.w.state[v] = s
		}
	}
	seed()
	for i := 0; i < maxBodyPasses; i++ {
		t.changed = false
		t.w.stmt(body)
		seed() // seeds are sticky: a summary run must not lose them
		if !t.changed {
			break
		}
	}
	// Final recording pass over the converged state.
	t.recording = true
	t.expr = make(map[ast.Expr]Taint)
	t.w.curFT = ft
	t.w.stmt(body)
	return &Result{Expr: t.expr, Objects: t.w.state, Returns: t.returns}
}

// taint is the Taint domain: joins along def-use chains, strong
// updates on assignment, sanitizer kills and the mutation rule. It
// records expression values in the final pass only, and walks function
// literals inline on the shared state.
type taint struct {
	w         *walker[Taint, Taint]
	a         *Analysis
	expr      map[ast.Expr]Taint // recording pass only
	returns   []Return
	litRets   []Taint // join of return taints per open literal frame
	recording bool
	changed   bool
}

// setObj strongly updates an object's taint (assignment kills).
func (t *taint) setObj(o types.Object, v Taint) {
	if o == nil {
		return
	}
	if old, ok := t.w.state[o]; !ok && !v.Tainted() {
		return
	} else if old == v {
		return
	}
	t.w.state[o] = v
	t.changed = true
}

// joinObj weakly updates an object's taint (container/field stores).
func (t *taint) joinObj(o types.Object, v Taint) {
	if o == nil || !v.Tainted() {
		return
	}
	t.setObj(o, Join(t.w.state[o], v))
}

func (t *taint) join(other map[types.Object]Taint) {
	for o, v := range other {
		t.joinObj(o, v)
		if !v.Tainted() {
			if _, ok := t.w.state[o]; !ok {
				t.w.state[o] = v
			}
		}
	}
}

func (t *taint) unknown() Taint         { return Taint{} }
func (t *taint) joinV(a, b Taint) Taint { return Join(a, b) }

// leaf values an instantiated generic function by the function alone.
func (t *taint) leaf(x ast.Expr) (Taint, bool) {
	if ix, ok := x.(*ast.IndexExpr); ok {
		if _, isFn := t.a.Info.Types[ix.X].Type.(*types.Signature); isFn {
			return t.w.eval(ix.X), true
		}
	}
	return Taint{}, false
}

func (t *taint) load(o types.Object) Taint { return t.w.state[o] }

// op joins the operands: every derived value depends on all of them.
func (t *taint) op(_ ast.Node, a, b Taint) Taint { return Join(a, b) }

func (t *taint) record(x ast.Expr, v Taint) {
	if t.recording {
		t.expr[x] = v
	}
}

func (t *taint) store(o types.Object, v Taint, strong bool) {
	if strong {
		t.setObj(o, v)
	} else {
		t.joinObj(o, v)
	}
}

func (t *taint) define(o types.Object, v Taint) { t.setObj(o, v) }

func (t *taint) call(call *ast.CallExpr, recvExpr ast.Expr, recv Taint, args []Taint, fun Taint) (Taint, []Taint) {
	info := t.a.Info
	eff, ok := Effect{}, false
	if t.a.Call != nil {
		eff, ok = t.a.Call(call, recv, args)
	}
	if !ok {
		eff = Effect{Propagate: true}
	}

	// Sanitizers: kill the named argument objects.
	killed := make(map[types.Object]bool)
	for _, k := range eff.Kills {
		if o := BaseObj(info, k); o != nil {
			t.setObj(o, Taint{})
			killed[o] = true
		}
	}

	inputs := Join(Join(recv, fun), JoinAll(args))
	result := eff.Result
	if eff.Propagate {
		result = Join(result, inputs)
	}

	// Mutation rule: a call whose body we cannot fully trust may store
	// a tainted input into its receiver or any pointer-typed argument.
	if inputs.Tainted() && !eff.NoMutation {
		if recvExpr != nil {
			if o := BaseObj(info, recvExpr); o != nil && !killed[o] {
				t.joinObj(o, inputs)
			}
		}
		for _, a := range call.Args {
			if !isPointerish(info, a) {
				continue
			}
			if o := BaseObj(info, a); o != nil && !killed[o] {
				t.joinObj(o, inputs)
			}
		}
	}

	if t.recording {
		arity := resultArity(info, call)
		per := eff.Results
		if len(per) != arity {
			per = nil
		}
		if per == nil && arity > 1 {
			per = make([]Taint, arity)
			for i := range per {
				per[i] = result
			}
		}
		if per != nil {
			joined := make([]Taint, len(per))
			for i, p := range per {
				joined[i] = Join(p, eff.Result)
				if eff.Propagate {
					joined[i] = Join(joined[i], inputs)
				}
			}
			return JoinAll(joined), joined
		}
	}
	return Join(result, JoinAll(eff.Results)), nil
}

func (t *taint) builtin(call *ast.CallExpr, name string, args []Taint) Taint {
	switch name {
	case "len", "cap", "make", "new", "delete", "close", "recover", "print", "println", "clear":
		// len(m) and friends are order-independent observations; the
		// allocators return fresh clean values.
		return Taint{}
	case "copy":
		// copy(dst, src) stores src's taint into dst.
		if len(call.Args) == 2 {
			if o := BaseObj(t.a.Info, call.Args[0]); o != nil {
				t.joinObj(o, t.w.evalQuiet(call.Args[1]))
			}
		}
		return Taint{}
	}
	return JoinAll(args) // append, min, max, complex, real, imag, panic, ...
}

func (t *taint) conversion(_ *ast.CallExpr, _ *types.TypeName, args []Taint) Taint {
	return JoinAll(args)
}

func (t *taint) refine(ast.Expr, bool)                {}
func (t *taint) refineCase(ast.Expr, *ast.CaseClause) {}
func (t *taint) exits(ast.Stmt) bool                  { return false }
func (t *taint) deferred(*ast.DeferStmt) bool         { return false }

// loop runs the body a fixed number of passes and joins the
// zero-iteration state.
func (t *taint) loop(cond ast.Expr, iter func()) {
	pre := maps.Clone(t.w.state)
	for i := 0; i < maxLoopPasses; i++ {
		t.w.eval(cond)
		iter()
	}
	t.join(pre)
}

// rangeVars binds the key and value to the ranged value; ranging over
// a map adds the iteration-order source when the analysis asks for it.
func (t *taint) rangeVars(s *ast.RangeStmt, x Taint) (Taint, Taint, bool) {
	if t.a.TaintMapRange && isMapType(t.a.Info, s.X) {
		x = Join(x, Taint{Desc: "map iteration order (" + t.shortPos(s.Range) + ")"})
	}
	return x, x, true
}

// commVal taints what the comm clauses of a multi-way select bind: the
// scheduler picks the winner.
func (t *taint) commVal(s *ast.SelectStmt) (Taint, bool) {
	if len(s.Body.List) > 1 && t.a.TaintSelect {
		return Taint{Desc: "select completion order (" + t.shortPos(s.Select) + ")"}, true
	}
	return Taint{}, false
}

// send stores the value into the channel: it carries whatever flows in.
func (t *taint) send(s *ast.SendStmt, v Taint) { t.w.store(s.Chan, v, false) }

// funcLit walks a literal inline, sharing the enclosing state (its
// captures read and write the same objects). The literal's value
// carries the join of its own return taints, so a closure handed to a
// higher-order function (exec.Map) propagates what it would return.
func (t *taint) funcLit(lit *ast.FuncLit) Taint {
	t.litRets = append(t.litRets, Taint{})
	t.w.walkFunc(lit)
	v := t.litRets[len(t.litRets)-1]
	t.litRets = t.litRets[:len(t.litRets)-1]
	return v
}

func (t *taint) ret(s *ast.ReturnStmt, vals []Taint) {
	if n := len(t.litRets); n > 0 {
		t.litRets[n-1] = Join(t.litRets[n-1], JoinAll(vals))
		return
	}
	if t.recording {
		t.returns = append(t.returns, Return{Pos: s.Pos(), Taints: vals})
	}
}

func (t *taint) shortPos(pos token.Pos) string {
	p := t.a.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// ---- type/object helpers ----

func identObj(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// objOf resolves a (parenthesized) identifier to the object it
// defines or uses; the blank identifier and other expressions give nil.
func objOf(info *types.Info, x ast.Expr) types.Object {
	id, ok := ast.Unparen(x).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return identObj(info, id)
}

func isPkgName(info *types.Info, id *ast.Ident) bool {
	_, ok := info.Uses[id].(*types.PkgName)
	return ok
}

// underOf is the underlying type of x, or nil when info has none.
func underOf(info *types.Info, x ast.Expr) types.Type {
	if tv, ok := info.Types[x]; ok && tv.Type != nil {
		return tv.Type.Underlying()
	}
	return nil
}

// basicInfo is the basic-type info of x, or 0 for non-basic types.
func basicInfo(info *types.Info, x ast.Expr) types.BasicInfo {
	if b, ok := underOf(info, x).(*types.Basic); ok {
		return b.Info()
	}
	return 0
}

func isFuncExpr(info *types.Info, x ast.Expr) bool {
	_, ok := underOf(info, x).(*types.Signature)
	return ok
}

func isMapType(info *types.Info, x ast.Expr) bool {
	_, ok := underOf(info, x).(*types.Map)
	return ok
}

// isPointerish reports whether passing x can hand the callee a handle
// to the caller's memory (pointer, or explicit address-of).
func isPointerish(info *types.Info, x ast.Expr) bool {
	if u, ok := ast.Unparen(x).(*ast.UnaryExpr); ok && u.Op == token.AND {
		return true
	}
	_, ok := underOf(info, x).(*types.Pointer)
	return ok
}

func resultArity(info *types.Info, call *ast.CallExpr) int {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return 1
	}
	if tuple, ok := tv.Type.(*types.Tuple); ok {
		return tuple.Len()
	}
	return 1
}

// BaseObj unwraps an lvalue/handle chain (x, x.f, x[i], *x, &x and
// combinations) to the variable object at its base, or nil.
func BaseObj(info *types.Info, x ast.Expr) types.Object {
	for {
		switch v := x.(type) {
		case *ast.ParenExpr:
			x = v.X
		case *ast.IndexExpr:
			x = v.X
		case *ast.StarExpr:
			x = v.X
		case *ast.UnaryExpr:
			if v.Op != token.AND {
				return nil
			}
			x = v.X
		case *ast.SliceExpr:
			x = v.X
		case *ast.SelectorExpr:
			if id, ok := v.X.(*ast.Ident); ok && isPkgName(info, id) {
				return info.Uses[v.Sel]
			}
			x = v.X
		case *ast.Ident:
			if obj, ok := identObj(info, v).(*types.Var); ok {
				return obj
			}
			return nil
		default:
			return nil
		}
	}
}

// Callee resolves a call's static target — a package-level function or
// a method with a concrete declaration — or nil for builtins,
// conversions, function-typed values, and interface methods whose
// concrete target is unknown. Generic instantiations are unwrapped.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch f := calleeExpr(info, call).(type) {
	case *ast.Ident:
		fn, _ := identObj(info, f).(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := identObj(info, f.Sel).(*types.Func)
		return fn
	}
	return nil
}

// calleeExpr is the call's function expression with parentheses and
// any generic instantiation removed.
func calleeExpr(info *types.Info, call *ast.CallExpr) ast.Expr {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		if isFuncExpr(info, ix.X) {
			return ast.Unparen(ix.X)
		}
	case *ast.IndexListExpr:
		return ast.Unparen(ix.X)
	}
	return fun
}

// FuncKey renders a stable cross-package key for fn:
// "pkgpath.Name" for functions and "pkgpath.Recv.Name" for methods
// (pointer receivers dereferenced), the form the value analyzers use
// to index their built-in contract tables.
func FuncKey(fn *types.Func) string {
	path := fn.Pkg().Path()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return path + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	return path + "." + fn.Name()
}
