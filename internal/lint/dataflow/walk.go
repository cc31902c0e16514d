package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
)

// domain is one abstract interpretation run by the shared walker: S is
// the abstract state kept per object, V the abstract value of an
// expression. The walker owns the syntax — statement and expression
// recursion, branch scaffolding, tuple and return plumbing, lvalue
// decomposition and the call prelude — and asks the domain only for
// its lattice and transfer functions. Control-flow policy that differs
// between domains (loop passes, function literals, function exits) is
// a hook too, so the walker itself has no per-domain mode.
type domain[S, V any] interface {
	// join merges another path's state into the walker's live state.
	join(other map[types.Object]S)
	// unknown is the value of an expression the domain does not see
	// into (a missing operand, a type, a non-variable identifier).
	unknown() V
	// joinV joins two values (slice bounds, a slice element store).
	joinV(a, b V) V

	// leaf may value x outright, before the walker looks inside it.
	leaf(x ast.Expr) (V, bool)
	// load reads a variable.
	load(o types.Object) V
	// op is the transfer of an operator or other compound form n
	// (a unary, binary, selector, index, slice, star, type assertion,
	// key-value, composite element, ++/--, op= or a zero-valued var)
	// over its operand values.
	op(n ast.Node, a, b V) V
	// record observes x's value (the walker skips quiet evaluation).
	record(x ast.Expr, v V)

	// store writes v to a variable: strong for the variable itself,
	// weak for the base of a field, element or indirect store. o is nil
	// for the blank identifier.
	store(o types.Object, v V, strong bool)
	// define binds a declared variable (var specs, type-switch
	// symbols).
	define(o types.Object, v V)

	// call, builtin and conversion are the effects of a call whose
	// receiver and arguments the walker has evaluated. call may return
	// per-result values for tuple assignments and returns.
	call(c *ast.CallExpr, recvExpr ast.Expr, recv V, args []V, fun V) (V, []V)
	builtin(c *ast.CallExpr, name string, args []V) V
	conversion(c *ast.CallExpr, tn *types.TypeName, args []V) V

	// refine narrows the state on the path where cond is truth;
	// refineCase on the path into a switch clause.
	refine(cond ast.Expr, truth bool)
	refineCase(tag ast.Expr, cc *ast.CaseClause)

	// loop runs a loop body to the domain's fixpoint; iter walks one
	// iteration. cond is nil for range loops.
	loop(cond ast.Expr, iter func())
	// rangeVars gives the key and value a range over x binds, or
	// bind=false to leave the iteration variables alone.
	rangeVars(s *ast.RangeStmt, x V) (key, val V, bind bool)
	// commVal gives what the receive clauses of select s bind, or
	// ok=false to walk each clause's statement as written.
	commVal(s *ast.SelectStmt) (v V, ok bool)
	send(s *ast.SendStmt, v V)
	// deferred reports whether the domain took over a defer statement.
	deferred(s *ast.DeferStmt) bool
	funcLit(lit *ast.FuncLit) V
	// ret sees one return statement with its per-result values.
	ret(s *ast.ReturnStmt, vals []V)
	// exits reports that s statically never falls through, which drops
	// its arm from branch joins.
	exits(s ast.Stmt) bool
}

// walker is the structural interpreter shared by the taint, interval
// and protocol engines.
type walker[S, V any] struct {
	info  *types.Info
	d     domain[S, V]
	state map[types.Object]S
	// calls holds the per-result values of tuple-valued calls.
	calls map[*ast.CallExpr][]V
	// curFT is the innermost function type, for naked returns.
	curFT *ast.FuncType
	// litDepth counts the function literals being walked.
	litDepth int
	// dead marks a path that has left the function; the protocol domain
	// sets it at returns and terminator calls.
	dead bool
	// quiet suppresses recording (re-evaluation for refinement).
	quiet int
	// args is the argument stack behind evalArgs.
	args []V
}

func newWalker[S, V any](info *types.Info) *walker[S, V] {
	return &walker[S, V]{
		info:  info,
		state: make(map[types.Object]S),
		calls: make(map[*ast.CallExpr][]V),
	}
}

// ---- statements ----

func (w *walker[S, V]) stmt(s ast.Stmt) {
	if w.dead {
		return
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.ExprStmt:
		w.eval(s.X)
	case *ast.AssignStmt:
		w.assign(s)
	case *ast.IncDecStmt:
		w.store(s.X, w.d.op(s, w.eval(s.X), w.d.unknown()), true)
	case *ast.DeclStmt:
		w.decl(s)
	case *ast.ReturnStmt:
		w.ret(s)
	case *ast.IfStmt:
		w.ifStmt(s)
	case *ast.ForStmt:
		w.stmt(s.Init)
		w.d.loop(s.Cond, func() {
			w.stmt(s.Body)
			w.stmt(s.Post)
		})
	case *ast.RangeStmt:
		k, v, bind := w.d.rangeVars(s, w.eval(s.X))
		w.d.loop(nil, func() {
			if bind && s.Key != nil {
				w.store(s.Key, k, true)
			}
			if bind && s.Value != nil {
				w.store(s.Value, v, true)
			}
			w.stmt(s.Body)
		})
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		w.eval(s.Tag)
		w.branches(s.Body.List, func(cl ast.Stmt) []ast.Stmt {
			cc := cl.(*ast.CaseClause)
			w.d.refineCase(s.Tag, cc)
			for _, x := range cc.List {
				w.eval(x)
				if s.Tag == nil {
					w.d.refine(x, true) // expressionless switch: cases are conditions
				}
			}
			return cc.Body
		})
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		var x V
		switch g := s.Assign.(type) { // `x.(type)` or `v := x.(type)`
		case *ast.ExprStmt:
			x = w.eval(g.X)
		case *ast.AssignStmt:
			x = w.eval(g.Rhs[0])
		}
		w.branches(s.Body.List, func(cl ast.Stmt) []ast.Stmt {
			cc := cl.(*ast.CaseClause)
			if obj := w.info.Implicits[cc]; obj != nil {
				w.d.define(obj, x) // each clause binds its own symbol
			}
			return cc.Body
		})
	case *ast.SelectStmt:
		v, bindAll := w.d.commVal(s)
		w.branches(s.Body.List, func(cl ast.Stmt) []ast.Stmt {
			cc := cl.(*ast.CommClause)
			if as, ok := cc.Comm.(*ast.AssignStmt); ok && bindAll {
				w.eval(as.Rhs[0])
				for _, lhs := range as.Lhs {
					w.store(lhs, v, true)
				}
			} else {
				w.stmt(cc.Comm)
			}
			return cc.Body
		})
	case *ast.SendStmt:
		w.d.send(s, w.eval(s.Value))
	case *ast.GoStmt:
		w.eval(s.Call)
	case *ast.DeferStmt:
		if !w.d.deferred(s) {
			w.eval(s.Call)
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	}
	// nil, break/continue/goto and empty statements: the structural
	// joins already over-approximate early exits.
}

func (w *walker[S, V]) stmts(list []ast.Stmt) {
	for _, st := range list {
		if w.dead {
			return
		}
		w.stmt(st)
	}
}

// armDead reports whether the arm just walked cannot fall through: it
// left the function, or its last statement never falls through.
func (w *walker[S, V]) armDead(last ast.Stmt) bool {
	return w.dead || (last != nil && w.d.exits(last))
}

func lastStmt(list []ast.Stmt) ast.Stmt {
	if len(list) == 0 {
		return nil
	}
	return list[len(list)-1]
}

func (w *walker[S, V]) ifStmt(s *ast.IfStmt) {
	w.stmt(s.Init)
	w.eval(s.Cond)
	pre := maps.Clone(w.state)
	w.d.refine(s.Cond, true)
	w.stmt(s.Body)
	then, thenLeft := w.state, w.dead
	thenDead := w.armDead(s.Body)
	w.state, w.dead = pre, false
	w.d.refine(s.Cond, false)
	w.stmt(s.Else) // nil-safe: no else keeps the refined fall-through state
	elseLeft := w.dead
	elseDead := s.Else != nil && w.armDead(s.Else)
	switch {
	case thenDead && elseDead:
		// Neither arm falls through: what follows is dead. Keep the
		// else state so later code cannot fabricate findings.
		w.dead = thenLeft && elseLeft
	case thenDead:
		// Only the else/fall-through state survives: `if x < 0 {
		// return }` refines x afterwards.
		w.dead = false
	case elseDead:
		w.state, w.dead = then, false
	default:
		w.d.join(then)
	}
}

// branches walks each clause of a switch, type switch or select from
// a copy of the incoming state and joins every clause that falls
// through with the incoming state (no clause may run). arm walks a
// clause's header and returns its body.
func (w *walker[S, V]) branches(clauses []ast.Stmt, arm func(ast.Stmt) []ast.Stmt) {
	pre := w.state
	var outs []map[types.Object]S
	for _, cl := range clauses {
		w.state, w.dead = maps.Clone(pre), false
		body := arm(cl)
		w.stmts(body)
		if !w.armDead(lastStmt(body)) {
			outs = append(outs, w.state)
		}
	}
	w.state, w.dead = pre, false
	for _, out := range outs {
		w.d.join(out)
	}
}

func (w *walker[S, V]) assign(s *ast.AssignStmt) {
	switch {
	case s.Tok != token.ASSIGN && s.Tok != token.DEFINE:
		// x op= y: the operator's transfer of the old and new values.
		for i, lhs := range s.Lhs {
			cur := w.eval(lhs)
			w.store(lhs, w.d.op(s, cur, w.eval(s.Rhs[i])), true)
		}
	case len(s.Rhs) == 1 && len(s.Lhs) > 1:
		// Tuple assignment: per-result values when the call has them.
		v := w.eval(s.Rhs[0])
		per := w.perResult(s.Rhs[0], len(s.Lhs))
		for i, lhs := range s.Lhs {
			if per != nil {
				v = per[i]
			}
			w.store(lhs, v, true)
		}
	default:
		for i, lhs := range s.Lhs {
			w.store(lhs, w.eval(s.Rhs[i]), true)
		}
	}
}

// perResult returns the per-result values of rhs when it is a call
// that produced want of them.
func (w *walker[S, V]) perResult(rhs ast.Expr, want int) []V {
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
		if per := w.calls[call]; len(per) == want {
			return per
		}
	}
	return nil
}

func (w *walker[S, V]) decl(s *ast.DeclStmt) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		if len(vs.Values) == 1 && len(vs.Names) > 1 {
			v := w.eval(vs.Values[0])
			per := w.perResult(vs.Values[0], len(vs.Names))
			for i, name := range vs.Names {
				if per != nil {
					v = per[i]
				}
				w.d.define(w.info.Defs[name], v)
			}
			continue
		}
		for i, name := range vs.Names {
			var v V
			if len(vs.Values) == len(vs.Names) {
				v = w.eval(vs.Values[i])
			} else {
				v = w.d.op(vs, w.d.unknown(), w.d.unknown()) // var x T is zero-valued
			}
			w.d.define(w.info.Defs[name], v)
		}
	}
}

func (w *walker[S, V]) ret(s *ast.ReturnStmt) {
	var vals []V
	switch len(s.Results) {
	case 0:
		// Naked return: read the current frame's named results.
		if ft := w.curFT; ft != nil && ft.Results != nil {
			for _, f := range ft.Results.List {
				for _, name := range f.Names {
					vals = append(vals, w.d.load(w.info.Defs[name]))
				}
			}
		}
	case 1:
		v := w.eval(s.Results[0])
		vals = []V{v}
		if call, ok := ast.Unparen(s.Results[0]).(*ast.CallExpr); ok {
			if per := w.calls[call]; len(per) > 1 {
				vals = per
			}
		}
	default:
		for _, r := range s.Results {
			vals = append(vals, w.eval(r))
		}
	}
	w.d.ret(s, vals)
}

// store writes v to the lvalue lhs. The variable itself takes a strong
// update; field, element and indirect stores are weak updates of the
// base variable. A map element store passes the value alone (map
// contents are key-addressed); a slice element store joins the index
// too (slice contents are position-addressed).
func (w *walker[S, V]) store(lhs ast.Expr, v V, strong bool) {
	switch x := lhs.(type) {
	case *ast.Ident:
		obj := objOf(w.info, x)
		w.d.store(obj, v, strong && obj != nil)
	case *ast.ParenExpr:
		w.store(x.X, v, strong)
	case *ast.StarExpr:
		w.eval(x.X)
		w.store(x.X, v, false)
	case *ast.SelectorExpr:
		w.eval(x.X)
		w.store(x.X, v, false)
	case *ast.IndexExpr:
		i := w.eval(x.Index)
		w.eval(x.X)
		if !isMapType(w.info, x.X) {
			v = w.d.joinV(v, i)
		}
		w.store(x.X, v, false)
	}
}

// walkFunc walks a function literal's body as the current frame.
func (w *walker[S, V]) walkFunc(lit *ast.FuncLit) {
	saved := w.curFT
	w.curFT = lit.Type
	w.litDepth++
	w.stmt(lit.Body)
	w.litDepth--
	w.curFT = saved
}

// ---- expressions ----

// eval computes x's value in the current state and records it.
func (w *walker[S, V]) eval(x ast.Expr) V {
	if x == nil {
		return w.d.unknown()
	}
	v := w.expr(x)
	if w.quiet == 0 {
		w.d.record(x, v)
	}
	return v
}

// evalQuiet evaluates x without recording anything.
func (w *walker[S, V]) evalQuiet(x ast.Expr) V {
	w.quiet++
	v := w.eval(x)
	w.quiet--
	return v
}

func (w *walker[S, V]) expr(x ast.Expr) V {
	if v, ok := w.d.leaf(x); ok {
		return v
	}
	d := w.d
	switch x := x.(type) {
	case *ast.Ident:
		if v, ok := identObj(w.info, x).(*types.Var); ok {
			return d.load(v)
		}
	case *ast.ParenExpr:
		return w.eval(x.X)
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok && isPkgName(w.info, id) {
			if v, ok := w.info.Uses[x.Sel].(*types.Var); ok {
				return d.load(v) // package-level variable
			}
			return d.unknown()
		}
		return d.op(x, w.eval(x.X), d.unknown())
	case *ast.IndexExpr:
		return d.op(x, w.eval(x.X), w.eval(x.Index))
	case *ast.IndexListExpr:
		return d.op(x, w.eval(x.X), d.unknown())
	case *ast.SliceExpr:
		v := w.eval(x.X)
		return d.op(x, v, d.joinV(d.joinV(w.eval(x.Low), w.eval(x.High)), w.eval(x.Max)))
	case *ast.StarExpr:
		return d.op(x, w.eval(x.X), d.unknown())
	case *ast.UnaryExpr:
		return d.op(x, w.eval(x.X), d.unknown())
	case *ast.BinaryExpr:
		l := w.eval(x.X)
		return d.op(x, l, w.eval(x.Y))
	case *ast.KeyValueExpr:
		return d.op(x, w.eval(x.Value), d.unknown())
	case *ast.CompositeLit:
		v := d.unknown()
		for _, elt := range x.Elts {
			v = d.op(x, v, w.eval(elt))
		}
		return v
	case *ast.TypeAssertExpr:
		return d.op(x, w.eval(x.X), d.unknown())
	case *ast.FuncLit:
		return d.funcLit(x)
	case *ast.CallExpr:
		return w.call(x)
	}
	return d.unknown()
}

// call is the call prelude: unwrap a generic instantiation, dispatch
// builtins and conversions, evaluate the receiver, the arguments and a
// dynamic callee, then hand the call to the domain.
func (w *walker[S, V]) call(call *ast.CallExpr) V {
	mark := len(w.args)
	v := w.callArgs(call)
	w.args = w.args[:mark]
	return v
}

func (w *walker[S, V]) callArgs(call *ast.CallExpr) V {
	fun := calleeExpr(w.info, call)
	switch f := fun.(type) {
	case *ast.Ident:
		switch obj := identObj(w.info, f).(type) {
		case *types.Builtin:
			return w.d.builtin(call, obj.Name(), w.evalArgs(call))
		case *types.TypeName:
			return w.d.conversion(call, obj, w.evalArgs(call))
		}
	case *ast.SelectorExpr:
		if tn, ok := identObj(w.info, f.Sel).(*types.TypeName); ok {
			return w.d.conversion(call, tn, w.evalArgs(call))
		}
	}
	recv := w.d.unknown()
	var recvExpr ast.Expr
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if id, isIdent := sel.X.(*ast.Ident); !isIdent || !isPkgName(w.info, id) {
			recvExpr = sel.X
			recv = w.eval(sel.X)
		}
	}
	args := w.evalArgs(call)
	funV := w.d.unknown()
	if recvExpr == nil && Callee(w.info, call) == nil {
		funV = w.eval(fun) // a function-typed value
	}
	v, per := w.d.call(call, recvExpr, recv, args, funV)
	if per != nil {
		w.calls[call] = per
	}
	return v
}

// evalArgs evaluates call's arguments onto the walker's argument
// stack. The slice is valid until call returns; hooks must not retain
// it.
func (w *walker[S, V]) evalArgs(call *ast.CallExpr) []V {
	mark := len(w.args)
	for _, a := range call.Args {
		v := w.eval(a)
		w.args = append(w.args, v)
	}
	return w.args[mark:len(w.args):len(w.args)]
}
