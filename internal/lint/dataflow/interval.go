// The Interval domain: every numeric variable and expression carries
// an Interval [Lo, Hi] of the values it may take, with ±Inf as the
// unbounded ends. Reassignment replaces a variable's interval, branch
// merges join, loop heads widen (a bound that grew between passes goes
// straight to its infinity, so loops converge in one widening step),
// and branch conditions refine: inside `if x < k` the then-arm meets x
// with (-inf, k) and the else-arm with [k, +inf), including through
// &&, ||, !, and constant switch cases.
//
// Constants are folded exactly through go/constant (Info.Types[x].Value
// covers arbitrarily nested constant expressions), and three hooks let
// analyzers re-interpret values: Call supplies per-call result
// intervals (where callgraph-memoized function summaries plug in, the
// way detflow's taint summaries do), Const re-homes typed constants
// (lookahead places sim.Time constants in offset-from-now space), and
// Convert does the same for non-constant conversions.
//
// Soundness posture: an interval is an over-approximation of the
// runtime values reaching a program point, under the standard
// assume/guarantee reading of seeded parameter ranges. Anything the
// domain cannot see — address-taken variables, values written by
// closures that may run later, stores through pointers passed to
// unknown callees — degrades to Top, never to a narrower guess.

package dataflow

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"maps"
	"math"
	"sort"
	"strconv"
)

// Interval is a closed numeric range with ±Inf as open ends. The zero
// Interval is the point 0; use TopInterval for "unknown".
type Interval struct {
	Lo, Hi float64
}

// TopInterval is the unbounded interval (-inf, +inf).
func TopInterval() Interval {
	return Interval{math.Inf(-1), math.Inf(1)}
}

// PointInterval is the single-value interval [v, v].
func PointInterval(v float64) Interval { return Interval{v, v} }

// AtLeast is [lo, +inf).
func AtLeast(lo float64) Interval { return Interval{lo, math.Inf(1)} }

// AtMost is (-inf, hi].
func AtMost(hi float64) Interval { return Interval{math.Inf(-1), hi} }

// IsTop reports whether iv carries no information.
func (iv Interval) IsTop() bool {
	return math.IsInf(iv.Lo, -1) && math.IsInf(iv.Hi, 1)
}

// Contains reports whether v lies inside iv.
func (iv Interval) Contains(v float64) bool { return iv.Lo <= v && v <= iv.Hi }

// Within reports iv ⊆ other.
func (iv Interval) Within(other Interval) bool {
	return other.Lo <= iv.Lo && iv.Hi <= other.Hi
}

// Join is the lattice join (interval hull).
func (iv Interval) Join(other Interval) Interval {
	return Interval{math.Min(iv.Lo, other.Lo), math.Max(iv.Hi, other.Hi)}
}

// Meet intersects two intervals; ok is false when they are disjoint.
func (iv Interval) Meet(other Interval) (Interval, bool) {
	m := Interval{math.Max(iv.Lo, other.Lo), math.Min(iv.Hi, other.Hi)}
	if m.Lo > m.Hi {
		return Interval{}, false
	}
	return m, true
}

// Widen jumps any bound of next that moved past iv to its infinity —
// the loop-head widening operator that makes fixpoints converge in one
// step per direction.
func (iv Interval) Widen(next Interval) Interval {
	if next.Lo < iv.Lo {
		next.Lo = math.Inf(-1)
	}
	if next.Hi > iv.Hi {
		next.Hi = math.Inf(1)
	}
	return next
}

// Neg is -iv.
func (iv Interval) Neg() Interval { return Interval{-iv.Hi, -iv.Lo} }

// Add is iv + other (interval sum; inf absorbs).
func (iv Interval) Add(other Interval) Interval {
	return Interval{addBound(iv.Lo, other.Lo, -1), addBound(iv.Hi, other.Hi, 1)}
}

// Sub is iv - other.
func (iv Interval) Sub(other Interval) Interval { return iv.Add(other.Neg()) }

// addBound sums two bounds; an inf−inf clash resolves toward the
// conservative side (sign = -1 for lower bounds, +1 for upper).
func addBound(a, b float64, sign int) float64 {
	s := a + b
	if math.IsNaN(s) {
		return math.Inf(sign)
	}
	return s
}

// Mul is iv × other.
func (iv Interval) Mul(other Interval) Interval {
	if iv.IsTop() || other.IsTop() {
		return TopInterval()
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, a := range [2]float64{iv.Lo, iv.Hi} {
		for _, b := range [2]float64{other.Lo, other.Hi} {
			p := a * b
			if math.IsNaN(p) { // 0 × ±inf: the limit is 0
				p = 0
			}
			lo = math.Min(lo, p)
			hi = math.Max(hi, p)
		}
	}
	return Interval{lo, hi}
}

// Div is iv ÷ other. A divisor interval containing zero yields Top:
// the division either panics (integers) or produces ±Inf (floats),
// and the range checks report that hazard separately.
func (iv Interval) Div(other Interval) Interval {
	if iv.IsTop() || other.IsTop() || other.Contains(0) {
		return TopInterval()
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, a := range [2]float64{iv.Lo, iv.Hi} {
		for _, b := range [2]float64{other.Lo, other.Hi} {
			var q float64
			switch {
			case math.IsInf(a, 0) && math.IsInf(b, 0):
				q = math.Inf(1)
				if (a < 0) != (b < 0) {
					q = math.Inf(-1)
				}
			case math.IsInf(b, 0):
				q = 0
			default:
				q = a / b
			}
			lo = math.Min(lo, q)
			hi = math.Max(hi, q)
		}
	}
	return Interval{lo, hi}
}

// Rem approximates iv % other for the integer case: when the dividend
// is provably nonnegative and the divisor excludes zero the result is
// [0, max|other|); everything else is Top.
func (iv Interval) Rem(other Interval) Interval {
	if other.Contains(0) || iv.Lo < 0 {
		return TopInterval()
	}
	m := math.Max(math.Abs(other.Lo), math.Abs(other.Hi))
	if math.IsInf(m, 1) {
		return Interval{0, math.Inf(1)}
	}
	return Interval{0, m - 1}
}

// String renders the interval with round brackets on unbounded ends:
// "[0, +inf)", "(-inf, 45000]", "[2, 7]".
func (iv Interval) String() string {
	open, close := "[", "]"
	lo, hi := formatBound(iv.Lo), formatBound(iv.Hi)
	if math.IsInf(iv.Lo, -1) {
		open = "("
	}
	if math.IsInf(iv.Hi, 1) {
		close = ")"
	}
	return open + lo + ", " + hi + close
}

func formatBound(v float64) string {
	switch {
	case math.IsInf(v, -1):
		return "-inf"
	case math.IsInf(v, 1):
		return "+inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// IntervalEffect is the transfer function of one call under the
// interval interpretation.
type IntervalEffect struct {
	// Results gives per-result intervals; nil (or wrong arity) means
	// every result is Top.
	Results []Interval
	// NoMutation suppresses the conservative rule that an unknown call
	// may scribble over any pointer-typed argument or pointer receiver.
	NoMutation bool
}

// IntervalAnalysis configures one interval-engine run.
type IntervalAnalysis struct {
	Info *types.Info
	Fset *token.FileSet

	// Call classifies one call given the intervals of its receiver and
	// arguments. ok=false selects the default: Top results plus the
	// pointer-argument mutation rule.
	Call func(call *ast.CallExpr, recv Interval, args []Interval) (IntervalEffect, bool)

	// Const, when non-nil, may re-home a folded constant expression
	// (lookahead maps sim.Time constants into offset-from-now space).
	// v is the exactly folded value.
	Const func(x ast.Expr, v Interval) (Interval, bool)

	// Convert, when non-nil, may re-interpret a non-constant conversion
	// T(x); v is the operand's interval.
	Convert func(call *ast.CallExpr, v Interval) (Interval, bool)

	// Seed pre-assigns intervals to parameters or the receiver —
	// declared //lint:range contracts, or a summary probe.
	Seed map[*types.Var]Interval
}

// IntervalReturn is the per-result interval vector observed at one
// return site of the analyzed function (function literals keep their
// returns to themselves).
type IntervalReturn struct {
	Pos     token.Pos
	Results []Interval
}

// IntervalResult is the outcome of one interval-engine run.
type IntervalResult struct {
	// Expr records, for every expression occurrence, the join of the
	// intervals it evaluated to across all passes — what analyzers look
	// up for sink arguments.
	Expr map[ast.Expr]Interval
	// Objects is the final interval state of tracked variables.
	Objects map[types.Object]Interval
	// Returns lists the function's own return sites in source order.
	Returns []IntervalReturn
}

// maxIntervalLoopPasses bounds the loop-head fixpoint: pass 1 observes
// growth, pass 2 runs on the widened head, pass 3 confirms
// convergence (widening to ±inf makes that certain).
const maxIntervalLoopPasses = 3

// RunIntervals interprets body under a and returns the recorded
// result. ft is the function's type (for named results and naked
// returns); it may be nil for synthetic bodies.
func RunIntervals(ft *ast.FuncType, body *ast.BlockStmt, a *IntervalAnalysis) *IntervalResult {
	d := &intervals{
		a:        a,
		w:        newWalker[Interval, Interval](a.Info),
		expr:     make(map[ast.Expr]Interval),
		retSites: make(map[*ast.ReturnStmt]*IntervalReturn),
		poisoned: make(map[types.Object]bool),
	}
	d.w.d = d
	d.w.curFT = ft
	// Named results are zero-initialized by the language.
	if ft != nil && ft.Results != nil {
		for _, f := range ft.Results.List {
			for _, name := range f.Names {
				if obj := a.Info.Defs[name]; obj != nil && isNumericObj(obj) {
					d.w.state[obj] = PointInterval(0)
				}
			}
		}
	}
	for v, iv := range a.Seed {
		d.w.state[v] = iv
	}
	d.w.stmt(body)
	res := &IntervalResult{Expr: d.expr, Objects: d.w.state}
	for _, r := range d.retSites {
		res.Returns = append(res.Returns, *r)
	}
	sort.Slice(res.Returns, func(i, j int) bool { return res.Returns[i].Pos < res.Returns[j].Pos })
	return res
}

// intervals is the Interval domain. Its state maps a variable to its
// interval, absent meaning Top. Loops widen to a fixpoint, branch
// conditions refine, arms that statically never fall through drop out
// of joins, and recorded expression values join across passes.
type intervals struct {
	w        *walker[Interval, Interval]
	a        *IntervalAnalysis
	expr     map[ast.Expr]Interval
	retSites map[*ast.ReturnStmt]*IntervalReturn
	poisoned map[types.Object]bool // address-taken: permanently Top
	writes   map[types.Object]bool // non-nil inside a function literal
}

func (d *intervals) setObj(o types.Object, iv Interval) {
	if o == nil || d.poisoned[o] || !isNumericObj(o) {
		return
	}
	if d.writes != nil {
		d.writes[o] = true
	}
	if iv.IsTop() {
		delete(d.w.state, o)
		return
	}
	d.w.state[o] = iv
}

func (d *intervals) load(o types.Object) Interval {
	if o == nil || d.poisoned[o] {
		return TopInterval()
	}
	if iv, ok := d.w.state[o]; ok {
		return iv
	}
	return TopInterval()
}

// poison marks an address-taken variable permanently unknown: any
// alias may rewrite it at any time.
func (d *intervals) poison(o types.Object) {
	if o == nil {
		return
	}
	if d.writes != nil {
		d.writes[o] = true
	}
	d.poisoned[o] = true
	delete(d.w.state, o)
}

// join is the branch merge: a variable bound in only one arm degrades
// to Top, i.e. leaves the map.
func (d *intervals) join(other map[types.Object]Interval) {
	for o, v := range d.w.state {
		ov, ok := other[o]
		if !ok {
			delete(d.w.state, o)
			continue
		}
		d.w.state[o] = v.Join(ov)
	}
}

func (d *intervals) unknown() Interval            { return TopInterval() }
func (d *intervals) joinV(a, b Interval) Interval { return a.Join(b) }

// leaf folds constants first: go/constant has already evaluated any
// constant expression exactly, however deeply nested.
func (d *intervals) leaf(x ast.Expr) (Interval, bool) {
	tv, ok := d.a.Info.Types[x]
	if !ok || tv.Value == nil {
		return Interval{}, false
	}
	iv, ok := constInterval(tv.Value)
	if !ok {
		return TopInterval(), true
	}
	if d.a.Const != nil {
		if h, ok := d.a.Const(x, iv); ok {
			return h, true
		}
	}
	return iv, true
}

func (d *intervals) op(n ast.Node, a, b Interval) Interval {
	switch n := n.(type) {
	case *ast.UnaryExpr:
		switch n.Op {
		case token.SUB:
			return a.Neg()
		case token.ADD:
			return a
		case token.AND:
			// Address taken: any alias may rewrite the base from here on.
			d.poison(BaseObj(d.a.Info, n.X))
		}
	case *ast.BinaryExpr:
		return d.binop(n.Op, a, b, n.X)
	case *ast.IncDecStmt:
		if n.Tok == token.INC {
			return a.Add(PointInterval(1))
		}
		return a.Sub(PointInterval(1))
	case *ast.AssignStmt:
		// Compound assignment: the operator is known exactly.
		if op, ok := compoundOp(n.Tok); ok {
			return d.binop(op, a, b, n.Lhs[0])
		}
	case *ast.ValueSpec:
		return PointInterval(0) // var x T is zero-valued
	}
	// Fields, elements, indirections, composites and type assertions
	// are not modeled.
	return TopInterval()
}

// binop applies an arithmetic operator; opnd carries the operand type
// (for integer-vs-float behavior of division).
func (d *intervals) binop(op token.Token, lv, rv Interval, opnd ast.Expr) Interval {
	switch op {
	case token.ADD:
		if isStringExpr(d.a.Info, opnd) {
			return TopInterval()
		}
		return lv.Add(rv)
	case token.SUB:
		return lv.Sub(rv)
	case token.MUL:
		return lv.Mul(rv)
	case token.QUO:
		q := lv.Div(rv)
		if q.IsTop() {
			return q
		}
		if isIntegerExpr(d.a.Info, opnd) {
			// Integer division truncates toward zero; the real-valued
			// quotient hull is a superset after rounding outward.
			q = Interval{math.Floor(q.Lo), math.Ceil(q.Hi)}
		}
		return q
	case token.REM:
		return lv.Rem(rv)
	}
	return TopInterval() // shifts, bitwise ops, comparisons, &&, ||
}

// record keeps the join of every evaluation (loop passes, branch arms).
func (d *intervals) record(x ast.Expr, v Interval) {
	if old, ok := d.expr[x]; ok {
		v = old.Join(v)
	}
	d.expr[x] = v
}

// store tracks plain variables only; field, element and indirect
// stores touch memory the domain does not model.
func (d *intervals) store(o types.Object, v Interval, strong bool) {
	if strong {
		d.setObj(o, v)
	}
}

func (d *intervals) define(o types.Object, v Interval) { d.setObj(o, v) }

func (d *intervals) call(call *ast.CallExpr, recvExpr ast.Expr, recv Interval, args []Interval, _ Interval) (Interval, []Interval) {
	info := d.a.Info
	eff := IntervalEffect{}
	if d.a.Call != nil {
		if e, ok := d.a.Call(call, recv, args); ok {
			eff = e
		}
	}

	// Mutation rule: an unknown callee may scribble over any
	// pointer-typed argument and any pointer receiver.
	if !eff.NoMutation {
		if recvExpr != nil && isPointerish(info, recvExpr) {
			d.setObj(BaseObj(info, recvExpr), TopInterval())
		}
		for _, a := range call.Args {
			if isPointerish(info, a) {
				d.setObj(BaseObj(info, a), TopInterval())
			}
		}
	}

	per := eff.Results
	if per == nil || len(per) != resultArity(info, call) {
		return TopInterval(), nil
	}
	out := per[0]
	for _, p := range per[1:] {
		out = out.Join(p)
	}
	return out, per
}

func (d *intervals) builtin(_ *ast.CallExpr, name string, args []Interval) Interval {
	switch name {
	case "len", "cap":
		return AtLeast(0)
	case "min":
		out := args[0]
		for _, a := range args[1:] {
			out = Interval{math.Min(out.Lo, a.Lo), math.Min(out.Hi, a.Hi)}
		}
		return out
	case "max":
		out := args[0]
		for _, a := range args[1:] {
			out = Interval{math.Max(out.Lo, a.Lo), math.Max(out.Hi, a.Hi)}
		}
		return out
	}
	return TopInterval()
}

// conversion interprets T(x).
func (d *intervals) conversion(call *ast.CallExpr, tn *types.TypeName, args []Interval) Interval {
	if len(args) != 1 {
		return TopInterval()
	}
	if d.a.Convert != nil {
		if h, ok := d.a.Convert(call, args[0]); ok {
			return h
		}
	}
	return convertDefault(tn.Type(), args[0])
}

// loop iterates the loop head to a widened fixpoint. The exit state is
// the head: the ¬cond refinement is deliberately not applied, since
// break statements exit with cond still true, and the head already
// subsumes the zero-iteration state.
func (d *intervals) loop(cond ast.Expr, iter func()) {
	head := maps.Clone(d.w.state)
	for pass := 0; pass < maxIntervalLoopPasses; pass++ {
		d.w.state = maps.Clone(head)
		d.w.eval(cond)
		d.refine(cond, true)
		iter()
		next := widenIvStates(head, joinIvStates(head, d.w.state))
		if maps.Equal(next, head) {
			break
		}
		head = next
	}
	d.w.state = maps.Clone(head)
}

// rangeVars models `range x`: slice, array, and string indices are
// nonnegative; an integer range is [0, x-1]; map keys, channel values
// and element values are unknown.
func (d *intervals) rangeVars(s *ast.RangeStmt, _ Interval) (Interval, Interval, bool) {
	key := TopInterval()
	switch u := underOf(d.a.Info, s.X).(type) {
	case *types.Slice, *types.Array, *types.Pointer:
		key = AtLeast(0)
	case *types.Basic:
		switch {
		case u.Info()&types.IsString != 0:
			key = AtLeast(0)
		case u.Info()&types.IsInteger != 0:
			key = Interval{0, math.Max(0, d.w.evalQuiet(s.X).Hi-1)}
		}
	}
	return key, TopInterval(), true
}

func (d *intervals) commVal(*ast.SelectStmt) (Interval, bool) { return Interval{}, false }
func (d *intervals) send(s *ast.SendStmt, _ Interval)         { d.w.eval(s.Chan) }
func (d *intervals) deferred(*ast.DeferStmt) bool             { return false }
func (d *intervals) exits(s ast.Stmt) bool                    { return terminates(s) }

// funcLit analyzes a literal body against a snapshot of the current
// state, then discards its effects except that every captured variable
// the literal writes becomes Top in the enclosing state: the closure
// may run at any later time, so nothing downstream may rely on a value
// it can overwrite.
func (d *intervals) funcLit(lit *ast.FuncLit) Interval {
	saved, savedWrites := d.w.state, d.writes
	d.w.state, d.writes = maps.Clone(saved), make(map[types.Object]bool)
	d.w.walkFunc(lit)
	written := d.writes
	d.w.state, d.writes = saved, savedWrites
	for o := range written {
		if d.writes != nil {
			d.writes[o] = true
		}
		delete(d.w.state, o)
	}
	return TopInterval()
}

// ret joins the per-result intervals of one of the function's own
// return sites across passes; a literal's returns are its own.
func (d *intervals) ret(s *ast.ReturnStmt, ivs []Interval) {
	if d.w.litDepth > 0 {
		return
	}
	if prev, ok := d.retSites[s]; ok && len(prev.Results) == len(ivs) {
		for i := range prev.Results {
			prev.Results[i] = prev.Results[i].Join(ivs[i])
		}
		return
	}
	d.retSites[s] = &IntervalReturn{Pos: s.Pos(), Results: ivs}
}

// convertDefault models a numeric conversion: a value provably inside
// the target type's range passes through (rounded outward for
// float→integer truncation); anything that could wrap degrades to Top.
func convertDefault(to types.Type, v Interval) Interval {
	b, ok := to.Underlying().(*types.Basic)
	if !ok {
		return TopInterval()
	}
	switch {
	case b.Info()&types.IsInteger != 0:
		v = Interval{math.Floor(v.Lo), math.Ceil(v.Hi)}
		lo, hi, known := intTypeRange(b.Kind())
		if !known || v.Lo < lo || v.Hi > hi {
			return TopInterval()
		}
		return v
	case b.Info()&types.IsFloat != 0:
		return v
	}
	return TopInterval()
}

// intTypeRange gives the representable range of an integer kind as
// float64 bounds (the 2^63-scale constants are exact in float64).
func intTypeRange(k types.BasicKind) (lo, hi float64, ok bool) {
	switch k {
	case types.Int, types.Int64:
		return -(1 << 63), 1 << 63, true
	case types.Int32, types.UntypedRune:
		return math.MinInt32, math.MaxInt32, true
	case types.Int16:
		return math.MinInt16, math.MaxInt16, true
	case types.Int8:
		return math.MinInt8, math.MaxInt8, true
	case types.Uint, types.Uint64, types.Uintptr:
		return 0, 1 << 64, true
	case types.Uint32:
		return 0, math.MaxUint32, true
	case types.Uint16:
		return 0, math.MaxUint16, true
	case types.Uint8:
		return 0, math.MaxUint8, true
	case types.UntypedInt:
		return math.Inf(-1), math.Inf(1), true
	}
	return 0, 0, false
}

// ---- branch-condition refinement ----

// refine narrows variable intervals under the assumption that cond
// evaluated to truth. Unrefinable shapes are left alone (sound: the
// state only ever over-approximates).
func (d *intervals) refine(cond ast.Expr, truth bool) {
	switch x := ast.Unparen(cond).(type) {
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			d.refine(x.X, !truth)
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND:
			if truth { // both conjuncts hold
				d.refine(x.X, true)
				d.refine(x.Y, true)
			}
		case token.LOR:
			if !truth { // both disjuncts failed
				d.refine(x.X, false)
				d.refine(x.Y, false)
			}
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
			op := x.Op
			if !truth {
				op = negateCmp(op)
			}
			d.refineCmp(x.X, op, x.Y)
			d.refineCmp(x.Y, flipCmp(op), x.X)
		}
	}
}

// refineCase meets a constant-cased switch tag with the hull of the
// clause's case values.
func (d *intervals) refineCase(tag ast.Expr, cc *ast.CaseClause) {
	obj := refinableObj(d.a.Info, tag)
	if obj == nil || len(cc.List) == 0 {
		return
	}
	hull := Interval{math.Inf(1), math.Inf(-1)}
	for _, x := range cc.List {
		tv, ok := d.a.Info.Types[x]
		if !ok || tv.Value == nil {
			return
		}
		p, ok := constInterval(tv.Value)
		if !ok {
			return
		}
		hull.Lo = math.Min(hull.Lo, p.Lo)
		hull.Hi = math.Max(hull.Hi, p.Hi)
	}
	if m, ok := d.load(obj).Meet(hull); ok {
		d.setObj(obj, m)
	}
}

func negateCmp(op token.Token) token.Token {
	switch op {
	case token.LSS:
		return token.GEQ
	case token.LEQ:
		return token.GTR
	case token.GTR:
		return token.LEQ
	case token.GEQ:
		return token.LSS
	case token.EQL:
		return token.NEQ
	case token.NEQ:
		return token.EQL
	}
	return op
}

func flipCmp(op token.Token) token.Token {
	switch op {
	case token.LSS:
		return token.GTR
	case token.LEQ:
		return token.GEQ
	case token.GTR:
		return token.LSS
	case token.GEQ:
		return token.LEQ
	}
	return op // ==, != are symmetric
}

// refineCmp narrows lhs (when it is a plain tracked variable) under
// `lhs op rhs`.
func (d *intervals) refineCmp(lhs ast.Expr, op token.Token, rhs ast.Expr) {
	obj := refinableObj(d.a.Info, lhs)
	if obj == nil {
		return
	}
	bound := d.w.evalQuiet(rhs)
	cur := d.load(obj)
	integral := isIntegerExpr(d.a.Info, lhs)
	var constraint Interval
	switch op {
	case token.LSS:
		hi := bound.Hi
		if integral {
			hi-- // x < k over integers means x <= k-1; -inf is absorbing
		}
		constraint = AtMost(hi)
	case token.LEQ:
		constraint = AtMost(bound.Hi)
	case token.GTR:
		lo := bound.Lo
		if integral {
			lo++
		}
		constraint = AtLeast(lo)
	case token.GEQ:
		constraint = AtLeast(bound.Lo)
	case token.EQL:
		constraint = bound
	case token.NEQ:
		// Only a point disequality against an integral endpoint shaves
		// anything off a closed interval.
		if integral && bound.Lo == bound.Hi && !math.IsInf(bound.Lo, 0) { //lint:allow floateq (exact lattice test: is the bound a single integral point)
			p := bound.Lo
			next := cur
			if cur.Lo == p { //lint:allow floateq (integral endpoints are exact in float64)
				next.Lo = p + 1
			}
			if cur.Hi == p { //lint:allow floateq (integral endpoints are exact in float64)
				next.Hi = p - 1
			}
			if next.Lo <= next.Hi {
				d.setObj(obj, next)
			}
		}
		return
	default:
		return
	}
	if m, ok := cur.Meet(constraint); ok {
		d.setObj(obj, m)
	}
	// An empty meet means this branch is unreachable under the current
	// approximation; keep the original interval rather than invent one.
}

// refinableObj returns the variable behind a plain (possibly
// parenthesized) identifier, or nil.
func refinableObj(info *types.Info, x ast.Expr) types.Object {
	if v, ok := objOf(info, x).(*types.Var); ok {
		return v
	}
	return nil
}

// ---- helpers ----

// joinIvStates is the pointwise join; a key missing on either side is
// Top and disappears.
func joinIvStates(a, b map[types.Object]Interval) map[types.Object]Interval {
	out := make(map[types.Object]Interval, len(a))
	for k, av := range a {
		if bv, ok := b[k]; ok {
			out[k] = av.Join(bv)
		}
	}
	return out
}

// widenIvStates widens next against the old head: any bound that grew
// jumps to its infinity.
func widenIvStates(head, next map[types.Object]Interval) map[types.Object]Interval {
	for k, nv := range next {
		if hv, ok := head[k]; ok {
			w := hv.Widen(nv)
			if w.IsTop() {
				delete(next, k)
			} else {
				next[k] = w
			}
		}
	}
	return next
}

// constInterval folds a go/constant value to a point interval.
func constInterval(v constant.Value) (Interval, bool) {
	switch v.Kind() {
	case constant.Int, constant.Float:
		f, _ := constant.Float64Val(v)
		return PointInterval(f), true
	}
	return Interval{}, false
}

// terminates reports whether a statement never falls through to its
// successor: it ends in return, break/continue/goto, a panic, or an
// if/else both of whose arms terminate. Used to keep guard-clause
// refinement (`if x < 0 { return }`) alive after the guard.
func terminates(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.BlockStmt:
		if len(s.List) == 0 {
			return false
		}
		return terminates(s.List[len(s.List)-1])
	case *ast.IfStmt:
		return s.Else != nil && terminates(s.Body) && terminates(s.Else)
	case *ast.LabeledStmt:
		return terminates(s.Stmt)
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
			return true
		}
	}
	return false
}

func isNumericObj(o types.Object) bool {
	if o == nil || o.Type() == nil {
		return false
	}
	b, ok := o.Type().Underlying().(*types.Basic)
	return ok && b.Info()&types.IsNumeric != 0
}

func isIntegerExpr(info *types.Info, x ast.Expr) bool {
	return basicInfo(info, x)&types.IsInteger != 0
}

func isStringExpr(info *types.Info, x ast.Expr) bool {
	return basicInfo(info, x)&types.IsString != 0
}

func compoundOp(tok token.Token) (token.Token, bool) {
	switch tok {
	case token.ADD_ASSIGN:
		return token.ADD, true
	case token.SUB_ASSIGN:
		return token.SUB, true
	case token.MUL_ASSIGN:
		return token.MUL, true
	case token.QUO_ASSIGN:
		return token.QUO, true
	case token.REM_ASSIGN:
		return token.REM, true
	}
	return token.ILLEGAL, false
}
