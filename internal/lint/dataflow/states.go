// The protocol-state domain: where Run tracks a Taint lattice along
// def-use chains, RunProto tracks a small finite-state machine per
// protocol object — "this Writer is active", "this Group is closed" —
// plus the two features protocols need that taint does not: deferred
// calls applied at every function exit (so `defer g.Close()`
// discharges a completion obligation), and must-complete checking at
// returns (an object that cannot be in an accepting state on some exit
// path is reported there).
//
// Interprocedural precision comes from per-(callee, parameter, input
// state) summaries: when a tracked object is passed to a same-package
// function, the domain runs the callee's body with the parameter seeded
// in each current state, memoizes the (output states, escaped) result,
// and applies it at the call site; cycles resolve to the conservative
// "escaped" summary, which silences obligations rather than inventing
// violations.
//
// Soundness posture: the domain is deliberately quiet. Any flow it
// cannot follow — returning the object, storing it into a field, slice,
// map, or channel, or (per-protocol) passing it to an unknown function
// — marks the object escaped, which disables all further checks on it.
// Escape can hide a misuse; it cannot fabricate one.

package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
)

// StateSet is a bitset over one protocol's states (at most 32).
type StateSet uint32

// SingleState returns the set containing only state i.
func SingleState(i int) StateSet { return 1 << uint(i) }

// Has reports whether state i is in the set.
func (s StateSet) Has(i int) bool { return s&SingleState(i) != 0 }

// Empty reports whether the set has no states.
func (s StateSet) Empty() bool { return s == 0 }

// states iterates the members of the set in increasing order.
func (s StateSet) states(n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		if s.Has(i) {
			out = append(out, i)
		}
	}
	return out
}

// Proto is one declarative protocol: a state machine over the method
// calls observed on a tracked value.
type Proto struct {
	// Name labels the protocol in diagnostics ("trace.Sink").
	Name string
	// Doc is the one-line protocol summary appended to diagnostics
	// ("protocol is Begin, then Tick*, then End").
	Doc string
	// States names the machine's states; diagnostics print them.
	States []string
	// Start is the state a freshly created value is in.
	Start int
	// Methods maps a method name to its transition vector. A method
	// absent from the map is protocol-neutral: it leaves the state
	// unchanged (accessors like Err or Size).
	Methods map[string]ProtoMethod
	// Accepting marks the states in which abandoning the value is
	// legal. Only consulted when MustComplete is set.
	Accepting StateSet
	// CompleteDoc names the completing call ("End", "Close") in
	// must-complete diagnostics; when empty, the accepting state names
	// are used.
	CompleteDoc string
	// MustComplete requires every tracked value to be possibly-accepting
	// at every exit it is still live on: if no state in the value's set
	// is accepting when a path leaves the function, the path is
	// reported.
	MustComplete bool
	// EscapeOnPass controls what passing the value as an argument to an
	// unsummarized call means: true (sinks, writers) hands off the
	// remaining obligations to the callee and stops tracking; false
	// (groups) assumes callees observe but do not drive the protocol,
	// keeping the caller's obligations alive.
	EscapeOnPass bool
}

// ProtoMethod is the transition vector of one method: Next[s] is the
// post-state when called in state s, or a negative value when the call
// violates the protocol in s.
type ProtoMethod struct {
	Next []int
	// ErrReleases marks a method that cleans up after its own failure
	// (a failed fileSink.Begin closes the file it opened): when the
	// method's error result is checked non-nil, the value owes nothing
	// in that branch.
	ErrReleases bool
}

// ProtoViolation is one protocol misuse finding.
type ProtoViolation struct {
	// Pos anchors the violating call (or the exit statement, for
	// must-complete findings).
	Pos token.Pos
	// Origin is where the tracked value was created.
	Origin token.Pos
	Proto  *Proto
	Msg    string
}

// StateAnalysis configures one RunProto invocation.
type StateAnalysis struct {
	Info *types.Info
	Fset *token.FileSet

	// Origin classifies a call as creating a tracked value: it returns
	// the protocol and the index of the call result that carries the
	// value.
	Origin func(call *ast.CallExpr) (p *Proto, result int, ok bool)

	// Decl resolves a same-package function to its declaration, for
	// interprocedural summaries. nil disables summaries (tracked
	// arguments then follow the protocol's EscapeOnPass rule).
	Decl func(fn *types.Func) *ast.FuncDecl

	// Report receives each violation once (deduplicated by position).
	Report func(v ProtoViolation)
}

// RunProto interprets body under a, reporting protocol violations
// through a.Report. It is the typestate counterpart of Run.
func RunProto(body *ast.BlockStmt, a *StateAnalysis) {
	e := newProtocols(a)
	e.pushFrame()
	e.w.stmt(body)
	e.exit(body.End())
}

// objState is one tracked value's abstract state.
type objState struct {
	proto   *Proto
	states  StateSet
	origin  token.Pos
	escaped bool
}

// deferredCall is one recorded defer, applied at function exits in
// reverse order.
type deferredCall struct {
	obj    types.Object // nil when lit is set
	method string
	pos    token.Pos
	lit    *ast.FuncLit
}

// frame scopes defers and created objects to one function (the top
// declaration or a literal walked inline).
type frame struct {
	defers  []deferredCall
	created []types.Object
}

type sumKey struct {
	fn    *types.Func
	param int // -1 is the receiver
	in    int
}

type sumVal struct {
	out     StateSet
	escaped bool
}

// protoVal is the protocol domain's value of an expression: the
// tracked object it denotes, if any, or what a call hands back.
type protoVal struct {
	// obj is the tracked object the expression denotes, through
	// parentheses, &, * and type assertions.
	obj types.Object
	// bare reports that the expression is obj's identifier itself:
	// only a bare value aliases, escapes into a store or is passed on.
	bare bool
	// origin is set on the value an origin call creates, and errOf on
	// the other results of that call (an error among them vouches for
	// the created value).
	origin, errOf *protoOrigin
	// guard is set on the error result of an ErrReleases method: it
	// vouches for the receiver.
	guard types.Object
}

// protoOrigin is one origin call's created value, bound to the
// variable its result is stored in.
type protoOrigin struct {
	proto   *Proto
	pos     token.Pos
	tracked types.Object
	errs    []types.Object // error results bound before the value
}

// protocols is the protocol-state domain. A path that returns or
// calls a terminator is dead; loops run two passes and fall back to
// the zero-iteration state when the body returns; function literals
// get their own frame whose exit is checked at the literal's end.
type protocols struct {
	w        *walker[objState, protoVal]
	a        *StateAnalysis
	frames   []*frame
	reported map[token.Pos]bool
	sums     map[sumKey]sumVal
	running  map[sumKey]bool
	// errGuard links a constructor's error result to the tracked value
	// it vouches for: in the branch where the error is non-nil the
	// value is nil, so its obligations vanish there.
	errGuard map[types.Object]types.Object
	// summarizing suppresses exit checks for seeded parameters and
	// carries the seeded object whose exit states the summary collects.
	seedObj   types.Object
	seedOut   StateSet
	seedAtRet bool
}

func newProtocols(a *StateAnalysis) *protocols {
	e := &protocols{
		a:        a,
		w:        newWalker[objState, protoVal](a.Info),
		reported: make(map[token.Pos]bool),
		sums:     make(map[sumKey]sumVal),
		running:  make(map[sumKey]bool),
		errGuard: make(map[types.Object]types.Object),
	}
	e.w.d = e
	return e
}

func (e *protocols) pushFrame() { e.frames = append(e.frames, &frame{}) }

func (e *protocols) popFrame() *frame {
	f := e.frames[len(e.frames)-1]
	e.frames = e.frames[:len(e.frames)-1]
	return f
}

func (e *protocols) topFrame() *frame { return e.frames[len(e.frames)-1] }

func (e *protocols) report(pos, origin token.Pos, p *Proto, msg string) {
	if e.reported[pos] {
		return
	}
	e.reported[pos] = true
	if e.a.Report != nil {
		e.a.Report(ProtoViolation{Pos: pos, Origin: origin, Proto: p, Msg: msg})
	}
}

// track starts tracking obj in proto's start state.
func (e *protocols) track(obj types.Object, p *Proto, origin token.Pos) {
	if obj == nil {
		return
	}
	e.w.state[obj] = objState{proto: p, states: SingleState(p.Start), origin: origin}
	f := e.topFrame()
	f.created = append(f.created, obj)
}

// escape stops enforcing anything about obj.
func (e *protocols) escape(obj types.Object) {
	if obj == nil {
		return
	}
	if st, ok := e.w.state[obj]; ok && !st.escaped {
		st.escaped = true
		e.w.state[obj] = st
	}
}

// live resolves a bare value to its object while it is still tracked.
func (e *protocols) live(v protoVal) types.Object {
	if !v.bare || v.obj == nil {
		return nil
	}
	if st, ok := e.w.state[v.obj]; ok && !st.escaped {
		return v.obj
	}
	return nil
}

// join merges another branch's outcome into the live state: states
// union, escape is sticky.
func (e *protocols) join(other map[types.Object]objState) {
	for o, st := range other {
		cur, ok := e.w.state[o]
		if !ok {
			e.w.state[o] = st
			continue
		}
		cur.states |= st.states
		cur.escaped = cur.escaped || st.escaped
		e.w.state[o] = cur
	}
}

func (e *protocols) unknown() protoVal                        { return protoVal{} }
func (e *protocols) joinV(a, _ protoVal) protoVal             { return a }
func (e *protocols) leaf(ast.Expr) (protoVal, bool)           { return protoVal{}, false }
func (e *protocols) record(ast.Expr, protoVal)                {}
func (e *protocols) refineCase(ast.Expr, *ast.CaseClause)     {}
func (e *protocols) commVal(*ast.SelectStmt) (protoVal, bool) { return protoVal{}, false }
func (e *protocols) exits(ast.Stmt) bool                      { return false }

func (e *protocols) load(o types.Object) protoVal {
	if st, ok := e.w.state[o]; ok && !st.escaped {
		return protoVal{obj: o, bare: true}
	}
	return protoVal{}
}

// op passes the denoted object through &, * and type assertions, and
// lets a tracked value escape into a composite literal element.
func (e *protocols) op(n ast.Node, a, b protoVal) protoVal {
	switch n.(type) {
	case *ast.UnaryExpr, *ast.StarExpr, *ast.TypeAssertExpr:
		return protoVal{obj: a.obj}
	case *ast.KeyValueExpr:
		e.escape(a.obj)
	case *ast.CompositeLit:
		e.escape(b.obj)
	}
	return protoVal{}
}

// store binds a created value to its variable, links error results to
// the value they vouch for, and otherwise keeps one name per tracked
// value: assigning it to another variable moves the state there and
// escapes the source, storing it anywhere else (a field, element, map,
// channel or package-level variable) escapes it, and reassigning a
// variable drops the value it held.
func (e *protocols) store(obj types.Object, v protoVal, strong bool) {
	switch {
	case v.origin != nil || v.errOf != nil:
		if strong {
			e.define(obj, v)
		}
		return
	case v.guard != nil:
		if strong && isErrorObj(obj) {
			e.errGuard[obj] = v.guard
		}
		return
	case !strong || isGlobalVar(obj):
		e.escape(e.live(v))
		return
	}
	if src := e.live(v); src != nil && src != obj {
		// Aliasing: both names now refer to the same value, so strong
		// updates through either would be unsound — escape the source
		// and move its state to the destination.
		st := e.w.state[src]
		e.escape(src)
		st.escaped = false
		e.w.state[obj] = st
		e.topFrame().created = append(e.topFrame().created, obj)
		return
	}
	if _, tracked := e.w.state[obj]; tracked {
		e.escape(obj)
	}
}

// define binds only what an origin call creates: a declaration does
// not move or escape an existing tracked value.
func (e *protocols) define(obj types.Object, v protoVal) {
	switch {
	case v.origin != nil && obj != nil:
		o := v.origin
		e.track(obj, o.proto, o.pos)
		o.tracked = obj
		for _, err := range o.errs {
			e.errGuard[err] = obj
		}
	case v.errOf != nil && isErrorObj(obj):
		if v.errOf.tracked != nil {
			e.errGuard[obj] = v.errOf.tracked
		} else {
			v.errOf.errs = append(v.errOf.errs, obj)
		}
	}
}

// call interprets one call with a receiver or a static or dynamic
// callee: a protocol method on a tracked receiver transitions it, an
// unknown method is summarized or protocol-neutral, and anything else
// is a plain call.
func (e *protocols) call(call *ast.CallExpr, recvExpr ast.Expr, recv protoVal, args []protoVal, _ protoVal) (protoVal, []protoVal) {
	if obj := e.live(recv); obj != nil {
		if _, _, isOrigin := e.origin(call); !isOrigin {
			name := calleeExpr(e.a.Info, call).(*ast.SelectorExpr).Sel.Name
			if m, isProtoMethod := e.w.state[obj].proto.Methods[name]; isProtoMethod {
				e.pass(args)
				e.applyMethod(obj, name, call.Pos())
				if m.ErrReleases {
					// err := obj.M(...) where M cleans up after its own
					// failure: the err != nil branch releases obj.
					return protoVal{guard: obj}, nil
				}
				return protoVal{}, nil
			}
			// Unknown method on a tracked value: try a same-package
			// summary over the receiver; otherwise protocol-neutral.
			if fn := Callee(e.a.Info, call); fn != nil {
				e.applySummary(fn, obj, -1)
			}
			return protoVal{}, nil
		}
	}
	return e.plainCall(call, args)
}

func (e *protocols) builtin(call *ast.CallExpr, _ string, args []protoVal) protoVal {
	v, _ := e.plainCall(call, args)
	return v
}

func (e *protocols) conversion(call *ast.CallExpr, _ *types.TypeName, args []protoVal) protoVal {
	v, _ := e.plainCall(call, args)
	return v
}

// plainCall interprets an origin call or a call the protocols do not
// name: tracked arguments follow a same-package summary or their
// protocol's EscapeOnPass rule, and terminators end the path.
func (e *protocols) plainCall(call *ast.CallExpr, args []protoVal) (protoVal, []protoVal) {
	if p, idx, isOrigin := e.origin(call); isOrigin {
		e.pass(args)
		o := &protoOrigin{proto: p, pos: call.Pos()}
		n := resultArity(e.a.Info, call)
		if n <= 1 {
			return protoVal{origin: o}, nil
		}
		per := make([]protoVal, n)
		for i := range per {
			per[i] = protoVal{errOf: o}
		}
		if idx < n {
			per[idx] = protoVal{origin: o}
		}
		return protoVal{}, per
	}
	fn := Callee(e.a.Info, call)
	for i, a := range args {
		obj := e.live(a)
		if obj == nil || (fn != nil && e.applySummary(fn, obj, i)) {
			continue
		}
		if e.w.state[obj].proto.EscapeOnPass {
			e.escape(obj)
		}
	}
	// Terminators: a path that panics or exits owes no completion.
	if isTerminatorCall(e.a.Info, call) {
		e.w.dead = true
	}
	return protoVal{}, nil
}

// pass hands arguments to a call that is not summarized: a bare
// tracked value escapes only when its protocol says passing hands off
// responsibility.
func (e *protocols) pass(args []protoVal) {
	for _, a := range args {
		e.handOff(a)
	}
}

func (e *protocols) handOff(a protoVal) {
	if obj := e.live(a); obj != nil && e.w.state[obj].proto.EscapeOnPass {
		e.escape(obj)
	}
}

// origin wraps the analyzer hook.
func (e *protocols) origin(call *ast.CallExpr) (*Proto, int, bool) {
	if e.a.Origin == nil {
		return nil, 0, false
	}
	return e.a.Origin(call)
}

// refine is the error guard: on the path where the error vouching for
// a tracked value is non-nil, the value is nil and owes nothing.
func (e *protocols) refine(cond ast.Expr, truth bool) {
	if guarded, neq := e.nilGuard(cond); guarded != nil && neq == truth {
		e.escape(guarded)
	}
}

// loop analyzes a loop body twice (propagating one loop-carried
// transition) and joins with the zero-iteration state; a return inside
// the body leaves only the zero-iteration state falling through.
func (e *protocols) loop(cond ast.Expr, iter func()) {
	e.w.eval(cond)
	pre := maps.Clone(e.w.state)
	for i := 0; i < maxLoopPasses; i++ {
		iter()
		if e.w.dead {
			e.w.dead = false
			e.w.state = maps.Clone(pre)
			return
		}
	}
	e.join(pre)
}

// rangeVars lets the ranged value escape and binds nothing.
func (e *protocols) rangeVars(_ *ast.RangeStmt, x protoVal) (protoVal, protoVal, bool) {
	e.escape(x.obj)
	return protoVal{}, protoVal{}, false
}

// send lets the value escape into the channel.
func (e *protocols) send(_ *ast.SendStmt, v protoVal) { e.escape(v.obj) }

// deferred records a deferred literal or protocol call on a tracked
// value; it runs at every exit of the current frame.
func (e *protocols) deferred(s *ast.DeferStmt) bool {
	call := s.Call
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok && len(call.Args) == 0 {
		f := e.topFrame()
		f.defers = append(f.defers, deferredCall{lit: lit, pos: s.Pos()})
		return true
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if obj := e.live(protoVal{obj: objOf(e.a.Info, sel.X), bare: true}); obj != nil {
			f := e.topFrame()
			f.defers = append(f.defers, deferredCall{obj: obj, method: sel.Sel.Name, pos: s.Pos()})
			for _, a := range call.Args {
				e.handOff(e.w.eval(a))
			}
			return true
		}
	}
	return false
}

// funcLit walks a literal's body inline, sharing the environment (its
// captures observe and drive the same protocol objects), with its own
// defer/created frame so objects born inside it are checked at its end.
func (e *protocols) funcLit(lit *ast.FuncLit) protoVal {
	e.pushFrame()
	dead := e.w.dead
	e.w.dead = false
	e.w.walkFunc(lit)
	e.w.dead = false
	e.exit(lit.Body.End())
	f := e.popFrame()
	// Objects created inside the literal are out of scope now.
	for _, obj := range f.created {
		delete(e.w.state, obj)
	}
	e.w.dead = dead
	return protoVal{}
}

// ret lets returned values escape (the caller takes over their
// obligations), collects a summarized parameter's exit states, and
// checks the function's exit.
func (e *protocols) ret(s *ast.ReturnStmt, vals []protoVal) {
	if len(s.Results) > 0 {
		for _, v := range vals {
			e.escape(v.obj)
		}
	}
	e.collectSeed()
	e.exit(s.Pos())
	e.w.dead = true
}

// collectSeed joins the summarized parameter's state into the summary
// at one exit.
func (e *protocols) collectSeed() {
	if e.seedObj == nil {
		return
	}
	if st, ok := e.w.state[e.seedObj]; ok {
		e.seedOut |= st.states
		if st.escaped {
			e.seedAtRet = true
		}
	}
}

// exit applies the current frame's defers (in reverse) to a copy of the
// state and checks completion obligations on that copy.
func (e *protocols) exit(pos token.Pos) {
	saved := e.w.state
	e.w.state = maps.Clone(saved)
	f := e.topFrame()
	for i := len(f.defers) - 1; i >= 0; i-- {
		d := f.defers[i]
		if d.lit != nil {
			dead := e.w.dead
			e.w.dead = false
			e.w.stmt(d.lit.Body)
			e.w.dead = dead
			continue
		}
		e.applyMethod(d.obj, d.method, d.pos)
	}
	for _, obj := range f.created {
		st, ok := e.w.state[obj]
		if !ok || st.escaped || !st.proto.MustComplete {
			continue
		}
		if st.states&st.proto.Accepting == 0 {
			e.report(pos, st.origin, st.proto,
				st.proto.Name+" value does not reach "+acceptingHint(st.proto)+
					" on this path ("+st.proto.Doc+")")
			// Latch accepting so later exits on joined paths do not
			// repeat the finding for the same object.
			st.states |= st.proto.Accepting
			saved[obj] = st
		}
	}
	e.w.state = saved
}

// acceptingHint names the completing call or, failing that, the
// accepting states, for the must-complete message.
func acceptingHint(p *Proto) string {
	if p.CompleteDoc != "" {
		return p.CompleteDoc
	}
	names := ""
	for _, i := range p.Accepting.states(len(p.States)) {
		if names != "" {
			names += " or "
		}
		names += p.States[i]
	}
	if names == "" {
		return "completion"
	}
	return names
}

// applyMethod transitions obj on a call to method at pos.
func (e *protocols) applyMethod(obj types.Object, method string, pos token.Pos) {
	st, ok := e.w.state[obj]
	if !ok || st.escaped {
		return
	}
	m, ok := st.proto.Methods[method]
	if !ok {
		return
	}
	var next StateSet
	bad := -1
	anyOK := false
	for _, s := range st.states.states(len(st.proto.States)) {
		if m.Next[s] < 0 {
			if bad < 0 {
				bad = s
			}
			continue
		}
		anyOK = true
		next |= SingleState(m.Next[s])
	}
	if bad >= 0 {
		e.report(pos, st.origin, st.proto,
			st.proto.Name+"."+method+" called in state "+quote(st.proto.States[bad])+
				" ("+st.proto.Doc+")")
	}
	if anyOK {
		st.states = next
		e.w.state[obj] = st
	}
	// No legal source state: keep the old state to avoid cascading
	// reports from one mistake.
}

func quote(s string) string { return "\"" + s + "\"" }

// applySummary applies the memoized (callee, param, state) summary when
// the callee has a same-package body; it reports violations found
// inside the callee once, at their own positions.
func (e *protocols) applySummary(fn *types.Func, obj types.Object, param int) bool {
	if e.a.Decl == nil {
		return false
	}
	decl := e.a.Decl(fn)
	if decl == nil || decl.Body == nil {
		return false
	}
	st := e.w.state[obj]
	var out StateSet
	escaped := false
	for _, s := range st.states.states(len(st.proto.States)) {
		sv := e.summarize(fn, decl, st.proto, param, s, st.origin)
		out |= sv.out
		escaped = escaped || sv.escaped
	}
	if out.Empty() {
		out = st.states
	}
	st.states = out
	st.escaped = st.escaped || escaped
	e.w.state[obj] = st
	return true
}

// summarize computes (memoized) what the callee does to a value of
// proto arriving in state `in` through parameter `param` (-1 is the
// receiver). Cycles resolve to "escaped", which silences rather than
// reports.
func (e *protocols) summarize(fn *types.Func, decl *ast.FuncDecl, p *Proto, param, in int, origin token.Pos) sumVal {
	key := sumKey{fn: fn, param: param, in: in}
	if sv, ok := e.sums[key]; ok {
		return sv
	}
	if e.running[key] {
		return sumVal{out: SingleState(in), escaped: true}
	}
	e.running[key] = true
	defer delete(e.running, key)

	var seedVar types.Object
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil {
		if param < 0 {
			seedVar = sig.Recv()
		} else if param < sig.Params().Len() {
			seedVar = sig.Params().At(param)
		}
	}
	if seedVar == nil {
		sv := sumVal{out: SingleState(in), escaped: true}
		e.sums[key] = sv
		return sv
	}

	sub := newProtocols(e.a)
	sub.reported = e.reported // shared dedup: callee findings print once
	sub.sums = e.sums
	sub.running = e.running
	sub.w.state[seedVar] = objState{proto: p, states: SingleState(in), origin: origin}
	sub.seedObj = seedVar
	sub.pushFrame()
	sub.w.stmt(decl.Body)
	if !sub.w.dead {
		// Implicit fall-off return.
		sub.collectSeed()
		sub.exit(decl.Body.End())
	}
	out := sub.seedOut
	if out.Empty() {
		out = SingleState(in)
	}
	sv := sumVal{out: out, escaped: sub.seedAtRet}
	e.sums[key] = sv
	return sv
}

// nilGuard recognizes `x != nil` / `x == nil` conditions over an error
// variable that guards a tracked value, returning the tracked object
// and whether the comparison was !=.
func (e *protocols) nilGuard(cond ast.Expr) (types.Object, bool) {
	b, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (b.Op != token.NEQ && b.Op != token.EQL) {
		return nil, false
	}
	operand := b.X
	if id, isNil := ast.Unparen(b.X).(*ast.Ident); isNil && id.Name == "nil" {
		operand = b.Y
	} else if id, isNil := ast.Unparen(b.Y).(*ast.Ident); !isNil || id.Name != "nil" {
		return nil, false
	}
	errObj := objOf(e.a.Info, operand)
	if errObj == nil {
		return nil, false
	}
	tracked := e.errGuard[errObj]
	if tracked == nil {
		return nil, false
	}
	return tracked, b.Op == token.NEQ
}

func isErrorObj(obj types.Object) bool {
	return obj != nil && types.Identical(obj.Type(), types.Universe.Lookup("error").Type())
}

// isGlobalVar reports whether obj is a package-level variable (its
// scope's parent is the universe scope).
func isGlobalVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	p := v.Parent()
	return p != nil && p.Parent() == types.Universe
}

// isTerminatorCall reports calls after which the current path does not
// return normally: panic, os.Exit, log.Fatal*, runtime.Goexit.
func isTerminatorCall(info *types.Info, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := identObj(info, fun).(*types.Builtin); ok && b.Name() == "panic" {
			return true
		}
	case *ast.SelectorExpr:
		fn, _ := identObj(info, fun.Sel).(*types.Func)
		if fn == nil || fn.Pkg() == nil {
			return false
		}
		switch fn.Pkg().Path() {
		case "os":
			return fn.Name() == "Exit"
		case "log":
			return fn.Name() == "Fatal" || fn.Name() == "Fatalf" || fn.Name() == "Fatalln"
		case "runtime":
			return fn.Name() == "Goexit"
		}
	}
	return false
}
