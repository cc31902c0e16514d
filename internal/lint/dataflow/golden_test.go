package dataflow_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint/dataflow"
	"repro/internal/lint/loader"
)

// The golden digests pin the complete output of the three engines —
// every recorded expression value, the final object state and the
// return sites of Run and RunIntervals, and every RunProto violation —
// over every function body of the analysistest fixture packages and of
// the sources embedded in this package's unit tests. The fixtures only
// check the diagnostics analyzers derive from that output; the digests
// check the output itself, so an engine refactor that shifts a single
// interval bound or taint description anywhere shows up here.
const (
	goldenTaint    = "f901e4ff876bd85760c1a1df42296076eec4d988d2f753e3152134916f4127ce"
	goldenInterval = "9105c6e112bb38a09f391d0299c8c352a23e0aeea9e12793dc594460012dcf6e"
	goldenProto    = "cf725f0f47f0ee84811886970c5ef4ead3298bb30b52204c7d81bd28564ea794"
)

var goldenDump = flag.String("golden.dump", "", "write the engine outputs behind the golden digests to this directory")

// goldenPkg is one type-checked corpus package.
type goldenPkg struct {
	name  string // corpus-relative label used in every key
	files []*ast.File
	info  *types.Info
}

func TestEngineGoldenDigest(t *testing.T) {
	fset := token.NewFileSet()
	pkgs := append(fixturePackages(t, fset), unitTestSources(t, fset)...)
	if len(pkgs) < 20 {
		t.Fatalf("golden corpus has only %d packages", len(pkgs))
	}
	var taint, iv, proto []string
	synth := &synthProtos{byType: make(map[*types.TypeName]*dataflow.Proto)}
	for _, p := range pkgs {
		d := &digester{fset: fset}
		decls := make(map[*types.Func]*ast.FuncDecl)
		for _, f := range p.files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					if fn, ok := p.info.Defs[fd.Name].(*types.Func); ok {
						decls[fn] = fd
					}
				}
			}
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fnKey := d.pos(fd.Pos()) + " " + fd.Name.Name
				taint = append(taint, d.taint(fnKey, p.info, fd, nil)...)
				taint = append(taint, d.taint(fnKey+" seeded", p.info, fd, taintSeed(p.info, fd))...)
				iv = append(iv, d.intervals(fnKey, p.info, fd, nil)...)
				iv = append(iv, d.intervals(fnKey+" seeded", p.info, fd, intervalSeed(p.info, fd))...)
				proto = append(proto, d.proto(fnKey, p.info, fd, decls, testOrigin)...)
				proto = append(proto, d.proto(fnKey+" synthetic", p.info, fd, decls, synth.origin(p.info))...)
			}
		}
	}
	for _, c := range []struct {
		name  string
		lines []string
		want  string
	}{
		{"taint", taint, goldenTaint},
		{"interval", iv, goldenInterval},
		{"proto", proto, goldenProto},
	} {
		text := strings.Join(c.lines, "\n") + "\n"
		if *goldenDump != "" {
			if err := os.WriteFile(filepath.Join(*goldenDump, c.name+".txt"), []byte(text), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(text))); got != c.want {
			t.Errorf("%s engine digest = %s, want %s (%d lines; -golden.dump=DIR writes them)", c.name, got, c.want, len(c.lines))
		}
	}
}

// taintSeed marks every parameter and the receiver as caller-seeded,
// the way summary computation probes parameter-to-result flow.
func taintSeed(info *types.Info, fd *ast.FuncDecl) map[*types.Var]dataflow.Taint {
	seed := make(map[*types.Var]dataflow.Taint)
	for _, v := range paramVars(info, fd) {
		seed[v] = dataflow.Taint{Param: true}
	}
	return seed
}

// intervalSeed gives every numeric parameter the contract [0, 100].
func intervalSeed(info *types.Info, fd *ast.FuncDecl) map[*types.Var]dataflow.Interval {
	seed := make(map[*types.Var]dataflow.Interval)
	for _, v := range paramVars(info, fd) {
		if b, ok := v.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsNumeric != 0 {
			seed[v] = dataflow.Interval{Lo: 0, Hi: 100}
		}
	}
	return seed
}

func paramVars(info *types.Info, fd *ast.FuncDecl) []*types.Var {
	var out []*types.Var
	for _, fl := range []*ast.FieldList{fd.Recv, fd.Type.Params} {
		if fl == nil {
			continue
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if v, ok := info.Defs[name].(*types.Var); ok {
					out = append(out, v)
				}
			}
		}
	}
	return out
}

// digester renders engine outputs as sorted, position-keyed lines.
type digester struct {
	fset *token.FileSet
}

// pos renders p as corpus-relative file:line:col (positions outside
// the corpus, in the standard library, keep only their base name).
func (d *digester) pos(p token.Pos) string {
	if !p.IsValid() {
		return "-"
	}
	pp := d.fset.Position(p)
	name := pp.Filename
	if !strings.HasPrefix(name, "corpus/") {
		name = filepath.Base(name)
	}
	return fmt.Sprintf("%s:%d:%d", name, pp.Line, pp.Column)
}

func (d *digester) exprKey(x ast.Expr) string {
	return fmt.Sprintf("%s-%s %T", d.pos(x.Pos()), d.pos(x.End()), x)
}

func (d *digester) objKey(o types.Object) string {
	return fmt.Sprintf("%T %s@%s", o, o.Name(), d.pos(o.Pos()))
}

func sorted(prefix string, lines []string) []string {
	sort.Strings(lines)
	for i, l := range lines {
		lines[i] = prefix + " " + l
	}
	return lines
}

func fmtTaint(t dataflow.Taint) string {
	return strconv.Quote(t.Desc) + "/" + strconv.FormatBool(t.Param)
}

func (d *digester) taint(fnKey string, info *types.Info, fd *ast.FuncDecl, seed map[*types.Var]dataflow.Taint) []string {
	res := dataflow.Run(fd.Type, fd.Body, &dataflow.Analysis{
		Info: info, Fset: d.fset, Call: testTaintCall,
		TaintMapRange: true, TaintSelect: true, Seed: seed,
	})
	var lines []string
	for x, t := range res.Expr {
		lines = append(lines, "expr "+d.exprKey(x)+" = "+fmtTaint(t))
	}
	for o, t := range res.Objects {
		lines = append(lines, "obj "+d.objKey(o)+" = "+fmtTaint(t))
	}
	for i, r := range res.Returns {
		ts := make([]string, len(r.Taints))
		for j, t := range r.Taints {
			ts[j] = fmtTaint(t)
		}
		lines = append(lines, fmt.Sprintf("ret %03d %s = %s", i, d.pos(r.Pos), strings.Join(ts, ",")))
	}
	return sorted(fnKey, lines)
}

func (d *digester) intervals(fnKey string, info *types.Info, fd *ast.FuncDecl, seed map[*types.Var]dataflow.Interval) []string {
	res := dataflow.RunIntervals(fd.Type, fd.Body, &dataflow.IntervalAnalysis{
		Info: info, Fset: d.fset, Call: testIntervalCall, Seed: seed,
	})
	var lines []string
	for x, v := range res.Expr {
		lines = append(lines, "expr "+d.exprKey(x)+" = "+v.String())
	}
	for o, v := range res.Objects {
		lines = append(lines, "obj "+d.objKey(o)+" = "+v.String())
	}
	for i, r := range res.Returns {
		vs := make([]string, len(r.Results))
		for j, v := range r.Results {
			vs[j] = v.String()
		}
		lines = append(lines, fmt.Sprintf("ret %03d %s = %s", i, d.pos(r.Pos), strings.Join(vs, ",")))
	}
	return sorted(fnKey, lines)
}

func (d *digester) proto(fnKey string, info *types.Info, fd *ast.FuncDecl, decls map[*types.Func]*ast.FuncDecl,
	origin func(*ast.CallExpr) (*dataflow.Proto, int, bool)) []string {
	var lines []string
	dataflow.RunProto(fd.Body, &dataflow.StateAnalysis{
		Info: info, Fset: d.fset, Origin: origin,
		Decl: func(fn *types.Func) *ast.FuncDecl { return decls[fn] },
		Report: func(v dataflow.ProtoViolation) {
			lines = append(lines, fmt.Sprintf("violation %s origin %s %s: %s", d.pos(v.Pos), d.pos(v.Origin), v.Proto.Name, v.Msg))
		},
	})
	return sorted(fnKey, lines)
}

// synthProtos gives the typestate engine something to track in code
// the unit tests' Origin hook does not recognize: every call whose
// result is a named type with methods (or a pointer to one) creates a
// value of a protocol derived from that type's method set. The methods,
// in name order, cycle through three transition shapes (a Begin-like
// opener, an End-like closer and a Tick-like step), so walks over the
// fixtures exercise transitions, violations, must-complete exits,
// escapes, error guards and summaries.
type synthProtos struct {
	byType map[*types.TypeName]*dataflow.Proto
}

func (s *synthProtos) origin(info *types.Info) func(*ast.CallExpr) (*dataflow.Proto, int, bool) {
	return func(call *ast.CallExpr) (*dataflow.Proto, int, bool) {
		tv, ok := info.Types[call]
		if !ok || tv.Type == nil || tv.IsType() {
			return nil, 0, false
		}
		results := []types.Type{tv.Type}
		if tup, ok := tv.Type.(*types.Tuple); ok {
			results = results[:0]
			for i := 0; i < tup.Len(); i++ {
				results = append(results, tup.At(i).Type())
			}
		}
		for i, r := range results {
			if p := s.protoFor(r); p != nil {
				return p, i, true
			}
		}
		return nil, 0, false
	}
}

func (s *synthProtos) protoFor(t types.Type) *dataflow.Proto {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.NumMethods() == 0 || named.Obj().Pkg() == nil {
		return nil
	}
	tn := named.Obj()
	if p, ok := s.byType[tn]; ok {
		return p
	}
	var names []string
	for i := 0; i < named.NumMethods(); i++ {
		names = append(names, named.Method(i).Name())
	}
	sort.Strings(names)
	p := &dataflow.Proto{
		Name:         tn.Pkg().Name() + "." + tn.Name(),
		Doc:          "synthetic protocol",
		States:       []string{"fresh", "open", "done"},
		Methods:      make(map[string]dataflow.ProtoMethod),
		Accepting:    dataflow.SingleState(0) | dataflow.SingleState(2),
		MustComplete: len(names)%2 == 1,
		EscapeOnPass: len(tn.Name())%2 == 0,
	}
	for i, n := range names {
		switch i % 3 {
		case 0:
			p.Methods[n] = dataflow.ProtoMethod{Next: []int{1, -1, -1}, ErrReleases: true}
		case 1:
			p.Methods[n] = dataflow.ProtoMethod{Next: []int{2, 2, -1}}
		case 2:
			p.Methods[n] = dataflow.ProtoMethod{Next: []int{-1, 1, 2}}
		}
	}
	s.byType[tn] = p
	return p
}

// fixturePackages type-checks every package under the analysistest
// fixture tree, resolving imports against the tree first and the
// standard library second, the way analysistest loads them.
func fixturePackages(t *testing.T, fset *token.FileSet) []goldenPkg {
	root, err := filepath.Abs(filepath.Join("..", "testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	ld := &corpusLoader{root: root, fset: fset, std: importer.ForCompiler(fset, "gc", nil), loaded: make(map[string]*goldenPkg)}
	var paths []string
	err = filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		if m, _ := filepath.Glob(filepath.Join(path, "*.go")); len(m) > 0 {
			rel, _ := filepath.Rel(root, path)
			paths = append(paths, filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []goldenPkg
	for _, p := range paths {
		gp, err := ld.load(p)
		if err != nil {
			t.Fatalf("fixture %s: %v", p, err)
		}
		out = append(out, *gp)
	}
	return out
}

type corpusLoader struct {
	root   string
	fset   *token.FileSet
	std    types.Importer
	loaded map[string]*goldenPkg
	tpkgs  map[string]*types.Package
}

func (ld *corpusLoader) Import(path string) (*types.Package, error) {
	if st, err := os.Stat(filepath.Join(ld.root, path)); err == nil && st.IsDir() {
		if _, err := ld.load(path); err != nil {
			return nil, err
		}
		return ld.tpkgs[path], nil
	}
	return ld.std.Import(path)
}

func (ld *corpusLoader) load(path string) (*goldenPkg, error) {
	if p, ok := ld.loaded[path]; ok {
		return p, nil
	}
	dir := filepath.Join(ld.root, path)
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	var files []*ast.File
	for _, n := range names {
		src, err := os.ReadFile(n)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(ld.fset, "corpus/"+path+"/"+filepath.Base(n), src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := loader.NewInfo()
	tpkg, err := (&types.Config{Importer: ld}).Check(path, ld.fset, files, info)
	if err != nil {
		return nil, err
	}
	if ld.tpkgs == nil {
		ld.tpkgs = make(map[string]*types.Package)
	}
	ld.tpkgs[path] = tpkg
	gp := &goldenPkg{name: path, files: files, info: info}
	ld.loaded[path] = gp
	return gp, nil
}

// unitTestSources extracts every source the unit tests hand to
// analyze, analyzeIv and runProto (a prelude constant joined with a
// raw string), and type-checks each as its own package.
func unitTestSources(t *testing.T, fset *token.FileSet) []goldenPkg {
	consts := make(map[string]ast.Expr)
	var calls []*ast.CallExpr
	tfset := token.NewFileSet()
	for _, name := range []string{"dataflow_test.go", "interval_test.go", "states_test.go"} {
		f, err := parser.ParseFile(tfset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ValueSpec:
				for i, id := range n.Names {
					if i < len(n.Values) {
						consts[id.Name] = n.Values[i]
					}
				}
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && len(n.Args) == 2 &&
					(id.Name == "analyze" || id.Name == "analyzeIv" || id.Name == "runProto") {
					calls = append(calls, n)
				}
			}
			return true
		})
	}
	var eval func(x ast.Expr) string
	eval = func(x ast.Expr) string {
		switch x := x.(type) {
		case *ast.BasicLit:
			s, err := strconv.Unquote(x.Value)
			if err != nil {
				t.Fatal(err)
			}
			return s
		case *ast.Ident:
			v, ok := consts[x.Name]
			if !ok {
				t.Fatalf("unit test source uses unknown constant %s", x.Name)
			}
			return eval(v)
		case *ast.BinaryExpr:
			return eval(x.X) + eval(x.Y)
		case *ast.ParenExpr:
			return eval(x.X)
		}
		t.Fatalf("unit test source is not a constant string: %T", x)
		return ""
	}
	var out []goldenPkg
	for i, call := range calls {
		name := fmt.Sprintf("corpus/unit%03d/src.go", i)
		f, err := parser.ParseFile(fset, name, eval(call.Args[1]), parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		info := loader.NewInfo()
		conf := types.Config{Importer: importer.ForCompiler(fset, "gc", nil)}
		if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, goldenPkg{name: name, files: []*ast.File{f}, info: info})
	}
	return out
}
