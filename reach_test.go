package ocularone_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllow names the exported objects and fields of internal/ that no
// non-test code of either module uses or writes, yet stay in the
// production tree. Every entry says why. An entry the scan no longer
// reports fails TestReachability, so the table only shrinks.
//
// Names are the package path under internal/, then the declaration:
// "tensor.MatVec", "serve.Hist.QuantileMS" for a method,
// "nn.ExecOpts.Integrity" for a field.
var reachAllow = []struct{ name, reason string }{
	// Helpers that the tests of more than one package share.
	{"dataset.Dataset.Subset", "detect and imgproc tests train and check on small slices of a split"},
	{"imgproc.Image.Fill", "imgproc and pose tests paint flat test frames"},
	{"imgproc.Image.Luma", "dataset, imgproc, scene and thermal tests read frame brightness"},
	{"imgproc.LocalContrastNormalize", "the two-pass reference that detect's LUT front-end oracle compares against"},
	{"models.BuildMonodepth2", "nn plan and batch tests build the network directly at their own sizes"},
	{"models.BuildTRTPose", "nn plan, batch and integrity tests and the root benchmarks build it directly"},
	{"models.BuildYOLOv11", "nn plan and batch tests build the network directly at their own sizes"},
	{"models.BuildYOLOv8", "nn plan, batch and integrity tests and the root benchmarks build it directly"},
	{"nn.Network.ForwardBatch", "the interpreter's batch path: nn batch parity tests and the root benchmarks"},
	{"nn.Network.ForwardQuant", "the interpreter's int8 path: nn quant tests and the root benchmarks"},
	{"rng.Shuffle", "rng tests and detect's reference training order"},
	{"tensor.KernelTierFMA", "tensor tier tests and nn integrity tests pick their drift tolerance by it"},
	{"tensor.KernelTierInt8Cols", "tensor tier tests and the root per-shape int8 benchmarks"},
	{"tensor.MatVec", "tensor tests and the root BenchmarkMatVec"},
	{"tensor.QFromSlice", "tensor int8 oracles and the root per-shape int8 benchmarks"},
	{"tensor.Tensor.Reshape", "tensor tests and the nn plan tests' output checks"},

	// Knobs and features that floor tests pin and an open ROADMAP item
	// decides: made a constant, dropped with their path, or set by a
	// program with a measured reason.
	{"nn.ExecOpts.Integrity", "item 10: the compute-tier ABFT and guard, run by the nn integrity battery"},
	{"nn.IntegrityPolicy.ABFT", "item 10: set through ExecOpts.Integrity by the nn integrity battery"},
	{"nn.IntegrityPolicy.Guard", "item 10: set through ExecOpts.Integrity by the nn integrity battery"},
	{"nn.IntegrityPolicy.MaxAbs", "item 10: set through ExecOpts.Integrity by the nn integrity battery"},
	{"nn.IntegrityPolicy.OnEvent", "item 10: set through ExecOpts.Integrity by the nn integrity battery"},
	{"nn.Plan.Integrity", "item 10: the nn integrity battery reads the ABFT and guard counters"},
	{"nn.Plan.ResetIntegrity", "item 10: the nn integrity battery clears the counters between cases"},
	{"serve.HedgePolicy.BudgetFrac", "every program runs the 0.05 default, but at it TestHedgingUnderStraggler's hedged run sheds more than the unhedged one, so the hedge tests raise it to 0.3"},
	{"serve.Config.LinkRTTms", "the chaos link goldens and FuzzServeConfig pin a non-zero round trip"},
	{"pipeline.Fleet.Outages", "item 7: the pipeline outage tests; one simulator decides it"},
	{"pipeline.Session.Outages", "item 7: the pipeline outage and temporal tests"},
	{"pipeline.Outage.Device", "item 7: written in the Outages the pipeline tests schedule"},
	{"pipeline.Outage.FromMS", "item 7: written in the Outages the pipeline tests schedule"},
	{"pipeline.Outage.ToMS", "item 7: written in the Outages the pipeline tests schedule"},
	{"pipeline.Session.Temporal", "item 7: the pipeline temporal tests"},
	{"pipeline.Session.ArrivalsMS", "item 7: the pipeline open-loop tests"},
	{"pipeline.Session.Batch", "item 7: the pipeline batch and precision tests"},
	{"tensor.ConvSpec.DilationH", "16 dilation subtests of the conv oracles pin dilated convolution"},
	{"tensor.ConvSpec.DilationW", "16 dilation subtests of the conv oracles pin dilated convolution"},
	{"video.Spec.Bicycles", "the paper-corpus fixture of the video tests sets it; the renderer draws them"},
	{"video.Spec.Clutter", "the paper-corpus fixture of the video tests sets it; the renderer draws it"},

	// The thermal camera: a whole feature whose battery is on the test
	// floor (item 9). Its stress curve, which chaos uses, is reached.
	{"thermal.DefaultCamera", "the thermal camera (item 9)"},
	{"thermal.Render", "the thermal camera (item 9)"},
	{"thermal.Image.At", "the thermal camera (item 9)"},
	{"thermal.WarmBodies", "the thermal camera (item 9)"},
	{"thermal.FuseCandidates", "the thermal camera (item 9)"},
}

// TestReachability fails on exported surface of internal/ that only tests
// use. It type-checks the build-filtered non-test files of both modules
// and reports
//   - each exported function, method, constant, variable or type of
//     internal/ with no use outside its own declaration (a method that
//     satisfies some interface counts as used), and
//   - each exported struct field of internal/ that no code writes: a
//     keyed or unkeyed literal, an assignment or ++, &x.f, a nested
//     x.f.g = or x.f[i] =, or a pointer-receiver call x.f.M(). A
//     defaulting store — x.f = v directly inside an if whose condition
//     reads x.f — is not a write.
//
// Any use in non-test code counts, even from code no program runs: it is
// not a call graph walked from the main packages, so an allowlisted or
// otherwise unreached caller keeps what it calls off the report.
//
// What only tests need belongs in a _test.go file. The scan reads the
// files an amd64 build compiles, whatever the host: the assembly forms'
// callers are in _amd64.go files, and CI and the benchmark run there.
func TestReachability(t *testing.T) {
	defer func(arch string) { build.Default.GOARCH = arch }(build.Default.GOARCH)
	build.Default.GOARCH = reachArch // the source importer reads build.Default
	s := &reachScan{
		fset: token.NewFileSet(),
		own:  map[string]*listedPkg{},
		done: map[string]*types.Package{},
		info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	s.std = importer.ForCompiler(s.fset, "source", nil)
	var order []string
	for _, dir := range []string{".", "benchmark"} {
		for _, p := range goList(t, dir) {
			if len(p.GoFiles) > 0 {
				s.own[p.ImportPath] = p
				order = append(order, p.ImportPath)
			}
		}
	}
	for _, path := range order {
		if _, err := s.Import(path); err != nil {
			t.Fatal(err)
		}
	}

	found := map[string]string{}
	for name := range s.unused() {
		found[name] = "exported, and no non-test code uses it"
	}
	for name := range s.unwritten() {
		found[name] = "exported field, and no non-test code writes it"
	}
	allowed := map[string]bool{}
	for _, a := range reachAllow {
		switch {
		case strings.TrimSpace(a.reason) == "":
			t.Errorf("allowlist entry %s gives no reason", a.name)
		case allowed[a.name]:
			t.Errorf("allowlist entry %s is listed twice", a.name)
		case found[a.name] == "":
			t.Errorf("allowlist entry %s is stale: non-test code uses it now, or it is gone; drop the entry", a.name)
		}
		allowed[a.name] = true
	}
	var names []string
	for name := range found {
		if !allowed[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		t.Errorf("%s: %s; delete it, move it into a _test.go file, or allowlist it with a reason", name, found[name])
	}
}

const reachArch = "amd64"

type listedPkg struct {
	ImportPath, Dir string
	GoFiles         []string
	Error           *struct{ Err string }
}

// goList lists the packages of the module rooted at dir.
func goList(t *testing.T, dir string) []*listedPkg {
	cmd := exec.Command("go", "list", "-e", "-json=ImportPath,Dir,GoFiles,Error", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOARCH="+reachArch)
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	var pkgs []*listedPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listedPkg)
		if err := dec.Decode(p); err != nil {
			t.Fatalf("go list in %s: %v", dir, err)
		}
		if p.Error != nil && len(p.GoFiles) > 0 {
			t.Fatalf("go list in %s: %s", dir, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// reachScan type-checks the listed packages, each once and after its
// imports, into one shared types.Info; the standard library comes from
// source.
type reachScan struct {
	fset  *token.FileSet
	std   types.Importer
	own   map[string]*listedPkg
	done  map[string]*types.Package
	files []*ast.File
	info  *types.Info
}

func (s *reachScan) Import(path string) (*types.Package, error) {
	if pkg, ok := s.done[path]; ok {
		return pkg, nil
	}
	lp, ok := s.own[path]
	if !ok {
		return s.std.Import(path)
	}
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(s.fset, filepath.Join(lp.Dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: s}
	pkg, err := conf.Check(path, s.fset, files, s.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %v", path, err)
	}
	s.done[path] = pkg
	s.files = append(s.files, files...)
	return pkg, nil
}

// reachName is the allowlist's name of an object declared in internal/,
// or "" for one declared elsewhere.
func reachName(obj types.Object, parts ...string) string {
	if obj.Pkg() == nil {
		return ""
	}
	pkg, ok := strings.CutPrefix(obj.Pkg().Path(), "ocularone/internal/")
	if !ok {
		return ""
	}
	return strings.Join(append([]string{pkg}, parts...), ".")
}

// origin maps an instantiated generic function or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// unused returns the exported package-level objects and methods of
// internal/ that nothing uses outside their own declaration.
func (s *reachScan) unused() map[string]bool {
	type span struct{ from, to token.Pos }
	decls := map[types.Object][]span{}
	named := map[types.Object]string{}
	ifaces := s.interfaces()
	for _, f := range s.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				obj := s.info.Defs[d.Name]
				decls[obj] = append(decls[obj], span{d.Pos(), d.End()})
				if d.Recv == nil {
					named[obj] = reachName(obj, d.Name.Name)
					continue
				}
				recv := s.info.Types[d.Recv.List[0].Type].Type
				if p, ok := recv.(*types.Pointer); ok {
					recv = p.Elem()
				}
				tn := recv.(*types.Named).Obj()
				decls[tn] = append(decls[tn], span{d.Recv.Pos(), d.Recv.End()})
				if !satisfiesInterface(ifaces, recv.(*types.Named), d.Name.Name) {
					named[obj] = reachName(obj, tn.Name(), d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					var ids []*ast.Ident
					switch sp := spec.(type) {
					case *ast.ValueSpec:
						ids = sp.Names
					case *ast.TypeSpec:
						ids = []*ast.Ident{sp.Name}
					}
					for _, id := range ids {
						obj := s.info.Defs[id]
						decls[obj] = append(decls[obj], span{spec.Pos(), spec.End()})
						named[obj] = reachName(obj, id.Name)
					}
				}
			}
		}
	}
	used := map[types.Object]bool{}
	for id, obj := range s.info.Uses {
		obj = origin(obj)
		inside := false
		for _, sp := range decls[obj] {
			inside = inside || sp.from <= id.Pos() && id.Pos() < sp.to
		}
		used[obj] = used[obj] || !inside
	}
	out := map[string]bool{}
	for obj, name := range named {
		if name != "" && obj.Exported() && !used[obj] {
			out[name] = true
		}
	}
	return out
}

// satisfiesInterface reports whether the method name of t (or *t) is part
// of one of ifaces that t or *t implements: such a method is reached
// through the interface, and no selector names it.
func satisfiesInterface(ifaces []*types.Interface, t *types.Named, name string) bool {
	if t.TypeParams().Len() > 0 {
		return false
	}
	for _, iface := range ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == name &&
				(types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)) {
				return true
			}
		}
	}
	return false
}

// interfaces returns every interface type of the checked code and of the
// scopes of the packages it imports, the universe's error among them.
func (s *reachScan) interfaces() []*types.Interface {
	var ifaces []*types.Interface
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	for _, tv := range s.info.Types {
		if tv.Type != nil {
			add(tv.Type)
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, n := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(n).(*types.TypeName); ok && tn.Exported() {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range s.done {
		walk(p)
	}
	return ifaces
}

// unwritten returns the exported fields of the named struct types of
// internal/ that no code writes. A defaulting store, such as
// "if c.Window <= 0 { c.Window = 64 }" or "if c.Mix == nil { c.Mix =
// defaultMix() }", is not a write: it only fills in a knob that nothing
// set.
func (s *reachScan) unwritten() map[string]bool {
	fields := map[types.Object]string{}
	var collect func(st *ast.StructType, prefix []string)
	collect = func(st *ast.StructType, prefix []string) {
		for _, fd := range st.Fields.List {
			for _, id := range fd.Names {
				obj := s.info.Defs[id]
				if name := reachName(obj, append(prefix, id.Name)...); name != "" && id.IsExported() {
					fields[obj] = name
				}
				if inner, ok := fd.Type.(*ast.StructType); ok {
					collect(inner, append(prefix, id.Name))
				}
			}
		}
	}
	for _, f := range s.files {
		ast.Inspect(f, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok {
				if st, ok := ts.Type.(*ast.StructType); ok {
					collect(st, []string{ts.Name.Name})
				}
			}
			return true
		})
	}

	written := map[types.Object]bool{}
	path := func(sel *types.Selection, upto int) {
		t := sel.Recv()
		for _, i := range sel.Index()[:upto] {
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem()
			}
			f := t.Underlying().(*types.Struct).Field(i)
			written[f.Origin()] = true
			t = f.Type()
		}
	}
	// chain marks every field selected on the way down to the operand
	// that e writes.
	chain := func(e ast.Expr) {
		for e != nil {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				sel := s.info.Selections[x]
				if sel == nil || sel.Kind() != types.FieldVal {
					return
				}
				path(sel, len(sel.Index()))
				e = x.X
			default:
				return
			}
		}
	}
	for _, f := range s.files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			switch x := n.(type) {
			case *ast.CompositeLit:
				t := s.info.Types[x].Type
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				st, ok := t.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, el := range x.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						written[origin(s.info.Uses[kv.Key.(*ast.Ident)])] = true
					} else {
						written[st.Field(i).Origin()] = true
					}
				}
			case *ast.AssignStmt:
				if s.guardedDefault(x, stack) {
					break
				}
				for _, lhs := range x.Lhs {
					chain(lhs)
				}
			case *ast.IncDecStmt:
				chain(x.X)
			case *ast.RangeStmt:
				if x.Tok == token.ASSIGN {
					chain(x.Key)
					chain(x.Value)
				}
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					chain(x.X)
				}
			case *ast.CallExpr:
				fun, ok := x.Fun.(*ast.SelectorExpr)
				sel := s.info.Selections[fun]
				if !ok || sel == nil || sel.Kind() != types.MethodVal {
					break
				}
				if _, ptr := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
					path(sel, len(sel.Index())-1)
					chain(fun.X)
				}
			}
			return true
		})
	}
	out := map[string]bool{}
	for obj, name := range fields {
		if !written[obj] {
			out[name] = true
		}
	}
	return out
}

// guardedDefault reports whether as, the innermost statement of stack,
// is a defaulting store: x.f = v directly inside an if whose condition
// reads the same field x.f, whatever v is (a constant, a variable or a
// call), as long as v reads neither x.f nor a variable the condition
// compares x.f with. A running extreme, "if d > x.f { x.f = d }", is a
// write.
func (s *reachScan) guardedDefault(as *ast.AssignStmt, stack []ast.Node) bool {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 || as.Tok != token.ASSIGN {
		return false
	}
	lhs, ok := as.Lhs[0].(*ast.SelectorExpr)
	if !ok || s.info.Selections[lhs] == nil || s.info.Selections[lhs].Kind() != types.FieldVal {
		return false
	}
	if len(stack) < 3 {
		return false
	}
	ifs, ok := stack[len(stack)-3].(*ast.IfStmt)
	if !ok || ifs.Body != stack[len(stack)-2] {
		return false
	}
	field, reads := s.info.Selections[lhs].Obj(), false
	path := map[types.Object]bool{}
	ast.Inspect(lhs, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			path[s.info.Uses[id]] = true
		}
		return true
	})
	others := map[types.Object]bool{field: true}
	ast.Inspect(ifs.Cond, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if s.info.Selections[x] != nil && s.info.Selections[x].Obj() == field && types.ExprString(x.X) == types.ExprString(lhs.X) {
				reads = true
			}
		case *ast.Ident:
			if v, ok := s.info.Uses[x].(*types.Var); ok && !path[v] {
				others[v] = true
			}
		}
		return true
	})
	ast.Inspect(as.Rhs[0], func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && others[s.info.Uses[id]] {
			reads = false
		}
		return reads
	})
	return reads
}
