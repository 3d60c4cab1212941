package drsnet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported declarations under internal/ that
// no non-test code uses but that tests need, each with the reason it
// stays. Keys are the names the gate prints.
var exportAllowlist = map[string]string{
	"drsnet/internal/invariant.Report.Err":           "the failover tests assert a clean report with one call",
	"drsnet/internal/linkmon.Table.Seq":              "core's TestProbeSeqWraparound reads the probe sequence across the wrap",
	"drsnet/internal/linkmon.Table.SetSeq":           "linkmon's and core's sequence-wrap tests start next to the wrap",
	"drsnet/internal/routetable.Table.SeenSize":      "the routetable and core tests bound the duplicate-suppression cache",
	"drsnet/internal/runtime.Deregister":             "the registry tests remove the protocols they register",
	"drsnet/internal/survival.AllPairsSeriesWorkers": "BenchmarkAllPairsAnalytic times the all-pairs curve; TestAllPairsSeries and TestSeriesWorkersBitIdentical check it",
	"drsnet/internal/trace.Log.Filter":               "core, runtime and trace tests count events of one kind",
	"drsnet/internal/trace.Log.First":                "core's pair-probe tests and the trace tests find a node's first event of a kind",
	"drsnet/internal/transport.Faults.SetSpec":       "the Faults impairment tests; removing it and its draws changes bench/, which waits for the benchmark's next change",
}

// TestNoExportWithoutCaller states "every export has a caller" as a
// test: an exported function, method, type, constant or variable
// declared in a non-test file under internal/ must be referenced by
// some non-test file outside its own declaration — in any package of
// the module, binaries, examples and bench/ included. Methods that
// satisfy an interface declaring them are exempt, since their callers
// go through the interface.
func TestNoExportWithoutCaller(t *testing.T) {
	used, err := exportUses(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range gateExports(used, exportAllowlist) {
		t.Error(msg)
	}
}

// TestExportGateFixture runs the gate over a small module whose
// outcome is known.
func TestExportGateFixture(t *testing.T) {
	used, err := exportUses("testdata/exportgate")
	if err != nil {
		t.Fatal(err)
	}
	const lib = "fixture/internal/lib."
	got := gateExports(used, nil)
	if len(got) != 1 || !strings.HasPrefix(got[0], lib+"Unused ") {
		t.Fatalf("gate reports %q, want only %sUnused", got, lib)
	}
	for _, name := range []string{"Used", "Kind", "Kind.String", "Map", "Box", "Box.Get"} {
		if ok, found := used[lib+name]; !found || !ok {
			t.Errorf("%s%s: declared %v, used %v; want both", lib, name, found, ok)
		}
	}
	for _, c := range []struct {
		allow map[string]string
		want  string
	}{
		{map[string]string{lib + "Unused": "only tests call it"}, ""},
		{map[string]string{lib + "Unused": ""}, "has no reason"},
		{map[string]string{lib + "Unused": "x", lib + "Used": "x"}, "now uses"},
		{map[string]string{lib + "Unused": "x", lib + "Gone": "x"}, "not an exported declaration"},
	} {
		got := strings.Join(gateExports(used, c.allow), "\n")
		if (c.want == "") != (got == "") || !strings.Contains(got, c.want) {
			t.Errorf("allowlist %v: gate reports %q, want %q", c.allow, got, c.want)
		}
	}
}

// gateExports returns one message per unused declaration the allowlist
// does not excuse, and one per allowlist entry that is stale: it names
// no gated declaration, one that non-test code uses, or has no reason.
func gateExports(used map[string]bool, allow map[string]string) []string {
	var msgs []string
	for name, ok := range used {
		if _, listed := allow[name]; !ok && !listed {
			msgs = append(msgs, name+" is exported but no non-test code uses it: delete it, or move it into a _test.go file")
		}
	}
	for name, reason := range allow {
		ok, found := used[name]
		switch {
		case !found:
			msgs = append(msgs, "allowlist names "+name+", which is not an exported declaration under internal/")
		case ok:
			msgs = append(msgs, "allowlist names "+name+", which non-test code now uses: drop the entry")
		case reason == "":
			msgs = append(msgs, "allowlist entry "+name+" has no reason")
		}
	}
	sort.Strings(msgs)
	return msgs
}

// exportUses type-checks the non-test files of the module rooted at
// dir and maps every exported declaration under an internal/ directory
// ("path.Name", or "path.Type.Method" for methods) to whether non-test
// code outside that declaration refers to it. A method's receiver does
// not count as a reference to its type. A method counts as used when
// a type in the module that has it implements an interface declaring
// it, since callers reach it through the interface.
func exportUses(dir string) (map[string]bool, error) {
	pkgs, err := loadModule(dir)
	if err != nil {
		return nil, err
	}
	type decl struct {
		name       string
		start, end token.Pos
	}
	decls := map[types.Object]*decl{}
	receivers := map[token.Pos]bool{} // receiver-type identifiers
	used := map[string]bool{}
	var methods []*types.Func
	for _, p := range pkgs {
		gated := strings.Contains("/"+p.types.Path()+"/", "/internal/")
		add := func(id *ast.Ident, name string, node ast.Node) {
			if gated && id.IsExported() {
				name = p.types.Path() + "." + name
				decls[p.info.Defs[id]] = &decl{name, node.Pos(), node.End()}
				used[name] = false
			}
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						add(d.Name, d.Name.Name, d)
						continue
					}
					ast.Inspect(d.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							receivers[id.Pos()] = true
						}
						return true
					})
					fn := p.info.Defs[d.Name].(*types.Func)
					add(d.Name, receiverName(fn)+"."+d.Name.Name, d)
					if gated && d.Name.IsExported() {
						methods = append(methods, fn)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(s.Name, s.Name.Name, s)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(id, id.Name, s)
							}
						}
					}
				}
			}
		}
	}
	for _, p := range pkgs {
		for id, obj := range p.info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			d := decls[obj]
			if d == nil || receivers[id.Pos()] || (d.start <= id.Pos() && id.Pos() < d.end) {
				continue
			}
			used[d.name] = true
		}
	}
	ifaces, named := collectTypes(pkgs)
	for _, m := range methods {
		if d := decls[m]; !used[d.name] && satisfies(m, ifaces, named) {
			used[d.name] = true
		}
	}
	return used, nil
}

// receiverName is the name of a method's receiver base type.
func receiverName(fn *types.Func) string {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj().Name()
}

// collectTypes returns every non-generic interface with methods that
// the module or a standard-library package it loads declares, error
// included; and every other non-generic named type the module
// declares.
func collectTypes(pkgs []*loadedPackage) (ifaces []*types.Interface, named []*types.Named) {
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	module := map[*types.Package]bool{}
	for _, p := range pkgs {
		module[p.types] = true
	}
	addNamed := func(tn *types.TypeName) {
		n, ok := tn.Type().(*types.Named)
		if !ok || tn.IsAlias() || n.TypeParams().Len() > 0 {
			return
		}
		if it, ok := n.Underlying().(*types.Interface); !ok {
			if module[tn.Pkg()] {
				named = append(named, n)
			}
		} else if it.NumMethods() > 0 && it.IsMethodSet() {
			ifaces = append(ifaces, it)
		}
	}
	seen := map[*types.Package]bool{}
	var walkStd func(*types.Package)
	walkStd = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				addNamed(tn)
			}
		}
		for _, imp := range pkg.Imports() {
			walkStd(imp)
		}
	}
	for _, p := range pkgs {
		for _, obj := range p.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				addNamed(tn)
			}
		}
		for _, imp := range p.types.Imports() {
			if !module[imp] {
				walkStd(imp)
			}
		}
	}
	return ifaces, named
}

// satisfies reports whether a type in the module whose method set
// holds m — m's receiver type, or one that embeds it — implements an
// interface that declares a method named like m.
func satisfies(m *types.Func, ifaces []*types.Interface, named []*types.Named) bool {
	for _, n := range named {
		ptr := types.NewPointer(n)
		if obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); obj != m {
			continue
		}
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == m.Name() && types.Implements(ptr, it) {
					return true
				}
			}
		}
	}
	return false
}

type loadedPackage struct {
	types *types.Package
	files []*ast.File
	info  *types.Info
}

// loadModule lists the packages of the module rooted at dir and
// type-checks their non-test files, dependencies first. Imports from
// outside the module resolve through the compiler's export data.
func loadModule(dir string) ([]*loadedPackage, error) {
	cmd := exec.Command("go", "list", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v: %s", err, stderr.Bytes())
	}
	type listed struct {
		ImportPath string
		Dir        string
		GoFiles    []string
		Imports    []string
	}
	byPath := map[string]*listed{}
	var order []string
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listed)
		if err := dec.Decode(p); err != nil {
			return nil, err
		}
		byPath[p.ImportPath] = p
		order = append(order, p.ImportPath)
	}
	fset := token.NewFileSet()
	std := importer.Default()
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if pkg := checked[path]; pkg != nil {
			return pkg, nil
		}
		return std.Import(path)
	})}
	var pkgs []*loadedPackage
	var check func(string) error
	check = func(path string) error {
		p := byPath[path]
		if p == nil || checked[path] != nil {
			return nil
		}
		for _, imp := range p.Imports {
			if err := check(imp); err != nil {
				return err
			}
		}
		lp := &loadedPackage{info: &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		}}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, p.Dir+"/"+name, nil, 0)
			if err != nil {
				return err
			}
			lp.files = append(lp.files, f)
		}
		pkg, err := conf.Check(path, fset, lp.files, lp.info)
		if err != nil {
			return err
		}
		lp.types = pkg
		checked[path] = pkg
		pkgs = append(pkgs, lp)
		return nil
	}
	for _, path := range order {
		if err := check(path); err != nil {
			return nil, err
		}
	}
	return pkgs, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
