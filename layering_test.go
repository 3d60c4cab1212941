package drsnet

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestProtocolStackImportsNoSimulator states the layering as a test:
// everything a live daemon's protocol stack is made of — the seams,
// the codecs, the mechanism layers and the protocols themselves — must
// compile without the simulator, its fault injectors or the harnesses
// built on them. The simulator's adapters for the seams live on the
// simulator's side (netsim.Transport, simtime.Clock). Test files are
// exempt: protocol tests run on the simulator.
func TestProtocolStackImportsNoSimulator(t *testing.T) {
	stack := []string{
		"routing", "routing/wire", "transport", "clock", "linkmon", "dataplane",
		"routetable", "core", "core/membership", "icmp", "overload", "metrics",
	}
	simulator := map[string]bool{}
	for _, p := range []string{"netsim", "simtime", "chaos", "scenario", "runtime", "experiments"} {
		simulator["drsnet/internal/"+p] = true
	}
	fset := token.NewFileSet()
	for _, pkg := range stack {
		files, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("internal/%s: no Go files (%v)", pkg, err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, file, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); simulator[path] {
					t.Errorf("%s imports %s: the protocol stack must not depend on the simulator", file, path)
				}
			}
		}
	}
}
