package scenario

import (
	"os"
	"path/filepath"
	"testing"
)

// TestExampleScenariosRoundTrip loads every shipped scenario document
// and executes it through the unified runtime: the files must parse,
// validate, translate into a ClusterSpec and run deterministically.
func TestExampleScenariosRoundTrip(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil {
		t.Fatalf("glob: %v", err)
	}
	if len(paths) == 0 {
		t.Fatalf("no example scenario files found")
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			load := func() *Scenario {
				f, err := os.Open(path)
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				defer f.Close()
				s, err := Load(f)
				if err != nil {
					t.Fatalf("load: %v", err)
				}
				return s
			}

			s := load()
			spec, err := s.Spec()
			if err != nil {
				t.Fatalf("Spec: %v", err)
			}
			// A fabric document may leave nodes out; the shape sets them.
			if (s.Nodes != 0 && spec.Nodes != s.Nodes) || len(spec.Flows) != len(s.Traffic) || len(spec.Faults) != len(s.Events) {
				t.Fatalf("spec does not mirror the document: %+v", spec)
			}

			rep, err := s.Run()
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if len(rep.Flows) != len(s.Traffic) {
				t.Fatalf("%d flow reports for %d traffic specs", len(rep.Flows), len(s.Traffic))
			}
			for i, f := range rep.Flows {
				if f.Sent == 0 {
					t.Errorf("flow %d (%d → %d) sent nothing", i, f.From, f.To)
				}
				if f.Delivered > f.Sent {
					t.Errorf("flow %d delivered %d of %d", i, f.Delivered, f.Sent)
				}
			}
			if rep.Trace == nil {
				t.Fatalf("report carries no trace log")
			}

			// Deterministic: a second run of a fresh load is identical.
			again, err := load().Run()
			if err != nil {
				t.Fatalf("re-run: %v", err)
			}
			for i := range rep.Flows {
				if rep.Flows[i] != again.Flows[i] {
					t.Errorf("flow %d differs across runs: %+v vs %+v",
						i, rep.Flows[i], again.Flows[i])
				}
			}
			if rep.Repairs != again.Repairs {
				t.Errorf("repairs differ across runs: %d vs %d", rep.Repairs, again.Repairs)
			}
		})
	}
}
