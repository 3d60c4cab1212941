package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res results
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

// compareMain prints one row per (end-to-end metric, workload) of two
// result files and fails when any row is worse or a digest differs.
func compareMain(paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare takes two result files, got %d arguments", len(paths))
	}
	a, err := readResults(paths[0])
	if err != nil {
		return err
	}
	b, err := readResults(paths[1])
	if err != nil {
		return err
	}
	if bad := compareResults(os.Stdout, a, b); bad > 0 {
		return fmt.Errorf("%d rows are worse or differ in their digest", bad)
	}
	return nil
}

// verdict judges one metric on one workload: worse when b's median is
// worse than a's by more than the bound, unresolved when it is not but
// either side's own repetitions spread wider than the bound, else ok.
func verdict(m metric, a, b stat) (change float64, v string) {
	change = (b.Median - a.Median) / a.Median
	worse := change
	if m.higher {
		worse = -change
	}
	spread := func(s stat) float64 { return (s.Max - s.Min) / s.Median }
	switch {
	case worse > m.bound:
		return change, "worse"
	case spread(a) > m.bound || spread(b) > m.bound:
		return change, "unresolved"
	}
	return change, "ok"
}

// compareResults writes the comparison of a (the base) and b and
// returns how many rows are worse or differ in their digest.
func compareResults(w io.Writer, a, b *results) (bad int) {
	fmt.Fprintf(w, "base %s (seed %d)  against %s (seed %d)\n", a.Env.Commit, a.Seed, b.Env.Commit, b.Seed)
	fmt.Fprintf(w, "%-12s %-15s %13s %13s %9s %6s  %s\n", "metric", "workload", "base", "new", "change", "bound", "verdict")
	other := make(map[string]workloadResult)
	for _, wr := range b.Workloads {
		other[wr.Name] = wr
	}
	for _, wa := range a.Workloads {
		wb, ok := other[wa.Name]
		if !ok {
			fmt.Fprintf(w, "%-12s %-15s missing from the second file\n", "", wa.Name)
			bad++
			continue
		}
		for _, m := range endToEnd {
			sa, sb := wa.EndToEnd[m.name], wb.EndToEnd[m.name]
			change, v := verdict(m, sa, sb)
			if v == "worse" {
				bad++
			}
			fmt.Fprintf(w, "%-12s %-15s %13.6g %13.6g %+8.2f%% %5.0f%%  %s\n",
				m.name, wa.Name, sa.Median, sb.Median, 100*change, 100*m.bound, v)
		}
		same := "same"
		if a.Seed == b.Seed && wa.Digest != wb.Digest {
			same = "DIFFERENT"
			bad++
		} else if a.Seed != b.Seed {
			same = "not compared (seeds differ)"
		}
		fmt.Fprintf(w, "%-12s %-15s failed %d of %d against %d of %d, digest %s\n",
			"outputs", wa.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted, same)
	}
	return bad
}
