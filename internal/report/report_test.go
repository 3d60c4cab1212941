package report

import (
	"strings"
	"testing"

	"drsnet/internal/experiments"
)

func TestGenerateQuick(t *testing.T) {
	var sb strings.Builder
	if err := Generate(&sb, Config{Quick: true}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# DRS reproduction report",
		"## Figure 1",
		"## Figure 2",
		"## Figure 3",
		"## The 13% statistic",
		"## Recovery",
		"## Connection level",
		"## Empirical probe overhead",
		"## Redundancy ablation",
		"## Availability",
		"thresholds at 18, 32 and 45 nodes",
		"drs",
		"reactive",
		"static",
		"P[Success]",
		"measured",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Markdown code fences must balance.
	if n := strings.Count(out, "```"); n%2 != 0 {
		t.Fatalf("%d unbalanced code fences", n)
	}
	if len(out) < 4000 {
		t.Fatalf("report suspiciously short: %d bytes", len(out))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	gen := func() string {
		var sb strings.Builder
		if err := Generate(&sb, Config{Quick: true, Seed: 7}); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if gen() != gen() {
		t.Fatal("report not deterministic for a fixed seed")
	}
}

// TestCoverageVerdict: the clean-match sentence appears only when no
// scenario disagreed; otherwise the count is reported instead.
func TestCoverageVerdict(t *testing.T) {
	const clean = "\nEvery scenario's simulated outcome matched the analytic predicate\n" +
		"(78 scenarios, 0 inconsistencies).\n\n"
	var sb strings.Builder
	coverageVerdict(&sb, &experiments.CoverageResult{Total: experiments.ClassStats{Scenarios: 78}})
	if sb.String() != clean {
		t.Fatalf("clean verdict = %q, want %q", sb.String(), clean)
	}

	const dirty = "\n2 of 78 scenarios' simulated outcomes disagreed with the analytic predicate\n" +
		"(first shown above).\n\n"
	sb.Reset()
	coverageVerdict(&sb, &experiments.CoverageResult{Total: experiments.ClassStats{Scenarios: 78, Inconsistent: 2}})
	if sb.String() != dirty {
		t.Fatalf("inconsistent verdict = %q, want %q", sb.String(), dirty)
	}
}

func TestHeadline(t *testing.T) {
	if err := Headline(); err != nil {
		t.Fatal(err)
	}
}
