package linkmon

import (
	"testing"
	"time"
)

func enabledDamping(t *testing.T) Damping {
	t.Helper()
	cfg := DefaultDamping()
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestDampingDisabledIsInert: with the zero config a flapping path
// records flap counts but is never suppressed or damped.
func TestDampingDisabledIsInert(t *testing.T) {
	var cfg Damping
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	if cfg.Enabled() {
		t.Fatal("zero Damping enabled")
	}
	var st State
	for i := 0; i < 100; i++ {
		st.RecordFlap(cfg, time.Duration(i)*time.Second)
	}
	if st.Suppressed(cfg, 100*time.Second) {
		t.Fatal("disabled damping suppressed a path")
	}
	if st.Damped() {
		t.Fatal("disabled damping damped a path")
	}
	if st.Flaps() != 100 {
		t.Fatalf("Flaps = %d, want 100", st.Flaps())
	}
	if st.Penalty(cfg, 100*time.Second) != 0 || st.DampedFor(100*time.Second) != 0 {
		t.Fatal("disabled damping charged a penalty or a hold-down")
	}
	// The damping record is cold: counting a flap without damping
	// never allocates it.
	now := 100 * time.Second
	if allocs := testing.AllocsPerRun(100, func() { st.RecordFlap(cfg, now) }); allocs != 0 {
		t.Fatalf("RecordFlap with damping disabled allocates %v times, want 0", allocs)
	}
	if st.cold != nil {
		t.Fatal("RecordFlap with damping disabled allocated the damping record")
	}
}

// TestDampingSuppressAfterRepeatedFlaps: rapid flaps accumulate
// penalty past the suppress threshold; a single flap does not.
func TestDampingSuppressAfterRepeatedFlaps(t *testing.T) {
	cfg := enabledDamping(t)
	var st State
	st.RecordFlap(cfg, 0)
	if st.Suppressed(cfg, 0) {
		t.Fatal("suppressed after one flap")
	}
	st.RecordFlap(cfg, time.Second)
	st.RecordFlap(cfg, 2*time.Second)
	if !st.Suppressed(cfg, 2*time.Second) {
		t.Fatalf("not suppressed after 3 rapid flaps (penalty %v, suppress %v)",
			st.Penalty(cfg, 2*time.Second), cfg.Suppress)
	}
}

// TestDampingDecayAndRelease: a held-down path is released once its
// penalty halves down below the reuse threshold, and the spell length
// is reported exactly once.
func TestDampingDecayAndRelease(t *testing.T) {
	cfg := enabledDamping(t)
	var st State
	at := time.Duration(0)
	for i := 0; i < 3; i++ {
		st.RecordFlap(cfg, at)
		at += time.Second
	}
	if !st.Suppressed(cfg, at) {
		t.Fatal("not suppressed")
	}
	st.EnterDamped(at)
	if !st.Damped() {
		t.Fatal("not damped after EnterDamped")
	}
	// Penalty ≈ 3 must fall below Reuse = 1: needs log2(3) ≈ 1.58
	// half-lives. One half-life is not enough...
	if _, released := st.TryRelease(cfg, at+cfg.HalfLife); released {
		t.Fatal("released after one half-life (penalty should still be ~1.5)")
	}
	// ...two is.
	held, released := st.TryRelease(cfg, at+2*cfg.HalfLife)
	if !released {
		t.Fatalf("not released after two half-lives (penalty %v)", st.Penalty(cfg, at+2*cfg.HalfLife))
	}
	if held != 2*cfg.HalfLife {
		t.Fatalf("held = %v, want %v", held, 2*cfg.HalfLife)
	}
	if st.DampedFor(at+2*cfg.HalfLife) != 2*cfg.HalfLife {
		t.Fatalf("DampedFor = %v", st.DampedFor(at+2*cfg.HalfLife))
	}
	// Second release is a no-op.
	if _, again := st.TryRelease(cfg, at+3*cfg.HalfLife); again {
		t.Fatal("released twice")
	}
}

// TestDampingPenaltyCap: a permanently flapping path's penalty is
// bounded by Max, so its worst-case hold-down is bounded too.
func TestDampingPenaltyCap(t *testing.T) {
	cfg := enabledDamping(t)
	var st State
	for i := 0; i < 1000; i++ {
		st.RecordFlap(cfg, time.Duration(i)*time.Millisecond)
	}
	if p := st.Penalty(cfg, time.Second); p > cfg.Max {
		t.Fatalf("penalty %v exceeds cap %v", p, cfg.Max)
	}
	// From the cap, release takes at most log2(Max/Reuse) half-lives.
	st.EnterDamped(time.Second)
	worst := time.Duration(5) * cfg.HalfLife // log2(10/1) ≈ 3.33 < 5
	if _, released := st.TryRelease(cfg, time.Second+worst); !released {
		t.Fatalf("capped path not released after %v", worst)
	}
}

// TestDampingNormalizeRejectsNonsense: precise validation of the
// tunable space.
func TestDampingNormalizeRejectsNonsense(t *testing.T) {
	bad := []Damping{
		{Suppress: -1},
		{Suppress: 2, Reuse: 2},               // reuse not below suppress
		{Suppress: 2, Reuse: 3},               // reuse above suppress
		{Suppress: 2, Reuse: -1},              // negative reuse... normalized? no: explicit
		{Suppress: 2, Penalty: -1},            // negative penalty
		{Suppress: 2, HalfLife: -time.Second}, // negative half-life
		{Suppress: 2, Max: 1},                 // cap below suppress
	}
	for _, cfg := range bad {
		c := cfg
		if err := c.Normalize(); err == nil {
			t.Errorf("Normalize(%+v) accepted", cfg)
		}
	}
	ok := Damping{Suppress: 2}
	if err := ok.Normalize(); err != nil {
		t.Fatalf("minimal enabled config rejected: %v", err)
	}
	if ok.Reuse != 1 || ok.Penalty != 1 || ok.HalfLife != 15*time.Second || ok.Max != 8 {
		t.Fatalf("defaults not applied: %+v", ok)
	}
}

// TestUsableSkipsDampedRails: Table route-selection helpers exclude
// held-down paths while FirstUp (physical state) still sees them.
func TestUsableSkipsDampedRails(t *testing.T) {
	tbl := NewTable(2, 2)
	tbl.Add(1)
	tbl.State(1, 0).EnterDamped(0)
	if !tbl.Usable(1, 1) || tbl.Usable(1, 0) {
		t.Fatal("Usable wrong")
	}
	if rail, ok := tbl.FirstUsable(1); !ok || rail != 1 {
		t.Fatalf("FirstUsable = %d,%v, want 1,true", rail, ok)
	}
	if rail, ok := tbl.FirstUp(1); !ok || rail != 0 {
		t.Fatalf("FirstUp = %d,%v, want 0,true (damped is still physically up)", rail, ok)
	}
	if !tbl.AnyFresh(1) {
		t.Fatal("AnyFresh = false with rail 1 clean")
	}
	tbl.State(1, 1).EnterDamped(0)
	if tbl.AnyFresh(1) {
		t.Fatal("AnyFresh = true with every rail damped")
	}
	if _, ok := tbl.FirstUsable(1); ok {
		t.Fatal("FirstUsable found a rail with every rail damped")
	}
}
