package linkmon

import (
	"testing"
	"time"
)

func TestRTONormalize(t *testing.T) {
	cases := []struct {
		name string
		in   RTO
		want RTO
		ok   bool
	}{
		{"zero value disabled", RTO{}, RTO{}, true},
		{"defaults", DefaultRTO(), DefaultRTO(), true},
		{"min defaulted", RTO{Max: time.Second},
			RTO{Min: DefaultRTOMin, Max: time.Second, MaxBackoff: DefaultRTOBackoff}, true},
		{"stray min without max", RTO{Min: time.Millisecond}, RTO{}, false},
		{"stray backoff without max", RTO{MaxBackoff: 2}, RTO{}, false},
		{"negative max", RTO{Max: -time.Second}, RTO{}, false},
		{"negative min", RTO{Min: -time.Millisecond, Max: time.Second}, RTO{}, false},
		{"min above max", RTO{Min: 2 * time.Second, Max: time.Second}, RTO{}, false},
		{"backoff out of range", RTO{Max: time.Second, MaxBackoff: 17}, RTO{}, false},
	}
	for _, tc := range cases {
		got := tc.in
		err := got.Normalize()
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("%s: normalized = %+v, want %+v", tc.name, got, tc.want)
		}
	}
	if (RTO{}).Enabled() {
		t.Error("zero RTO reports enabled")
	}
	if !DefaultRTO().Enabled() {
		t.Error("default RTO reports disabled")
	}
}

// TestRTODeadlineColdPath: before any RTT sample the deadline is Max —
// the conservative choice that can never fire a false link-down on an
// unmeasured path.
func TestRTODeadlineColdPath(t *testing.T) {
	cfg := DefaultRTO()
	var st State
	if d := st.Deadline(cfg); d != cfg.Max {
		t.Fatalf("cold deadline = %v, want %v", d, cfg.Max)
	}
}

// TestRTODeadlineTracksRTT: with samples the deadline follows
// srtt + 4·rttvar, clamped to [Min, Max].
func TestRTODeadlineTracksRTT(t *testing.T) {
	cfg := DefaultRTO()
	var st State
	st.ObserveRTT(10 * time.Millisecond) // srtt=10ms, rttvar=5ms: 30ms < Min
	if d := st.Deadline(cfg); d != cfg.Min {
		t.Fatalf("deadline = %v, want floor %v", d, cfg.Min)
	}
	// Push srtt high enough that the cap engages.
	for i := 0; i < 64; i++ {
		st.ObserveRTT(5 * time.Second)
	}
	if d := st.Deadline(cfg); d != cfg.Max {
		t.Fatalf("deadline = %v, want cap %v", d, cfg.Max)
	}
	// Between the bounds the formula applies exactly.
	st = State{}
	st.ObserveRTT(100 * time.Millisecond) // srtt=100ms rttvar=50ms
	if d, want := st.Deadline(cfg), 300*time.Millisecond; d != want {
		t.Fatalf("deadline = %v, want srtt+4·rttvar = %v", d, want)
	}
}

// TestRTOBackoffDoublesAndCaps: each recorded miss doubles the
// deadline, up to MaxBackoff doublings; a confirmed reply resets it.
func TestRTOBackoffDoublesAndCaps(t *testing.T) {
	cfg := RTO{Min: 50 * time.Millisecond, Max: 200 * time.Millisecond, MaxBackoff: 3}
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	tab := NewTable(2, 1)
	tab.Add(1)
	st := tab.State(1, 0)
	st.ObserveRTT(100 * time.Millisecond) // base = min(100+200, Max) = 200ms
	base := st.Deadline(cfg)
	if base != cfg.Max {
		t.Fatalf("base deadline = %v, want %v", base, cfg.Max)
	}
	for miss, want := range []time.Duration{2 * base, 4 * base, 8 * base, 8 * base, 8 * base} {
		st.RecordRTOMiss()
		if d := st.Deadline(cfg); d != want {
			t.Fatalf("after %d misses deadline = %v, want %v", miss+1, d, want)
		}
	}
	if st.backoff != 5 {
		t.Fatalf("backoff = %d, want 5", st.backoff)
	}
	// A confirmed probe clears the backoff along with the miss count.
	seq, _ := tab.BeginProbe(1, 0, 2)
	if _, ok := tab.Confirm(1, 0, seq); !ok {
		t.Fatal("confirm rejected the matching reply")
	}
	if st.backoff != 0 {
		t.Fatalf("backoff = %d after Confirm, want 0", st.backoff)
	}
	if d := st.Deadline(cfg); d != base {
		t.Fatalf("deadline = %v after Confirm, want %v", d, base)
	}
}

// TestSeedRTT: a checkpointed estimate restores the deadline of the
// previous life; garbage inputs are ignored.
func TestSeedRTT(t *testing.T) {
	cfg := DefaultRTO()
	var st State
	st.SeedRTT(100*time.Millisecond, 50*time.Millisecond, 9)
	stats, ok := st.RTT()
	if !ok || stats.SRTT != 100*time.Millisecond || stats.RTTVar != 50*time.Millisecond || stats.Samples != 9 {
		t.Fatalf("seeded stats = %+v ok=%v", stats, ok)
	}
	if d, want := st.Deadline(cfg), 300*time.Millisecond; d != want {
		t.Fatalf("seeded deadline = %v, want %v", d, want)
	}
	var fresh State
	fresh.SeedRTT(-time.Millisecond, 0, 5)
	if _, ok := fresh.RTT(); ok {
		t.Fatal("negative srtt seeded")
	}
	fresh.SeedRTT(time.Millisecond, time.Millisecond, 0)
	if _, ok := fresh.RTT(); ok {
		t.Fatal("zero-sample seed accepted")
	}
}
