package overload

import (
	"testing"
	"time"
)

func TestConfigZeroValueDisabled(t *testing.T) {
	var c Config
	if err := c.Normalize(); err != nil {
		t.Fatalf("zero config: %v", err)
	}
	if c.Enabled {
		t.Fatal("zero config enabled")
	}
}

func TestConfigStrayFieldsRejected(t *testing.T) {
	cases := []Config{
		{ProbeRate: 1},
		{QueryBurst: 2},
		{HelloMinInterval: time.Second},
		{DegradedSheds: 3},
		{JitterFrac: 0.5},
	}
	for i, c := range cases {
		if err := c.Normalize(); err == nil {
			t.Errorf("case %d: stray fields with Enabled=false accepted", i)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{Enabled: true}
	if err := c.Normalize(); err != nil {
		t.Fatal(err)
	}
	want := Default()
	if c != want {
		t.Fatalf("normalized enabled config = %+v, want defaults %+v", c, want)
	}
	// Normalizing the defaults is a fixed point.
	d := Default()
	if err := d.Normalize(); err != nil {
		t.Fatal(err)
	}
	if d != want {
		t.Fatalf("Default() not a Normalize fixed point: %+v", d)
	}
}

func TestConfigRejectsBadValues(t *testing.T) {
	cases := []Config{
		{Enabled: true, ProbeRate: -1},
		{Enabled: true, ProbeBurst: -1},
		{Enabled: true, QueryRate: -0.5},
		{Enabled: true, HelloMinInterval: -time.Second},
		{Enabled: true, QueueCapacity: -1},
		{Enabled: true, DegradedWindow: -time.Second},
		{Enabled: true, JitterFrac: 1.5},
	}
	for i, c := range cases {
		if err := c.Normalize(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, c)
		}
	}
}

func TestBucketAdmitsBurstThenRefills(t *testing.T) {
	b := NewBucket(2, 3) // 2 tokens/s, depth 3, starts full
	now := time.Duration(0)
	for i := 0; i < 3; i++ {
		if !b.Take(now) {
			t.Fatalf("take %d of initial burst denied", i)
		}
	}
	if b.Take(now) {
		t.Fatal("empty bucket admitted")
	}
	// 500 ms refills one token at 2/s.
	now = 500 * time.Millisecond
	if !b.Take(now) {
		t.Fatal("refilled token denied")
	}
	if b.Take(now) {
		t.Fatal("second take after single refill admitted")
	}
	// A long idle period caps at the burst depth.
	now = time.Hour
	if got := b.Tokens(now); got != 3 {
		t.Fatalf("tokens after idle = %v, want capped at 3", got)
	}
}

func TestBucketNilAdmitsEverything(t *testing.T) {
	var b *Bucket
	if !b.Take(0) {
		t.Fatal("nil bucket denied")
	}
	if b.Tokens(0) != -1 {
		t.Fatal("nil bucket should report -1 tokens")
	}
}

func TestBucketClockMonotone(t *testing.T) {
	b := NewBucket(1, 1)
	if !b.Take(time.Second) {
		t.Fatal("initial take denied")
	}
	// An earlier timestamp must not refill (defensive: budget callers
	// always pass a monotone clock, but a clamp keeps mistakes safe).
	if b.Take(0) {
		t.Fatal("time going backwards minted a token")
	}
}

func TestJitterDeterministicPerSeed(t *testing.T) {
	a, b := NewJitter(7), NewJitter(7)
	for i := 0; i < 100; i++ {
		av, bv := a.Frac(), b.Frac()
		if av != bv {
			t.Fatalf("same-seed streams diverge at %d: %v vs %v", i, av, bv)
		}
		if av < 0 || av >= 1 {
			t.Fatalf("fraction %v outside [0,1)", av)
		}
	}
	c := NewJitter(8)
	same := 0
	a = NewJitter(7)
	for i := 0; i < 100; i++ {
		if a.Frac() == c.Frac() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("distinct seeds nearly identical (%d/100 equal draws)", same)
	}
}

func TestJitterScale(t *testing.T) {
	j := NewJitter(1)
	base := 100 * time.Millisecond
	for i := 0; i < 50; i++ {
		d := j.Scale(base, 0.25)
		if d < base || d > base+base/4 {
			t.Fatalf("scaled deadline %v outside [%v, %v]", d, base, base+base/4)
		}
	}
	if j.Scale(base, 0) != base {
		t.Fatal("zero frac changed the deadline")
	}
	var nilJ *Jitter
	if nilJ.Scale(base, 0.5) != base {
		t.Fatal("nil jitter changed the deadline")
	}
}

func TestGovernorEntersOnShedBurstInsideWindow(t *testing.T) {
	cfg := Config{Enabled: true, DegradedSheds: 3, DegradedWindow: time.Second, DegradedQuiet: 2 * time.Second}
	g := NewGovernor(cfg)
	if g.Shed(0) || g.Shed(100*time.Millisecond) {
		t.Fatal("entered before threshold")
	}
	if !g.Shed(200 * time.Millisecond) {
		t.Fatal("third shed inside window did not enter")
	}
	if !g.Degraded() || g.since != 200*time.Millisecond {
		t.Fatalf("degraded=%v since=%v", g.Degraded(), g.since)
	}
}

func TestGovernorSpreadShedsDoNotEnter(t *testing.T) {
	cfg := Config{Enabled: true, DegradedSheds: 3, DegradedWindow: time.Second, DegradedQuiet: 2 * time.Second}
	g := NewGovernor(cfg)
	// Sheds 2 s apart never fit three inside a 1 s window.
	for i := 0; i < 10; i++ {
		if g.Shed(time.Duration(i) * 2 * time.Second) {
			t.Fatalf("spread sheds entered degraded mode at %d", i)
		}
	}
}

func TestGovernorExitNeedsQuietPeriod(t *testing.T) {
	cfg := Config{Enabled: true, DegradedSheds: 2, DegradedWindow: time.Second, DegradedQuiet: 3 * time.Second}
	g := NewGovernor(cfg)
	g.Shed(0)
	if !g.Shed(time.Millisecond) {
		t.Fatal("did not enter")
	}
	// A shed during the episode extends it (hysteresis).
	g.Shed(2 * time.Second)
	if exited, _ := g.Tick(4 * time.Second); exited {
		t.Fatal("exited 2s after a shed with 3s quiet required")
	}
	exited, held := g.Tick(5 * time.Second)
	if !exited {
		t.Fatal("did not exit after the quiet period")
	}
	if held != 5*time.Second-time.Millisecond {
		t.Fatalf("held = %v", held)
	}
	if g.Degraded() {
		t.Fatal("still degraded after exit")
	}
}

func TestGovernorDisabled(t *testing.T) {
	g := NewGovernor(Config{Enabled: true, DegradedSheds: -1})
	for i := 0; i < 100; i++ {
		if g.Shed(time.Duration(i) * time.Millisecond) {
			t.Fatal("disabled governor entered degraded mode")
		}
	}
}
