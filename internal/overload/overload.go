// Package overload implements the control-plane overload-protection
// primitives the protocol stack shares: deterministic token buckets
// that budget probe retransmits and discovery floods, a seeded jitter
// source that desynchronizes nodes whose timers would otherwise fire
// in lock-step, and a degraded-mode governor — a small hysteresis
// state machine that detects budget saturation and tells the daemon
// to pin last-known-good routes and suppress churn until the storm
// passes.
//
// The paper's DRS survives isolated rail failures, but a correlated
// failure storm (a ToR outage, a mass crash-restart) triggers
// simultaneous retransmits, discovery floods and rejoin traffic from
// every node at once. This package is the admission control for that
// blast radius. Everything here is deterministic: token refill is
// pure arithmetic on the caller's clock, and jitter comes from a
// seeded substream, so seeded simulations stay bit-identical at any
// worker count.
//
// Types are not goroutine-safe; the owning protocol serializes access
// under its own lock, exactly like linkmon and dataplane.
package overload

import (
	"fmt"
	"time"

	"drsnet/internal/rng"
)

// Defaults for an enabled Config with unset fields.
const (
	DefaultProbeRate      = 2.0 // retransmits per second per node
	DefaultProbeBurst     = 4
	DefaultQueryRate      = 1.0 // discovery broadcasts per second
	DefaultQueryBurst     = 2
	DefaultQueueCapacity  = 32
	DefaultDegradedSheds  = 8
	DefaultDegradedWindow = 2 * time.Second
	DefaultDegradedQuiet  = 5 * time.Second
	DefaultJitterFrac     = 0.1
)

// Config parameterizes the overload-protection layer. The zero value
// disables it entirely, which keeps seeded goldens byte-identical;
// enable with Default() or explicit budgets.
type Config struct {
	// Enabled turns the layer on. When false every other field must be
	// zero (a typo cannot silently half-enable the feature).
	Enabled bool
	// ProbeRate and ProbeBurst budget RTO-driven probe retransmits:
	// the bucket refills ProbeRate tokens per second up to ProbeBurst,
	// and a retransmit that finds the bucket empty is shed (the next
	// probe round re-probes anyway). Zero means the defaults.
	ProbeRate  float64
	ProbeBurst int
	// QueryRate and QueryBurst budget route-discovery broadcasts the
	// same way. A shed discovery is deferred to the prioritized
	// control queue and drained when tokens return.
	QueryRate  float64
	QueryBurst int
	// HelloMinInterval floors the gap between membership hello
	// broadcasts (dynamic membership only). Zero keeps the classic
	// once-per-round cadence.
	HelloMinInterval time.Duration
	// QueueCapacity bounds the prioritized control queue of deferred
	// intents (liveness > repair > discovery). Zero means the default.
	QueueCapacity int
	// DegradedSheds, DegradedWindow and DegradedQuiet parameterize the
	// degraded-mode governor: DegradedSheds shed events inside one
	// DegradedWindow enter degraded mode, and it exits only after
	// DegradedQuiet with no sheds — hysteresis, so a borderline load
	// cannot oscillate the mode. DegradedSheds < 0 disables the
	// governor (budgets still apply).
	DegradedSheds  int
	DegradedWindow time.Duration
	DegradedQuiet  time.Duration
	// JitterFrac spreads RTO deadlines and hello resumption by up to
	// this fraction of the base interval, drawn from a per-node seeded
	// stream, so synchronized nodes desynchronize instead of storming.
	// Zero means the default; negative disables jitter.
	JitterFrac float64
}

// Default returns the stock overload-protection configuration.
func Default() Config {
	return Config{
		Enabled:        true,
		ProbeRate:      DefaultProbeRate,
		ProbeBurst:     DefaultProbeBurst,
		QueryRate:      DefaultQueryRate,
		QueryBurst:     DefaultQueryBurst,
		QueueCapacity:  DefaultQueueCapacity,
		DegradedSheds:  DefaultDegradedSheds,
		DegradedWindow: DefaultDegradedWindow,
		DegradedQuiet:  DefaultDegradedQuiet,
		JitterFrac:     DefaultJitterFrac,
	}
}

// Normalize applies defaults and validates the configuration. The
// zero value (disabled) is valid; a disabled config with stray fields
// is rejected.
func (c *Config) Normalize() error {
	if !c.Enabled {
		if *c != (Config{}) {
			return fmt.Errorf("overload: budget fields set but overload protection is disabled")
		}
		return nil
	}
	if c.ProbeRate < 0 || c.QueryRate < 0 {
		return fmt.Errorf("overload: negative budget rate")
	}
	if c.ProbeBurst < 0 || c.QueryBurst < 0 {
		return fmt.Errorf("overload: negative budget burst")
	}
	if c.HelloMinInterval < 0 {
		return fmt.Errorf("overload: negative hello min interval")
	}
	if c.QueueCapacity < 0 {
		return fmt.Errorf("overload: negative control queue capacity")
	}
	if c.DegradedWindow < 0 || c.DegradedQuiet < 0 {
		return fmt.Errorf("overload: negative degraded-mode duration")
	}
	if c.JitterFrac > 1 {
		return fmt.Errorf("overload: jitter fraction %v above 1", c.JitterFrac)
	}
	if c.ProbeRate == 0 {
		c.ProbeRate = DefaultProbeRate
	}
	if c.ProbeBurst == 0 {
		c.ProbeBurst = DefaultProbeBurst
	}
	if c.QueryRate == 0 {
		c.QueryRate = DefaultQueryRate
	}
	if c.QueryBurst == 0 {
		c.QueryBurst = DefaultQueryBurst
	}
	if c.QueueCapacity == 0 {
		c.QueueCapacity = DefaultQueueCapacity
	}
	if c.DegradedSheds == 0 {
		c.DegradedSheds = DefaultDegradedSheds
	}
	if c.DegradedWindow == 0 {
		c.DegradedWindow = DefaultDegradedWindow
	}
	if c.DegradedQuiet == 0 {
		c.DegradedQuiet = DefaultDegradedQuiet
	}
	if c.JitterFrac == 0 {
		c.JitterFrac = DefaultJitterFrac
	}
	if c.JitterFrac < 0 {
		c.JitterFrac = 0
	}
	return nil
}

// Bucket is a deterministic token bucket: rate tokens per second
// refill up to burst, and each admitted action costs one token.
// Refill is pure arithmetic on the caller-supplied clock, so a seeded
// simulation replays bit-identically.
type Bucket struct {
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Duration
}

// NewBucket returns a full bucket with the given refill rate and
// depth. A nil *Bucket admits everything (no budget installed).
func NewBucket(rate float64, burst int) *Bucket {
	return &Bucket{rate: rate, burst: float64(burst), tokens: float64(burst)}
}

// refill credits tokens for the time elapsed since the last call.
func (b *Bucket) refill(now time.Duration) {
	if now > b.last {
		b.tokens += b.rate * (now - b.last).Seconds()
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
}

// Take admits one action if a token is available, spending it. A nil
// bucket admits everything.
func (b *Bucket) Take(now time.Duration) bool {
	if b == nil {
		return true
	}
	b.refill(now)
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Tokens returns the tokens currently available (refilled to now).
// A nil bucket reports -1, meaning unbudgeted.
func (b *Bucket) Tokens(now time.Duration) float64 {
	if b == nil {
		return -1
	}
	b.refill(now)
	return b.tokens
}

// Jitter is a per-node seeded stream of uniform fractions used to
// desynchronize timers. Distinct seeds (node index, incarnation)
// yield independent streams; the same seed replays identically.
type Jitter struct {
	src *rng.Source
}

// NewJitter returns a jitter stream for the given seed.
func NewJitter(seed uint64) *Jitter {
	return &Jitter{src: rng.New(seed).Split(0x0ad0ff)}
}

// Frac returns the next uniform fraction in [0, 1).
func (j *Jitter) Frac() float64 { return j.src.Float64() }

// Scale returns d extended by up to frac·d of deterministic jitter.
// Non-positive frac (or a nil Jitter) returns d unchanged.
func (j *Jitter) Scale(d time.Duration, frac float64) time.Duration {
	if j == nil || frac <= 0 || d <= 0 {
		return d
	}
	return d + time.Duration(frac*float64(d)*j.Frac())
}

// Governor is the degraded-mode state machine. Budget saturation
// (shed events) inside a short window enters degraded mode; only a
// sustained quiet period exits it. While degraded the daemon pins
// last-known-good routes and suppresses churn instead of oscillating.
type Governor struct {
	cfg      Config
	sheds    []time.Duration // timestamps of the most recent sheds
	lastShed time.Duration
	degraded bool
	since    time.Duration // entry time of the current episode
}

// NewGovernor returns a governor for a normalized config.
func NewGovernor(cfg Config) *Governor {
	return &Governor{cfg: cfg, lastShed: -1}
}

// Degraded reports whether the node is in degraded mode.
func (g *Governor) Degraded() bool { return g.degraded }

// Shed records one budget-saturation event and reports whether it
// entered degraded mode. DegradedSheds < 0 disables entry.
func (g *Governor) Shed(now time.Duration) (entered bool) {
	g.lastShed = now
	if g.cfg.DegradedSheds < 0 || g.degraded {
		return false
	}
	g.sheds = append(g.sheds, now)
	if n := len(g.sheds); n > g.cfg.DegradedSheds {
		g.sheds = g.sheds[n-g.cfg.DegradedSheds:]
	}
	if len(g.sheds) >= g.cfg.DegradedSheds && now-g.sheds[0] <= g.cfg.DegradedWindow {
		g.degraded = true
		g.since = now
		g.sheds = g.sheds[:0]
		return true
	}
	return false
}

// Tick re-evaluates the exit condition: degraded mode ends only after
// DegradedQuiet without a shed. It reports whether this call exited
// and how long the episode held.
func (g *Governor) Tick(now time.Duration) (exited bool, held time.Duration) {
	if !g.degraded || now-g.lastShed < g.cfg.DegradedQuiet {
		return false, 0
	}
	g.degraded = false
	return true, now - g.since
}
