package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"drsnet/internal/clock"
	"drsnet/internal/rng"
)

// AllRails, as a rail argument to the partition methods, selects every
// rail of the pair.
const AllRails = -1

// FaultSpec is the per-frame impairment policy a Faults controller
// applies. Probabilities are independent per frame; the zero value
// passes every frame through untouched.
type FaultSpec struct {
	// Drop, Duplicate and Corrupt are per-frame probabilities in
	// [0,1]. A corrupted frame has one byte flipped — downstream wire
	// codecs must survive it (and the header checks usually discard
	// it), which is exactly the point.
	Drop, Duplicate, Corrupt float64
	// Reorder is the probability a frame is held back ReorderDelay
	// while frames behind it pass — genuine reordering, not jitter.
	Reorder float64
	// ReorderDelay is how long a reordered frame is held (default
	// 1ms when Reorder > 0).
	ReorderDelay time.Duration
	// Delay postpones every frame; Jitter adds a uniform random
	// extra in [0, Jitter).
	Delay, Jitter time.Duration
}

// validate panics on a malformed spec — fault injection is test
// machinery, and a bad campaign config is a programming error.
func (s FaultSpec) validate() {
	for _, p := range []struct {
		name string
		v    float64
	}{{"drop", s.Drop}, {"duplicate", s.Duplicate}, {"corrupt", s.Corrupt}, {"reorder", s.Reorder}} {
		if p.v < 0 || p.v > 1 {
			panic(fmt.Sprintf("transport: fault %s probability %v outside [0,1]", p.name, p.v))
		}
	}
	if s.ReorderDelay < 0 || s.Delay < 0 || s.Jitter < 0 {
		panic("transport: negative fault delay")
	}
}

// FaultStats counts what a Faults controller did to traffic.
type FaultStats struct {
	Delivered   int64 // frames handed up, possibly late or corrupted
	Dropped     int64
	Duplicated  int64
	Reordered   int64
	Corrupted   int64
	Partitioned int64 // frames eaten by a directed cut
}

// Faults is a shared fault-injection controller for a cluster of
// transports: build one, Wrap each node's Transport with it, and every
// frame the cluster delivers passes through the same seeded policy.
// It applies drop, duplicate, reorder, delay and corrupt impairments,
// directed (src, dst, rail) partitions — symmetric splits are two
// directed cuts — and per-node skew windows, all on the receive path,
// so it composes identically over netsim, Mem and UDP transports.
//
// Every random decision comes from one rng.Source substream, so under
// a deterministic inner transport (Mem on a deterministic clock,
// netsim) a campaign replays bit-identically from its seed. Over UDP the
// decisions are still seeded but goroutine interleaving orders them.
// Timed windows are the caller's: chaos.Schedule drives Partition,
// Heal and SetSkew from the same clock.
//
// While no spec, cut or skew is installed the controller is idle: a
// frame passes straight through, taking no lock and drawing nothing.
type Faults struct {
	mu    sync.Mutex
	rng   *rng.Source
	clk   clock.Clock
	spec  FaultSpec
	cuts  map[cutKey]struct{}
	skew  map[int]time.Duration
	stats FaultStats     // all but Delivered
	free  *faultDelivery // recycled deferred-delivery records
	// idle is set, under mu, whenever spec, cuts and skew are all
	// empty; delivered counts frames handed up on either path.
	idle      atomic.Bool
	delivered atomic.Int64
}

// faultDelivery is one deferred frame: its own copy of the payload and
// the receiver it goes to, copies times. Records cycle through
// Faults.free once the last copy's receiver has returned, so a
// deferred frame allocates nothing in steady state.
type faultDelivery struct {
	f                 *Faults
	fn                func(rail, src int, payload []byte)
	rail, src, copies int
	body              []byte
	next              *faultDelivery
}

type cutKey struct{ src, dst, rail int }

// NewFaults builds a controller whose decisions replay from seed and
// whose deferred deliveries run on clk.
func NewFaults(seed uint64, clk clock.Clock) *Faults {
	f := &Faults{
		rng:  rng.New(seed).Split(0xfa017),
		clk:  clk,
		cuts: make(map[cutKey]struct{}),
		skew: make(map[int]time.Duration),
	}
	f.idle.Store(true)
	return f
}

// policyChanged recomputes the idle flag. Caller holds f.mu.
func (f *Faults) policyChanged() {
	f.idle.Store(f.spec == FaultSpec{} && len(f.cuts) == 0 && len(f.skew) == 0)
}

// SetSpec replaces the impairment policy (the zero spec clears it).
func (f *Faults) SetSpec(spec FaultSpec) {
	spec.validate()
	if spec.Reorder > 0 && spec.ReorderDelay == 0 {
		spec.ReorderDelay = time.Millisecond
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.spec = spec
	f.policyChanged()
}

// Partition installs a directed cut: frames src→dst on rail (AllRails
// = every rail) vanish. Idempotent.
func (f *Faults) Partition(src, dst, rail int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cuts[cutKey{src, dst, rail}] = struct{}{}
	f.policyChanged()
}

// Heal removes the directed cut installed with the same arguments.
func (f *Faults) Heal(src, dst, rail int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.cuts, cutKey{src, dst, rail})
	f.policyChanged()
}

// HealAll removes every cut and skew window.
func (f *Faults) HealAll() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cuts = make(map[cutKey]struct{})
	f.skew = make(map[int]time.Duration)
	f.policyChanged()
}

// SetSkew delays every delivery to node by d (0 clears it) — a crude
// but effective model of the node's clock running behind the cluster:
// relative to its own timers, everything arrives late.
func (f *Faults) SetSkew(node int, d time.Duration) {
	if d < 0 {
		panic("transport: negative skew")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if d == 0 {
		delete(f.skew, node)
	} else {
		f.skew[node] = d
	}
	f.policyChanged()
}

// Stats returns a snapshot of the controller's counters.
func (f *Faults) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.stats
	st.Delivered = f.delivered.Load()
	return st
}

// cut reports whether src→dst on rail is severed. Caller holds f.mu.
func (f *Faults) cut(src, dst, rail int) bool {
	if _, ok := f.cuts[cutKey{src, dst, rail}]; ok {
		return true
	}
	_, ok := f.cuts[cutKey{src, dst, AllRails}]
	return ok
}

// Wrap returns inner's fault-injecting view. Wrap every node of a
// cluster with the same controller so partitions see both directions.
func (f *Faults) Wrap(inner Transport) Transport {
	return &Faulty{f: f, inner: inner}
}

// Faulty is one node's fault-injecting Transport, produced by
// Faults.Wrap. Sends pass through untouched; received frames run the
// controller's policy before reaching the node's receiver.
type Faulty struct {
	f     *Faults
	inner Transport
}

// Node implements Transport.
func (t *Faulty) Node() int { return t.inner.Node() }

// Nodes implements Transport.
func (t *Faulty) Nodes() int { return t.inner.Nodes() }

// Rails implements Transport.
func (t *Faulty) Rails() int { return t.inner.Rails() }

// Send implements Transport, delegating to the wrapped transport.
func (t *Faulty) Send(rail, dst int, payload []byte) error {
	return t.inner.Send(rail, dst, payload)
}

// SetReceiver implements Transport, interposing the fault policy
// between the wire and the node's receiver.
func (t *Faulty) SetReceiver(fn func(rail, src int, payload []byte)) {
	if fn == nil {
		t.inner.SetReceiver(nil)
		return
	}
	dst := t.inner.Node()
	t.inner.SetReceiver(func(rail, src int, payload []byte) {
		t.f.deliver(dst, rail, src, payload, fn)
	})
}

// deliver runs one received frame through the policy: partition check,
// drop/duplicate/corrupt/reorder draws, then immediate or deferred
// hand-off. Deferred copies the payload into a pooled record (the wire
// buffer is the inner transport's to reuse). An idle controller hands
// the frame up at once.
func (f *Faults) deliver(dst, rail, src int, payload []byte, fn func(rail, src int, payload []byte)) {
	if f.idle.Load() {
		f.delivered.Add(1)
		fn(rail, src, payload)
		return
	}
	f.mu.Lock()
	if len(f.cuts) > 0 && f.cut(src, dst, rail) {
		f.stats.Partitioned++
		f.mu.Unlock()
		return
	}
	s := f.spec
	drop := s.Drop > 0 && f.rng.Float64() < s.Drop
	dup := s.Duplicate > 0 && f.rng.Float64() < s.Duplicate
	corrupt := s.Corrupt > 0 && f.rng.Float64() < s.Corrupt
	reorder := s.Reorder > 0 && f.rng.Float64() < s.Reorder
	delay := s.Delay
	if s.Jitter > 0 {
		delay += time.Duration(f.rng.Uint64n(uint64(s.Jitter)))
	}
	if drop {
		f.stats.Dropped++
		f.mu.Unlock()
		return
	}
	if corrupt && len(payload) > 0 {
		f.stats.Corrupted++
		mangled := make([]byte, len(payload))
		copy(mangled, payload)
		mangled[f.rng.Intn(len(mangled))] ^= 0xFF
		payload = mangled
	}
	if reorder {
		f.stats.Reordered++
		delay += s.ReorderDelay
	}
	if len(f.skew) > 0 {
		delay += f.skew[dst]
	}
	copies := 1
	if dup {
		f.stats.Duplicated++
		copies = 2
	}
	f.delivered.Add(int64(copies))
	if delay <= 0 {
		f.mu.Unlock()
		for i := 0; i < copies; i++ {
			fn(rail, src, payload)
		}
		return
	}
	d := f.free
	if d != nil {
		f.free = d.next
	} else {
		d = &faultDelivery{f: f}
	}
	f.mu.Unlock()
	d.fn, d.rail, d.src, d.copies = fn, rail, src, copies
	d.body = append(d.body[:0], payload...)
	f.clk.AfterCall(delay, runFaultDelivery, d)
}

// runFaultDelivery is the clock callback for a *faultDelivery.
func runFaultDelivery(d any) { d.(*faultDelivery).run() }

// run hands every copy of the frame to its receiver, then recycles the
// record once the last receiver has returned.
func (d *faultDelivery) run() {
	for i := 0; i < d.copies; i++ {
		d.fn(d.rail, d.src, d.body)
	}
	f := d.f
	d.fn = nil
	f.mu.Lock()
	d.next = f.free
	f.free = d
	f.mu.Unlock()
}

var _ Transport = (*Faulty)(nil)
