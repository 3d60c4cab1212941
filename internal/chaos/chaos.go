// Package chaos scripts gray failures against the packet simulator:
// timed impairment episodes (loss, corruption, delay, jitter),
// unidirectional component kills, and periodic link flapping with a
// configurable period and duty cycle.
//
// Fail-stop faults (runtime.Fault) model the paper's experiments —
// a component dies cleanly and every frame through it vanishes. The
// failures that hurt deployed systems are rarely that polite: a NIC
// whose transmit side dies while receive keeps working, a backplane
// that delivers 95% of frames, a link that flaps faster than the
// routing protocol can converge. This package schedules exactly those
// against a netsim.Net, deterministically: episodes fire at fixed
// simulated times, and the per-frame randomness (which frame is lost
// or corrupted) comes from the network's own seeded impairment stream,
// so a chaos campaign is bit-identical across runs and worker counts.
package chaos

import (
	"fmt"
	"time"

	"drsnet/internal/netsim"
	"drsnet/internal/simtime"
	"drsnet/internal/topology"
)

// Spec is one scripted gray-failure episode on one component. Exactly
// one of the three modes must be active:
//
//   - Impair non-zero: the component degrades (loss, corruption,
//     delay, jitter) between Start and Stop but stays "up".
//   - Kill: the component goes down between Start and Stop —
//     optionally only one direction (Direction), which is the
//     classic gray NIC that transmits but no longer receives.
//   - FlapPeriod > 0: the component cycles down/up with the given
//     period; each period it is down for FlapPeriod×FlapDuty and up
//     for the remainder, starting down at Start.
type Spec struct {
	// Comp is the NIC or backplane being tormented (topology numbering
	// for the run's cluster shape).
	Comp topology.Component
	// Start is when the episode begins.
	Start time.Duration
	// Stop is when the episode ends and the component is restored
	// (and any impairment cleared). Zero means the episode lasts to
	// the simulation horizon.
	Stop time.Duration
	// Impair is the degradation applied while the episode is active.
	Impair netsim.Impairment
	// Kill takes the component down for the whole episode.
	Kill bool
	// Direction selects which half of the component Kill and flapping
	// affect (DirBoth, DirTx, DirRx). Ignored for pure impairments.
	Direction netsim.Direction
	// FlapPeriod, when positive, makes the episode a flap cycle.
	FlapPeriod time.Duration
	// FlapDuty is the fraction of each period spent down, in (0,1).
	// Zero defaults to 0.5.
	FlapDuty float64
}

// mode classifies the spec; used by Validate and Schedule.
func (s *Spec) flapping() bool { return s.FlapPeriod != 0 }

// duty returns the effective fraction of each flap period spent down.
func (s *Spec) duty() float64 {
	if s.FlapDuty == 0 {
		return 0.5
	}
	return s.FlapDuty
}

// downFor returns how long the component stays down each flap period.
func (s *Spec) downFor() time.Duration {
	return time.Duration(float64(s.FlapPeriod) * s.duty())
}

// Validate checks the spec against a fabric's component universe (a
// dual-rail cluster validates against topology.FromCluster of its
// shape, whose numbering and component names are the cluster's own).
// The index i is used in error messages so callers can report which
// entry of a schedule is broken.
func (s *Spec) Validate(f *topology.Fabric, i int) error {
	if int(s.Comp) < 0 || int(s.Comp) >= f.Components() {
		return fmt.Errorf("chaos: spec[%d]: component %d outside universe of %d (%s fabric, %d hosts)",
			i, int(s.Comp), f.Components(), f.Kind, f.Hosts())
	}
	name := f.Name(s.Comp)
	if s.Start < 0 {
		return fmt.Errorf("chaos: spec[%d] (%s): start %v before time zero", i, name, s.Start)
	}
	if s.Stop < 0 {
		return fmt.Errorf("chaos: spec[%d] (%s): negative stop %v", i, name, s.Stop)
	}
	if s.Stop != 0 && s.Stop <= s.Start {
		return fmt.Errorf("chaos: spec[%d] (%s): stop %v not after start %v", i, name, s.Stop, s.Start)
	}
	if s.Direction < netsim.DirBoth || s.Direction > netsim.DirRx {
		return fmt.Errorf("chaos: spec[%d] (%s): unknown direction %d", i, name, s.Direction)
	}
	if err := s.Impair.Validate(); err != nil {
		return fmt.Errorf("chaos: spec[%d] (%s): %v", i, name, err)
	}
	if s.FlapPeriod < 0 {
		return fmt.Errorf("chaos: spec[%d] (%s): flap period must be positive, got %v", i, name, s.FlapPeriod)
	}
	if s.FlapDuty < 0 || s.FlapDuty >= 1 {
		return fmt.Errorf("chaos: spec[%d] (%s): flap duty %v outside (0,1)", i, name, s.FlapDuty)
	}
	if s.FlapDuty != 0 && s.FlapPeriod == 0 {
		return fmt.Errorf("chaos: spec[%d] (%s): flap duty set without a flap period", i, name)
	}
	if s.flapping() && s.Kill {
		return fmt.Errorf("chaos: spec[%d] (%s): kill and flap are mutually exclusive (flapping already cycles the component down)", i, name)
	}
	if !s.Kill && !s.flapping() && s.Impair.IsZero() {
		return fmt.Errorf("chaos: spec[%d] (%s): episode does nothing (no impairment, kill or flap)", i, name)
	}
	if s.flapping() && s.downFor() <= 0 {
		return fmt.Errorf("chaos: spec[%d] (%s): flap period %v with duty %v rounds to zero down-time",
			i, name, s.FlapPeriod, s.duty())
	}
	return nil
}

// Validate checks a whole schedule against a fabric.
func Validate(specs []Spec, f *topology.Fabric) error {
	for i := range specs {
		if err := specs[i].Validate(f, i); err != nil {
			return err
		}
	}
	return nil
}

// Injector schedules a gray-failure script onto a simulated network.
// All events are installed up front at fixed simulated times (flap
// cycles reschedule themselves), so the injector adds no per-frame
// work and no nondeterminism.
type Injector struct {
	sched *simtime.Scheduler
	net   netsim.Net
	specs []Spec
}

// NewInjector validates the schedule against the network's component
// universe and returns an injector ready to Schedule.
func NewInjector(net netsim.Net, specs []Spec) (*Injector, error) {
	if err := Validate(specs, net.Fabric()); err != nil {
		return nil, err
	}
	return &Injector{sched: net.Scheduler(), net: net, specs: specs}, nil
}

// Schedule installs every episode, in spec order. Call once, before
// advancing the simulation past the earliest Start.
func (inj *Injector) Schedule() {
	for i := range inj.specs {
		inj.scheduleOne(&inj.specs[i])
	}
}

func (inj *Injector) scheduleOne(s *Spec) {
	at := func(t time.Duration, fn func()) { inj.sched.At(simtime.Time(t), fn) }

	if !s.Impair.IsZero() {
		imp := s.Impair
		comp := s.Comp
		at(s.Start, func() { _ = inj.net.SetImpairment(comp, imp) })
		if s.Stop > 0 {
			at(s.Stop, func() { inj.net.ClearImpairment(comp) })
		}
	}
	if s.Kill {
		comp, dir := s.Comp, s.Direction
		at(s.Start, func() { inj.net.FailDir(comp, dir) })
		if s.Stop > 0 {
			at(s.Stop, func() { inj.net.RestoreDir(comp, dir) })
		}
	}
	if s.flapping() {
		inj.scheduleFlap(s)
	}
}

// scheduleFlap installs one self-rescheduling flap cycle: down at each
// period start, up after the duty fraction, restored for good at Stop.
// A cycle whose down-edge would land at or past Stop never fires, so
// the component always ends the episode up.
func (inj *Injector) scheduleFlap(s *Spec) {
	comp, dir := s.Comp, s.Direction
	period, down := s.FlapPeriod, s.downFor()
	stop := s.Stop

	var cycle func()
	cycle = func() {
		now := inj.sched.Now().Duration()
		if stop > 0 && now >= stop {
			return
		}
		inj.net.FailDir(comp, dir)
		up := now + down
		if stop > 0 && up > stop {
			up = stop
		}
		inj.sched.At(simtime.Time(up), func() { inj.net.RestoreDir(comp, dir) })
		inj.sched.At(simtime.Time(now+period), cycle)
	}
	inj.sched.At(simtime.Time(s.Start), cycle)
}
