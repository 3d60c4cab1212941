package chaos

import (
	"strings"
	"testing"
	"time"

	"drsnet/internal/netsim"
	"drsnet/internal/simtime"
	"drsnet/internal/topology"
)

func newNet(t *testing.T) (*simtime.Scheduler, *netsim.Network) {
	t.Helper()
	sched := simtime.NewScheduler()
	net, err := netsim.New(sched, topology.Dual(3), netsim.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return sched, net
}

func runTo(sched *simtime.Scheduler, d time.Duration) {
	sched.RunUntil(simtime.Time(d))
}

func TestKillEpisode(t *testing.T) {
	sched, net := newNet(t)
	nic := net.Cluster().NIC(1, 0)
	inj, err := NewInjector(net, []Spec{{Comp: nic, Start: time.Second, Stop: 3 * time.Second, Kill: true}})
	if err != nil {
		t.Fatal(err)
	}
	inj.Schedule()

	runTo(sched, 500*time.Millisecond)
	if !net.ComponentUp(nic) {
		t.Fatal("component down before the episode starts")
	}
	runTo(sched, 1500*time.Millisecond)
	if net.ComponentUp(nic) {
		t.Fatal("component up mid-episode")
	}
	runTo(sched, 3500*time.Millisecond)
	if !net.ComponentUp(nic) {
		t.Fatal("component not restored after the episode")
	}
}

func TestUnidirectionalKill(t *testing.T) {
	sched, net := newNet(t)
	nic := net.Cluster().NIC(0, 1)
	inj, err := NewInjector(net, []Spec{{Comp: nic, Start: time.Second, Kill: true, Direction: netsim.DirTx}})
	if err != nil {
		t.Fatal(err)
	}
	inj.Schedule()
	runTo(sched, 2*time.Second)
	if net.DirUp(nic, netsim.DirTx) {
		t.Fatal("tx half still up")
	}
	if !net.DirUp(nic, netsim.DirRx) {
		t.Fatal("rx half went down too — kill was not unidirectional")
	}
	// Stop == 0: the episode lasts forever.
	runTo(sched, time.Hour)
	if net.DirUp(nic, netsim.DirTx) {
		t.Fatal("open-ended kill was restored")
	}
}

func TestImpairEpisode(t *testing.T) {
	sched, net := newNet(t)
	bp := net.Cluster().Backplane(0)
	imp := netsim.Impairment{Loss: 0.3, Delay: time.Millisecond}
	inj, err := NewInjector(net, []Spec{{Comp: bp, Start: time.Second, Stop: 2 * time.Second, Impair: imp}})
	if err != nil {
		t.Fatal(err)
	}
	inj.Schedule()

	runTo(sched, 1500*time.Millisecond)
	got, ok := net.ImpairmentOn(bp)
	if !ok || got != imp {
		t.Fatalf("mid-episode impairment = %+v, %v; want %+v", got, ok, imp)
	}
	if !net.ComponentUp(bp) {
		t.Fatal("impairment should degrade, not kill")
	}
	runTo(sched, 2500*time.Millisecond)
	if _, ok := net.ImpairmentOn(bp); ok {
		t.Fatal("impairment not cleared at stop")
	}
}

func TestFlapCycle(t *testing.T) {
	sched, net := newNet(t)
	nic := net.Cluster().NIC(2, 0)
	inj, err := NewInjector(net, []Spec{{
		Comp: nic, Start: time.Second, Stop: 3500 * time.Millisecond,
		FlapPeriod: time.Second, FlapDuty: 0.25,
	}})
	if err != nil {
		t.Fatal(err)
	}
	inj.Schedule()

	// Period 1 s, duty 0.25: down during [1,1.25), [2,2.25), [3,3.25);
	// up otherwise; no cycle starts at or after stop = 3.5 s.
	checks := []struct {
		at time.Duration
		up bool
	}{
		{900 * time.Millisecond, true},
		{1100 * time.Millisecond, false},
		{1600 * time.Millisecond, true},
		{2100 * time.Millisecond, false},
		{2600 * time.Millisecond, true},
		{3100 * time.Millisecond, false},
		{3300 * time.Millisecond, true},
		{4100 * time.Millisecond, true}, // stopped: no fourth down edge
		{10 * time.Second, true},
	}
	for _, c := range checks {
		runTo(sched, c.at)
		if got := net.ComponentUp(nic); got != c.up {
			t.Fatalf("at %v: up = %v, want %v", c.at, got, c.up)
		}
	}
}

func TestFlapDownEdgeClampedAtStop(t *testing.T) {
	sched, net := newNet(t)
	nic := net.Cluster().NIC(0, 0)
	// Down phase [1, 1.8) would outlive stop = 1.5: the restore must be
	// clamped so the component ends the episode up.
	inj, err := NewInjector(net, []Spec{{
		Comp: nic, Start: time.Second, Stop: 1500 * time.Millisecond,
		FlapPeriod: time.Second, FlapDuty: 0.8,
	}})
	if err != nil {
		t.Fatal(err)
	}
	inj.Schedule()
	runTo(sched, 1400*time.Millisecond)
	if net.ComponentUp(nic) {
		t.Fatal("component up during the down phase")
	}
	runTo(sched, 1600*time.Millisecond)
	if !net.ComponentUp(nic) {
		t.Fatal("restore not clamped to the episode stop")
	}
}

func TestDefaultDutyIsHalf(t *testing.T) {
	s := Spec{FlapPeriod: time.Second}
	if got := s.downFor(); got != 500*time.Millisecond {
		t.Fatalf("default downFor = %v, want 500ms", got)
	}
}

func TestValidate(t *testing.T) {
	cl := topology.Dual(3)
	nic := cl.NIC(1, 0)
	fab, err := topology.FromCluster(cl)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		spec Spec
		want string // substring of the error; "" means valid
	}{
		{"kill ok", Spec{Comp: nic, Kill: true}, ""},
		{"impair ok", Spec{Comp: nic, Impair: netsim.Impairment{Loss: 0.1}}, ""},
		{"flap ok", Spec{Comp: nic, FlapPeriod: time.Second, FlapDuty: 0.3}, ""},
		{"bad component", Spec{Comp: topology.Component(99), Kill: true}, "component 99 outside universe"},
		{"negative component", Spec{Comp: topology.Component(-1), Kill: true}, "outside universe"},
		{"negative start", Spec{Comp: nic, Kill: true, Start: -time.Second}, "before time zero"},
		{"stop before start", Spec{Comp: nic, Kill: true, Start: 2 * time.Second, Stop: time.Second}, "not after start"},
		{"loss out of range", Spec{Comp: nic, Impair: netsim.Impairment{Loss: 1.5}}, "loss"},
		{"negative delay", Spec{Comp: nic, Impair: netsim.Impairment{Delay: -time.Second}}, "delay"},
		{"bad direction", Spec{Comp: nic, Kill: true, Direction: netsim.Direction(7)}, "unknown direction"},
		{"negative period", Spec{Comp: nic, FlapPeriod: -time.Second}, "flap period"},
		{"duty too high", Spec{Comp: nic, FlapPeriod: time.Second, FlapDuty: 1.0}, "flap duty"},
		{"duty without period", Spec{Comp: nic, Kill: true, FlapDuty: 0.5}, "without a flap period"},
		{"kill and flap", Spec{Comp: nic, Kill: true, FlapPeriod: time.Second}, "mutually exclusive"},
		{"does nothing", Spec{Comp: nic}, "does nothing"},
		{"period rounds to zero", Spec{Comp: nic, FlapPeriod: time.Nanosecond}, "flap period 1ns with duty 0.5 rounds to zero down-time"},
	}
	for _, c := range cases {
		err := c.spec.Validate(fab, 0)
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error = %v, want substring %q", c.name, err, c.want)
		}
	}
	// The schedule-level helper reports the failing index.
	err = Validate([]Spec{{Comp: nic, Kill: true}, {Comp: nic}}, fab)
	if err == nil || !strings.Contains(err.Error(), "spec[1]") {
		t.Errorf("Validate = %v, want spec[1] error", err)
	}
}
