package chaos

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"drsnet/internal/clock"
	"drsnet/internal/netsim"
	"drsnet/internal/simtime"
	"drsnet/internal/topology"
)

// netTarget drives a dual-rail simulated network; its tests script no
// node episodes.
type netTarget struct{ *netsim.Network }

func (netTarget) Crash(int, bool)            { panic("crash") }
func (netTarget) Restart(int)                { panic("restart") }
func (netTarget) SetSkew(int, time.Duration) { panic("skew") }

func newNet(t *testing.T) (*simtime.Scheduler, *netsim.Network) {
	t.Helper()
	sched := simtime.NewScheduler()
	net, err := netsim.New(sched, topology.Dual(3), netsim.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return sched, net
}

// schedule validates eps against the three-node cluster and installs
// them on net.
func schedule(t *testing.T, sched *simtime.Scheduler, net *netsim.Network, eps []Episode) {
	t.Helper()
	if err := Validate(eps, Shape{Nodes: 3, Rails: 2}, entry); err != nil {
		t.Fatal(err)
	}
	Schedule(simtime.Clock{Sched: sched}, eps, netTarget{net})
}

func entry(i int) string { return fmt.Sprintf("episodes[%d]", i) }

func runTo(sched *simtime.Scheduler, d time.Duration) {
	sched.RunUntil(simtime.Time(d))
}

// recorder is a Target that logs every verb at the clock's time.
type recorder struct {
	clk   clock.Clock
	calls []string
}

func (r *recorder) log(format string, args ...any) {
	r.calls = append(r.calls, fmt.Sprintf("%v %s", r.clk.Now(), fmt.Sprintf(format, args...)))
}

func (r *recorder) FailDir(c topology.Component, dir netsim.Direction) { r.log("down %d %v", c, dir) }
func (r *recorder) RestoreDir(c topology.Component, dir netsim.Direction) {
	r.log("up %d %v", c, dir)
}
func (r *recorder) SetImpairment(c topology.Component, imp netsim.Impairment) error {
	r.log("impair %d", c)
	return nil
}
func (r *recorder) ClearImpairment(c topology.Component) { r.log("clear %d", c) }
func (r *recorder) Partition(src, dst, rail int)         { r.log("cut %d>%d@%d", src, dst, rail) }
func (r *recorder) Heal(src, dst, rail int)              { r.log("heal %d>%d@%d", src, dst, rail) }
func (r *recorder) Crash(node int, warm bool)            { r.log("crash %d warm=%v", node, warm) }
func (r *recorder) Restart(node int)                     { r.log("restart %d", node) }
func (r *recorder) SetSkew(node int, d time.Duration)    { r.log("skew %d %v", node, d) }

// record validates eps against a four-node dual-rail cluster, runs
// them on a simulated clock to the horizon and returns the calls.
func record(t *testing.T, eps []Episode, horizon time.Duration) []string {
	t.Helper()
	if err := Validate(eps, Shape{Nodes: 4, Rails: 2}, entry); err != nil {
		t.Fatal(err)
	}
	sched := simtime.NewScheduler()
	rec := &recorder{clk: simtime.Clock{Sched: sched}}
	Schedule(rec.clk, eps, rec)
	runTo(sched, horizon)
	return rec.calls
}

func TestKillEpisode(t *testing.T) {
	sched, net := newNet(t)
	nic := net.Cluster().NIC(1, 0)
	schedule(t, sched, net, []Episode{{Comp: nic, Start: time.Second, Stop: 3 * time.Second, Kill: true}})

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
	schedule(t, sched, net, []Episode{{Comp: nic, Start: time.Second, Kill: true, Dir: netsim.DirTx}})
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
	schedule(t, sched, net, []Episode{{Comp: bp, Start: time.Second, Stop: 2 * time.Second, Impair: imp}})

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
	schedule(t, sched, net, []Episode{{
		Comp: nic, Start: time.Second, Stop: 3500 * time.Millisecond,
		FlapPeriod: time.Second, FlapDuty: 0.25,
	}})

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
	// Down phase [1, 1.8) would outlive stop = 1.5: the stop edge must
	// bring the component up so it ends the episode up.
	schedule(t, sched, net, []Episode{{
		Comp: nic, Start: time.Second, Stop: 1500 * time.Millisecond,
		FlapPeriod: time.Second, FlapDuty: 0.8,
	}})
	runTo(sched, 1400*time.Millisecond)
	if net.ComponentUp(nic) {
		t.Fatal("component up during the down phase")
	}
	runTo(sched, 1600*time.Millisecond)
	if !net.ComponentUp(nic) {
		t.Fatal("restore not clamped to the episode stop")
	}
}

// TestFlapToggleEdges: a component toggled every P from Start — the
// hermetic cluster's flap — is a flap of period 2P at duty 0.5. Its
// edges fall at Start + kP, and the last up edge lands at Stop.
func TestFlapToggleEdges(t *testing.T) {
	const p = 300 * time.Millisecond
	got := record(t, []Episode{{Comp: 3, Start: time.Second, Stop: 2050 * time.Millisecond, FlapPeriod: 2 * p}}, 5*time.Second)
	want := []string{
		"1s down 3 both", "1.3s up 3 both", "1.6s down 3 both", "1.9s up 3 both", "2.05s up 3 both",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("edges %q, want %q", got, want)
	}
}

func TestDefaultDutyIsHalf(t *testing.T) {
	e := Episode{FlapPeriod: time.Second}
	if got := e.downFor(); got != 500*time.Millisecond {
		t.Fatalf("default downFor = %v, want 500ms", got)
	}
}

func TestValidate(t *testing.T) {
	nic := topology.Dual(3).NIC(1, 0)
	cases := []struct {
		name string
		e    Episode
		want string // substring of the error; "" means valid
	}{
		{"kill ok", Episode{Comp: nic, Kill: true}, ""},
		{"impair ok", Episode{Comp: nic, Impair: netsim.Impairment{Loss: 0.1}}, ""},
		{"flap ok", Episode{Comp: nic, FlapPeriod: time.Second, FlapDuty: 0.3}, ""},
		{"bad component", Episode{Comp: topology.Component(99), Kill: true}, "component 99 outside universe of 8 (dualRail fabric, 3 hosts)"},
		{"negative component", Episode{Comp: topology.Component(-1), Kill: true}, "outside universe"},
		{"negative start", Episode{Comp: nic, Kill: true, Start: -time.Second}, "(nic(1,0)): start -1s before time zero"},
		{"negative stop", Episode{Comp: nic, Kill: true, Stop: -time.Second}, "stop -1s not after start 0s"},
		{"stop before start", Episode{Comp: nic, Kill: true, Start: 2 * time.Second, Stop: time.Second}, "not after start"},
		{"loss out of range", Episode{Comp: nic, Impair: netsim.Impairment{Loss: 1.5}}, "loss"},
		{"negative delay", Episode{Comp: nic, Impair: netsim.Impairment{Delay: -time.Second}}, "delay"},
		{"bad direction", Episode{Comp: nic, Kill: true, Dir: netsim.Direction(7)}, "unknown direction"},
		{"negative period", Episode{Comp: nic, FlapPeriod: -time.Second}, "flap period"},
		{"duty too high", Episode{Comp: nic, FlapPeriod: time.Second, FlapDuty: 1.0}, "flap duty"},
		{"duty without period", Episode{Comp: nic, Kill: true, FlapDuty: 0.5}, "without a flap period"},
		{"kill and flap", Episode{Comp: nic, Kill: true, FlapPeriod: time.Second}, "mutually exclusive"},
		{"does nothing", Episode{Comp: nic}, "does nothing"},
		{"period rounds to zero", Episode{Comp: nic, FlapPeriod: time.Nanosecond}, "flap period 1ns with duty 0.5 rounds to zero down-time"},
		{"unknown kind", Episode{Kind: 9}, "unknown kind 9"},
		{"skew ok", Episode{Kind: Skew, A: 2, Skew: time.Millisecond}, ""},
		{"skew without skew", Episode{Kind: Skew, A: 2}, "(node 2): skew 0s must be positive"},
		{"skew unknown node", Episode{Kind: Skew, A: 3, Skew: time.Millisecond}, "unknown node 3 (cluster of 3)"},
	}
	for _, c := range cases {
		err := Validate([]Episode{c.e}, Shape{Nodes: 3, Rails: 2}, entry)
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
	// The list-level check names the failing entry the caller's way.
	err := Validate([]Episode{{Comp: nic, Kill: true}, {Comp: nic}}, Shape{Nodes: 3, Rails: 2}, entry)
	if err == nil || !strings.HasPrefix(err.Error(), "chaos: episodes[1] (nic(1,0)): ") {
		t.Errorf("Validate = %v, want an episodes[1] error", err)
	}
}

// TestValidateHorizon: with a horizon every window must be closed and
// end by it; without one an open window lasts to the end of the run.
func TestValidateHorizon(t *testing.T) {
	sh := Shape{Nodes: 3, Rails: 2, Horizon: 5 * time.Second}
	ok := Episode{Kind: Crash, A: 1, Start: time.Second, Stop: 5 * time.Second}
	if err := Validate([]Episode{ok}, sh, entry); err != nil {
		t.Fatalf("window ending at the horizon rejected: %v", err)
	}
	for _, stop := range []time.Duration{0, 6 * time.Second} {
		e := ok
		e.Stop = stop
		if err := Validate([]Episode{e}, sh, entry); err == nil || !strings.Contains(err.Error(), "outside (0, horizon 5s]") {
			t.Errorf("stop %v: error %v, want the horizon rule", stop, err)
		}
	}
	if err := Validate([]Episode{{Kind: Partition, A: 0, B: 1}}, Shape{Nodes: 3, Rails: 2}, entry); err != nil {
		t.Errorf("open-ended partition without a horizon rejected: %v", err)
	}
}

func TestValidateCrashes(t *testing.T) {
	sec := func(s int) time.Duration { return time.Duration(s) * time.Second }
	crash := func(node int, at, restart time.Duration) Episode {
		return Episode{Kind: Crash, A: node, Start: at, Stop: restart}
	}
	cases := []struct {
		name    string
		eps     []Episode
		wantErr string // substring; empty = valid
	}{
		{"empty schedule", nil, ""},
		{"one-way crash", []Episode{crash(1, sec(5), 0)}, ""},
		{"warm restart", []Episode{{Kind: Crash, A: 1, Start: sec(5), Stop: sec(9), Warm: true}}, ""},
		{"sequential episodes", []Episode{crash(1, sec(5), sec(9)), crash(1, sec(20), sec(25))}, ""},
		{"crash at exact restart instant", []Episode{crash(1, sec(5), sec(9)), crash(1, sec(9), sec(12))}, ""},
		{"different nodes overlap freely", []Episode{crash(1, sec(5), sec(30)), crash(2, sec(10), sec(15))}, ""},
		{"unknown node", []Episode{crash(9, sec(5), 0)}, "unknown node 9"},
		{"negative node", []Episode{crash(-1, sec(5), 0)}, "unknown node -1"},
		{"negative time", []Episode{crash(1, -sec(1), 0)}, "before time zero"},
		{"restart before crash", []Episode{crash(1, sec(5), sec(3))}, "(node 1): stop 3s not after start 5s"},
		{"restart equals crash", []Episode{crash(1, sec(5), sec(5))}, "not after start"},
		{"warm without restart", []Episode{{Kind: Crash, A: 1, Start: sec(5), Warm: true}}, "never restarts"},
		{"second crash while dead", []Episode{crash(1, sec(5), sec(20)), crash(1, sec(10), sec(15))},
			"episodes[1] (node 1): crash window [10s,15s) overlaps episodes[0]"},
		{"crash after a final death", []Episode{crash(1, sec(5), 0), crash(1, sec(10), sec(15))}, "overlaps episodes[0]"},
		{"overlap detected out of spec order", []Episode{crash(1, sec(10), sec(15)), crash(1, sec(5), sec(12))}, "overlaps"},
	}
	for _, tc := range cases {
		err := Validate(tc.eps, Shape{Nodes: 4, Rails: 2}, entry)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestScheduleCrashes: each episode fires its crash (with the right
// warmth) and its restart at the scripted instants, in order.
func TestScheduleCrashes(t *testing.T) {
	got := record(t, []Episode{
		{Kind: Crash, A: 1, Start: 2 * time.Second, Stop: 5 * time.Second, Warm: true},
		{Kind: Crash, A: 2, Start: 3 * time.Second}, // never returns
	}, 10*time.Second)
	want := []string{"2s crash 1 warm=true", "3s crash 2 warm=false", "5s restart 1"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("calls %q, want %q", got, want)
	}
}

// TestValidatePartitions covers the rejection matrix with precise
// error substrings.
func TestValidatePartitions(t *testing.T) {
	part := func(a, b, rail int) Episode { return Episode{Kind: Partition, A: a, B: b, Rail: rail} }
	withDir := func(e Episode, d netsim.Direction) Episode { e.Dir = d; return e }
	within := func(e Episode, start, stop time.Duration) Episode { e.Start, e.Stop = start, stop; return e }
	fab, err := topology.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		e    Episode
		sh   Shape
		want string // "" = valid
	}{
		{"valid symmetric", within(part(0, 1, netsim.AllRails), time.Second, 2*time.Second), Shape{}, ""},
		{"valid asymmetric open-ended", withDir(part(2, 0, 1), netsim.DirTx), Shape{}, ""},
		{"bad node A", part(-1, 1, 0), Shape{}, "unknown node -1"},
		{"bad node B", part(0, 9, 0), Shape{}, "unknown node 9"},
		{"self partition", part(1, 1, 0), Shape{}, "partitioned from itself"},
		{"bad rail", part(0, 1, 2), Shape{}, "(0–1): rail 2 outside [0,2)"},
		{"negative rail other than all", part(0, 1, -7), Shape{}, "rail -7 outside [0,2)"},
		{"negative start", within(part(0, 1, 0), -time.Second, 0), Shape{}, "before time zero"},
		{"stop before start", within(part(0, 1, 0), 2*time.Second, time.Second), Shape{}, "not after start"},
		{"bad direction", withDir(part(0, 1, 0), netsim.Direction(9)), Shape{}, "unknown direction"},
		{"fabric", part(0, 1, 0), Shape{Fabric: fab}, `partitions are dual-rail only (fabric "fatTree")`},
	}
	for _, c := range cases {
		sh := c.sh
		sh.Nodes, sh.Rails = 3, 2
		err := Validate([]Episode{c.e}, sh, entry)
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want substring %q", c.name, err, c.want)
		}
	}
}

// TestSchedulePartitions: episodes land and heal at their instants,
// expanding Dir into the right directed cuts, and an open-ended
// episode never heals.
func TestSchedulePartitions(t *testing.T) {
	got := record(t, []Episode{
		{Kind: Partition, A: 0, B: 1, Rail: 0, Start: time.Second, Stop: 3 * time.Second},               // symmetric
		{Kind: Partition, A: 1, B: 2, Rail: netsim.AllRails, Start: 2 * time.Second, Dir: netsim.DirTx}, // open-ended, 1→2 only
		{Kind: Partition, A: 1, B: 3, Rail: 1, Start: 2 * time.Second, Stop: 4 * time.Second, Dir: netsim.DirRx},
	}, 10*time.Second)
	want := []string{
		"1s cut 0>1@0", "1s cut 1>0@0",
		"2s cut 1>2@-1",
		"2s cut 3>1@1",
		"3s heal 0>1@0", "3s heal 1>0@0",
		"4s heal 3>1@1",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("calls %q, want %q", got, want)
	}
}

// TestScheduleOnManualWall: the same scheduler drives the hermetic
// cluster's clock — a skew window and a flap land on a drained Wall at
// the instants, and in the order, they land on the simulator: edges
// armed at install (the skew's stop) run before edges a flap armed
// later for the same instant.
func TestScheduleOnManualWall(t *testing.T) {
	eps := []Episode{
		{Kind: Skew, A: 2, Skew: 30 * time.Millisecond, Start: 100 * time.Millisecond, Stop: 200 * time.Millisecond},
		{Comp: 0, FlapPeriod: 100 * time.Millisecond, Start: 150 * time.Millisecond, Stop: 260 * time.Millisecond},
	}
	w := clock.NewManual()
	rec := &recorder{clk: w}
	Schedule(w, eps, rec)
	w.RunUntil(time.Second)
	want := []string{
		"100ms skew 2 30ms", "150ms down 0 both", "200ms skew 2 0s", "200ms up 0 both",
		"250ms down 0 both", "260ms up 0 both",
	}
	if !reflect.DeepEqual(rec.calls, want) {
		t.Fatalf("calls %q, want %q", rec.calls, want)
	}
	if sim := record(t, eps, time.Second); !reflect.DeepEqual(sim, want) {
		t.Fatalf("simulator calls %q, want %q", sim, want)
	}
}

// TestScheduleAllocatesPerEpisode: arming a schedule allocates one
// record per episode, and a flap's edges allocate nothing however many
// there are.
func TestScheduleAllocatesPerEpisode(t *testing.T) {
	nop := nopTarget{&recorder{}}
	run := func(length time.Duration) float64 {
		w := clock.NewManual()
		eps := make([]Episode, 1)
		flap := func() {
			now := w.Now()
			eps[0] = Episode{Comp: 0, FlapPeriod: 2 * time.Millisecond, Start: now + time.Millisecond, Stop: now + length}
			Schedule(w, eps, nop)
			w.Advance(length)
		}
		flap() // warm the clock's timer pool
		return testing.AllocsPerRun(10, flap)
	}
	if short, long := run(10*time.Millisecond), run(time.Second); short != 1 || long != 1 {
		t.Fatalf("a flap of 5 cycles allocates %v objects, one of 500 cycles %v; want 1 (the record)", short, long)
	}
}

// nopTarget ignores every verb.
type nopTarget struct{ *recorder }

func (nopTarget) FailDir(topology.Component, netsim.Direction)    {}
func (nopTarget) RestoreDir(topology.Component, netsim.Direction) {}

func TestParseDirection(t *testing.T) {
	for s, want := range map[string]netsim.Direction{"": netsim.DirBoth, "both": netsim.DirBoth, "tx": netsim.DirTx, "rx": netsim.DirRx} {
		if got, err := ParseDirection(s); err != nil || got != want {
			t.Errorf("ParseDirection(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseDirection("up"); err == nil || err.Error() != `direction "up" (want both, tx or rx)` {
		t.Errorf("ParseDirection(up) error %v", err)
	}
}
