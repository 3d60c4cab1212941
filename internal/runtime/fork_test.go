package runtime

import (
	"reflect"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"drsnet/internal/chaos"
	"drsnet/internal/invariant"
	"drsnet/internal/linkmon"
	"drsnet/internal/netsim"
	"drsnet/internal/overload"
	"drsnet/internal/routing"
	"drsnet/internal/topology"
)

// forkSpec is a DRS cluster of n nodes with one 0→1 flow and the given
// components failing at 3 s.
func forkSpec(n int, comps ...topology.Component) ClusterSpec {
	spec := ClusterSpec{
		Nodes:    n,
		Seed:     7,
		Duration: 6 * time.Second,
		Tunables: Tunables{ProbeInterval: 500 * time.Millisecond, MissThreshold: 2},
		Flows:    []Flow{{From: 0, To: 1, Interval: 100 * time.Millisecond, Payload: []byte("c")}},
	}
	for _, c := range comps {
		spec.Faults = append(spec.Faults, Fault{At: 3 * time.Second, Comp: c})
	}
	return spec
}

// rtoForkSpec is forkSpec with adaptive deadlines on.
func rtoForkSpec(n int, comps ...topology.Component) ClusterSpec {
	spec := forkSpec(n, comps...)
	spec.Tunables.AdaptiveRTO = linkmon.DefaultRTO()
	return spec
}

// startCluster builds, starts and schedules spec, run to at.
func startCluster(t testing.TB, spec ClusterSpec, at time.Duration) *Cluster {
	t.Helper()
	c, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	c.ScheduleFlows()
	c.ScheduleFaults()
	c.RunUntil(at)
	return c
}

// finishRun drives c to its horizon and collects its Result.
func finishRun(c *Cluster) *Result {
	c.RunUntil(c.Spec().Duration)
	c.StopRouters()
	return c.Finish()
}

// sameResult fails t unless got and want are the same outcome: the
// spec, flows with delivery times, repairs, counters, utilization and
// trace events.
func sameResult(t testing.TB, what string, got, want *Result) {
	t.Helper()
	gs, ws := got.Spec, want.Spec
	gs.Trace, ws.Trace = nil, nil
	if !reflect.DeepEqual(gs, ws) {
		t.Fatalf("%s: spec %+v, want %+v", what, gs, ws)
	}
	if !reflect.DeepEqual(got.Flows, want.Flows) {
		t.Fatalf("%s: flows %+v, want %+v", what, got.Flows, want.Flows)
	}
	if !reflect.DeepEqual(got.Repairs, want.Repairs) {
		t.Fatalf("%s: repairs %+v, want %+v", what, got.Repairs, want.Repairs)
	}
	if !reflect.DeepEqual(got.Counters, want.Counters) {
		t.Fatalf("%s: counters %v, want %v", what, got.Counters, want.Counters)
	}
	if !reflect.DeepEqual(got.Utilization, want.Utilization) {
		t.Fatalf("%s: utilization %v, want %v", what, got.Utilization, want.Utilization)
	}
	if g, w := got.Trace.Events(), want.Trace.Events(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: %d trace events, want %d", what, len(g), len(w))
	}
}

// inFlight counts the unicast frames on rail sent but neither
// delivered nor dropped yet.
func inFlight(n netsim.Net, rail int) int64 {
	s := n.Stats(rail)
	return s.FramesSent - s.FramesDelivered - s.DroppedTxNIC - s.DroppedSegment - s.DroppedRxNIC -
		s.DroppedLoss - s.DroppedImpaired - s.DroppedNodeDown - s.DroppedPartitioned
}

// forkInstants are the fork points: just after a probe round, with
// frames in flight on both rails; a probe-round instant, where the
// faults land too; and a point between two flow sends with nothing on
// the wire.
var forkInstants = []struct {
	name string
	at   time.Duration
	wire string // "both": frames in flight on both rails; "idle": none
}{
	{"in-flight", 2500*time.Millisecond + 20*time.Microsecond, "both"},
	{"probe-round", 3 * time.Second, ""},
	{"between-sends", 2750 * time.Millisecond, "idle"},
}

// TestForkMatchesFreshRun: a fork run to the horizon gives the whole
// Result an unforked run of the same spec gives, on 6 and 12 nodes
// with no fault, one and two, forked with frames in flight, at a probe
// round and between sends. With adaptive deadlines on, deadlines are
// pending at each fork instant, and the NIC that fails after it makes
// them expire in the fork.
func TestForkMatchesFreshRun(t *testing.T) {
	for _, spec := range []ClusterSpec{
		forkSpec(6),
		forkSpec(6, 0),
		forkSpec(6, 0, 3),
		forkSpec(12, 24),
		forkSpec(12, 2, 25),
		rtoForkSpec(6, 0),
	} {
		want, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Tunables.AdaptiveRTO.Enabled() {
			var expired int64
			for _, ctr := range want.Counters {
				expired += ctr[routing.CtrRTOExpired]
			}
			if expired == 0 {
				t.Fatal("no adaptive deadline expired after the fault")
			}
		}
		for _, in := range forkInstants {
			src := startCluster(t, spec, in.at)
			for rail := 0; rail < 2 && in.wire != ""; rail++ {
				if n := inFlight(src.Net(), rail); (n > 0) != (in.wire == "both") {
					t.Fatalf("%d nodes, %s: %d frames in flight on rail %d", spec.Nodes, in.name, n, rail)
				}
			}
			if spec.Tunables.AdaptiveRTO.Enabled() {
				// The same cluster without adaptive deadlines sends the
				// same frames: every event more is a deadline.
				plain := spec
				plain.Tunables.AdaptiveRTO = linkmon.RTO{}
				if n, m := src.Scheduler().Pending(), startCluster(t, plain, in.at).Scheduler().Pending(); n <= m {
					t.Fatalf("%s: %d events pending with adaptive deadlines, %d without", in.name, n, m)
				}
			}
			f, err := src.Fork()
			if err != nil {
				t.Fatalf("%d nodes, %s: %v", spec.Nodes, in.name, err)
			}
			sameResult(t, in.name+" fork", finishRun(f), want)
		}
	}
}

// TestForkLeavesSourceIntact: forking does not perturb the source,
// which runs on to the Result of a run that never forked.
func TestForkLeavesSourceIntact(t *testing.T) {
	spec := forkSpec(6, 0, 3)
	want, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	src := startCluster(t, spec, forkInstants[0].at)
	f, err := src.Fork()
	if err != nil {
		t.Fatal(err)
	}
	f.RunUntil(4 * time.Second)
	sameResult(t, "source", finishRun(src), want)
	sameResult(t, "fork", finishRun(f), want)
}

// TestForkConcurrent: goroutines forking one prefix at once each get
// the unforked Result (run it under -race).
func TestForkConcurrent(t *testing.T) {
	spec := forkSpec(6, 0)
	want, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	src := startCluster(t, spec, forkInstants[0].at)
	var wg sync.WaitGroup
	results := make([]*Result, 8)
	errs := make([]error, len(results))
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, err := src.Fork()
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = finishRun(f)
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		sameResult(t, "concurrent fork", res, want)
	}
}

// TestForkSetFaults: a fork of a prefix whose fault slots lie ahead,
// filled with SetFaults, gives the Result of a cluster built with those
// faults; unfilled slots do nothing.
func TestForkSetFaults(t *testing.T) {
	src := startCluster(t, forkSpec(6, 0, 0), 2900*time.Millisecond)
	for _, comps := range [][]topology.Component{nil, {13}, {0, 3}} {
		spec := forkSpec(6, comps...)
		want, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		f, err := src.Fork()
		if err != nil {
			t.Fatal(err)
		}
		if err := f.SetFaults(spec.Faults); err != nil {
			t.Fatal(err)
		}
		got := finishRun(f)
		sameResult(t, "filled fork", got, want)
		if err := f.SetFaults(spec.Faults); err == nil {
			t.Fatal("SetFaults accepted slots that fired")
		}
	}
	if err := src.SetFaults([]Fault{{At: time.Second}}); err == nil {
		t.Fatal("SetFaults accepted a fault off its slot's instant")
	}
}

// TestForkRefuses: Fork names each thing it cannot copy.
func TestForkRefuses(t *testing.T) {
	crash := forkSpec(4)
	crash.Episodes = []chaos.Episode{{Kind: chaos.Crash, A: 1, Start: 5 * time.Second}}
	episode := forkSpec(4)
	episode.Episodes = []chaos.Episode{{Kind: chaos.Component, Comp: 0, Kill: true, Start: 5 * time.Second}}
	lossy := forkSpec(4, 2, 3) // node 1 loses both NICs: node 0 keeps asking for it
	for _, c := range []struct {
		name  string
		spec  func(*ClusterSpec)
		setup func(*Cluster)
		at    time.Duration
		want  string
	}{
		{"fabric", func(s *ClusterSpec) {
			s.Nodes, s.Topology = 0, TopologySpec{Kind: "fatTree", K: 2}
			s.Flows[0].To = 1
		}, nil, time.Second, "fabric"},
		{"protocol", func(s *ClusterSpec) { s.Protocol = ProtoReactive }, nil, time.Second, "only DRS"},
		{"overload", func(s *ClusterSpec) { s.Tunables.Overload = overload.Default() }, nil, time.Second, "overload"},
		{"invariant", func(s *ClusterSpec) { s.Invariant = &invariant.Config{} }, nil, time.Second, "invariant checker"},
		{"stagger", func(s *ClusterSpec) { s.Tunables.StaggerProbes = true }, nil, time.Second, "staggered"},
		{"switched", func(s *ClusterSpec) { s.Switched = true }, nil, time.Second, "switched"},
		{"chaos", func(s *ClusterSpec) { *s = episode }, nil, time.Second, "chaos episode"},
		{"lifecycle", func(s *ClusterSpec) { *s = crash }, nil, time.Second, "lifecycle restart"},
		{"impairment", nil, func(c *Cluster) {
			if err := c.Net().SetImpairment(0, netsim.Impairment{Delay: time.Millisecond}); err != nil {
				t.Fatal(err)
			}
		}, 2 * time.Second, "impairment delay"},
		{"discovery", func(s *ClusterSpec) { *s = lossy }, nil, 5 * time.Second, "discovery timeout"},
		{"closure", nil, func(c *Cluster) { c.Scheduler().After(time.Hour, func() {}) }, time.Second, "closure event"},
	} {
		t.Run(c.name, func(t *testing.T) {
			spec := forkSpec(4)
			if c.spec != nil {
				c.spec(&spec)
			}
			src, err := Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := src.Start(); err != nil {
				t.Fatal(err)
			}
			src.ScheduleFlows()
			src.ScheduleFaults()
			if c.setup != nil {
				c.setup(src)
			}
			src.RunUntil(c.at)
			if _, err := src.Fork(); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("Fork error %v, want one naming %q", err, c.want)
			}
		})
	}
}

// FuzzFork: for any fork instant up to the failure, any set of at most
// two failing components and adaptive deadlines on or off, the forked
// run gives the Result of the unforked one.
func FuzzFork(f *testing.F) {
	f.Add(uint64(2500*time.Millisecond+20*time.Microsecond), uint8(0), uint8(3), uint8(2), true)
	f.Add(uint64(3*time.Second), uint8(8), uint8(9), uint8(1), false)
	f.Add(uint64(0), uint8(1), uint8(2), uint8(0), true)
	f.Fuzz(func(t *testing.T, at uint64, a, b, n uint8, rto bool) {
		const comps = 10 // 4 nodes: 8 NICs, 2 back planes
		fork := time.Duration(at % uint64(3*time.Second+1))
		spec := forkSpec(4, topology.Component(a%comps), topology.Component(b%comps))
		if rto {
			spec = rtoForkSpec(4, topology.Component(a%comps), topology.Component(b%comps))
		}
		spec.Faults = spec.Faults[:n%3]
		spec.Duration = 5 * time.Second
		want, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		fc, err := startCluster(t, spec, fork).Fork()
		if err != nil {
			t.Fatalf("fork at %v: %v", fork, err)
		}
		sameResult(t, "fork at "+fork.String(), finishRun(fc), want)
	})
}

// TestForkRunsWarm: a fork draws its frame records and send scratch
// from stores as large as its source's, so a probe round run on a fork
// taken between rounds allocates about what the source allocates
// running the same round, not a record per frame in flight.
func TestForkRunsWarm(t *testing.T) {
	const at, until = 2750 * time.Millisecond, 3600 * time.Millisecond
	src := startCluster(t, forkSpec(12), at)
	fork := func() *Cluster {
		f, err := src.Fork()
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	forkOnly := testing.AllocsPerRun(5, func() { fork() })
	forkRun := testing.AllocsPerRun(5, func() { fork().RunUntil(until) })
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	src.RunUntil(until)
	goruntime.ReadMemStats(&m1)
	// A fork's delivery lists are cut to length, so its first
	// deliveries may grow them where the source's had room.
	const slack = 8
	if run, srcRun := forkRun-forkOnly, float64(m1.Mallocs-m0.Mallocs); run > srcRun+slack {
		t.Fatalf("a fork ran the round in %v allocations, its source in %v", run, srcRun)
	}
}
