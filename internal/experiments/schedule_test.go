package experiments

import (
	"math"
	"testing"
	"time"

	"drsnet/internal/runtime"
	"drsnet/internal/topology"
)

func TestRandomScheduleShape(t *testing.T) {
	cluster := topology.Dual(8)
	cfg := ScheduleConfig{
		Horizon: 100 * time.Hour,
		MTBF:    20 * time.Hour,
		MTTR:    time.Hour,
		Seed:    5,
	}
	sched, err := RandomSchedule(cluster, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) == 0 {
		t.Fatal("empty schedule at MTBF << horizon")
	}
	prev := time.Duration(-1)
	state := make(map[topology.Component]bool) // true = currently down
	for _, f := range sched {
		if f.At < prev {
			t.Fatal("schedule not time ordered")
		}
		prev = f.At
		if f.At < 0 || f.At >= cfg.Horizon {
			t.Fatalf("fault at %v outside horizon", f.At)
		}
		if int(f.Comp) < 0 || int(f.Comp) >= cluster.Components() {
			t.Fatalf("component %d out of range", f.Comp)
		}
		// Alternation per component: a fail only when up, a repair
		// only when down.
		if f.Restore {
			if !state[f.Comp] {
				t.Fatalf("repair of a healthy component %v", f.Comp)
			}
			state[f.Comp] = false
		} else {
			if state[f.Comp] {
				t.Fatalf("double failure of %v", f.Comp)
			}
			state[f.Comp] = true
		}
	}
}

func TestRandomScheduleDeterministic(t *testing.T) {
	cluster := topology.Dual(4)
	cfg := ScheduleConfig{Horizon: 50 * time.Hour, MTBF: 10 * time.Hour, MTTR: time.Hour, Seed: 9}
	a, err := RandomSchedule(cluster, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomSchedule(cluster, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("nondeterministic length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault %d differs", i)
		}
	}
}

func TestScheduleValidation(t *testing.T) {
	cluster := topology.Dual(4)
	bad := ScheduleConfig{Horizon: 0, MTBF: time.Hour, MTTR: time.Hour}
	if _, err := RandomSchedule(cluster, bad); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := RandomSchedule(topology.Cluster{Nodes: 1, Rails: 2},
		ScheduleConfig{Horizon: time.Hour, MTBF: time.Hour, MTTR: time.Minute}); err == nil {
		t.Error("bad cluster accepted")
	}
}

func TestDowntimeAccounting(t *testing.T) {
	cluster := topology.Dual(2)
	comp := cluster.NIC(0, 0)
	s := []runtime.Fault{
		{At: time.Hour, Comp: comp},
		{At: 2 * time.Hour, Comp: comp, Restore: true},
		{At: 4 * time.Hour, Comp: comp},
	}
	down := downtime(s, 5*time.Hour)
	if got := down[comp]; got != 2*time.Hour {
		t.Fatalf("downtime = %v, want 2h (1h repaired + 1h truncated)", got)
	}
}

func TestDowntimeRatioMatchesMTTR(t *testing.T) {
	cluster := topology.Dual(16)
	cfg := ScheduleConfig{
		Horizon: 2000 * time.Hour,
		MTBF:    50 * time.Hour,
		MTTR:    5 * time.Hour,
		Seed:    13,
	}
	sched, err := RandomSchedule(cluster, cfg)
	if err != nil {
		t.Fatal(err)
	}
	down := downtime(sched, cfg.Horizon)
	var total time.Duration
	for _, d := range down {
		total += d
	}
	// Expected unavailability ≈ MTTR/(MTBF+MTTR) ≈ 9.1%.
	frac := float64(total) / (float64(cfg.Horizon) * float64(cluster.Components()))
	want := float64(cfg.MTTR) / float64(cfg.MTBF+cfg.MTTR)
	if math.Abs(frac-want) > 0.03 {
		t.Fatalf("downtime fraction %v, want ≈ %v", frac, want)
	}
}

// downtime returns the total scheduled down-time per component over
// the horizon (useful for sanity-checking MTTR calibration).
func downtime(s []runtime.Fault, horizon time.Duration) map[topology.Component]time.Duration {
	downSince := make(map[topology.Component]time.Duration)
	total := make(map[topology.Component]time.Duration)
	for _, f := range s {
		if !f.Restore {
			if _, down := downSince[f.Comp]; !down {
				downSince[f.Comp] = f.At
			}
		} else if since, down := downSince[f.Comp]; down {
			total[f.Comp] += f.At - since
			delete(downSince, f.Comp)
		}
	}
	for comp, since := range downSince {
		total[comp] += horizon - since
	}
	return total
}
