package nemesis

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// FuzzSchedule: a schedule Validate accepts runs to an outcome, without
// an error or a panic — the guarantee `drsnemesis -replay` gives a
// hand-written file. Schedules too costly to fuzz are skipped: above 5
// nodes, above 2 s of horizon plus settle, or timers faster than a
// 10 ms probe interval or a 1 ms flap period.
func FuzzSchedule(f *testing.F) {
	reg, err := os.ReadFile("../../cmd/drsnemesis/testdata/regression.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(reg)
	for seed := uint64(1); seed <= 4; seed++ {
		buf, err := json.Marshal(Generate(seed, Config{
			Nodes: 1 + int(seed), Horizon: 1500 * time.Millisecond, Settle: 500 * time.Millisecond,
		}))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Schedule
		if json.Unmarshal(data, &s) != nil || s.Validate() != nil {
			return
		}
		const budget = 2 * time.Second
		if s.Nodes > 5 || time.Duration(s.Horizon) > budget || time.Duration(s.Settle) > budget-time.Duration(s.Horizon) ||
			s.ProbeInterval != 0 && time.Duration(s.ProbeInterval) < 10*time.Millisecond {
			t.Skip("too costly to fuzz")
		}
		for _, e := range s.Episodes {
			if e.Kind == KindFlap && time.Duration(e.Period) < time.Millisecond {
				t.Skip("too costly to fuzz")
			}
		}
		if _, err := Run(s); err != nil {
			t.Fatalf("Validate accepted a schedule Run refuses: %v", err)
		}
	})
}
