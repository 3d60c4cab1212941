package transport

import (
	"bytes"
	"testing"
	"time"

	"drsnet/internal/clock"
)

// faultyPair builds a 3-node Mem fabric on a manual clock with every
// node wrapped by one shared Faults controller, and per-node delivery
// recorders.
func faultyPair(t *testing.T, seed uint64) (*clock.Wall, *Faults, []Transport, []*[]string) {
	t.Helper()
	clk := clock.NewManual()
	mem := NewMem(3, 2, clk, 100*time.Microsecond)
	f := NewFaults(seed, clk)
	trs := make([]Transport, 3)
	logs := make([]*[]string, 3)
	for i := range trs {
		trs[i] = f.Wrap(mem.Node(i))
		log := &[]string{}
		logs[i] = log
		trs[i].SetReceiver(func(rail, src int, payload []byte) {
			*log = append(*log, string(payload))
		})
	}
	return clk, f, trs, logs
}

// TestFaultyPassThrough: a zero-spec controller is invisible — frames
// arrive exactly as the inner transport delivered them.
func TestFaultyPassThrough(t *testing.T) {
	clk, f, trs, logs := faultyPair(t, 1)
	if trs[0].Node() != 0 || trs[0].Nodes() != 3 || trs[0].Rails() != 2 {
		t.Fatalf("identity not delegated: node=%d nodes=%d rails=%d",
			trs[0].Node(), trs[0].Nodes(), trs[0].Rails())
	}
	if err := trs[0].Send(0, 1, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := trs[1].Send(1, 0, []byte("back")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Millisecond)
	if len(*logs[1]) != 1 || (*logs[1])[0] != "hello" {
		t.Fatalf("node 1 got %v", *logs[1])
	}
	if len(*logs[0]) != 1 || (*logs[0])[0] != "back" {
		t.Fatalf("node 0 got %v", *logs[0])
	}
	if st := f.Stats(); st.Delivered != 2 || st.Dropped+st.Corrupted+st.Partitioned != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestFaultyAsymmetricPartition: a directed cut eats one direction of
// one pair — the reverse direction, other pairs, and broadcast to
// unpartitioned nodes still deliver — and healing restores it.
func TestFaultyAsymmetricPartition(t *testing.T) {
	clk, f, trs, logs := faultyPair(t, 2)
	f.Partition(0, 1, AllRails)

	if err := trs[0].Send(0, Broadcast, []byte("from0")); err != nil {
		t.Fatal(err)
	}
	if err := trs[1].Send(0, 0, []byte("from1")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Millisecond)
	if len(*logs[1]) != 0 {
		t.Fatalf("partitioned node 1 heard %v", *logs[1])
	}
	if len(*logs[2]) != 1 {
		t.Fatalf("bystander node 2 got %v", *logs[2])
	}
	if len(*logs[0]) != 1 || (*logs[0])[0] != "from1" {
		t.Fatalf("reverse direction blocked: node 0 got %v", *logs[0])
	}
	if st := f.Stats(); st.Partitioned != 1 {
		t.Fatalf("partitioned count %d, want 1", st.Partitioned)
	}

	f.Heal(0, 1, AllRails)
	if err := trs[0].Send(0, 1, []byte("healed")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Millisecond)
	if len(*logs[1]) != 1 || (*logs[1])[0] != "healed" {
		t.Fatalf("post-heal node 1 got %v", *logs[1])
	}
}

// TestFaultyDropAndDeterminism: a lossy controller drops a seeded,
// replayable subset — same seed, same survivors; different seed,
// (overwhelmingly) different ones.
func TestFaultyDropAndDeterminism(t *testing.T) {
	deliverPattern := func(seed uint64) string {
		clk, f, trs, logs := faultyPair(t, seed)
		f.SetSpec(FaultSpec{Drop: 0.5})
		for i := 0; i < 64; i++ {
			if err := trs[0].Send(0, 1, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
			clk.Advance(200 * time.Microsecond)
		}
		pat := make([]byte, 0, 64)
		for _, s := range *logs[1] {
			pat = append(pat, s[0])
		}
		return string(pat)
	}
	a, b, c := deliverPattern(42), deliverPattern(42), deliverPattern(43)
	if a != b {
		t.Fatalf("same seed diverged:\n%x\n%x", a, b)
	}
	if a == c {
		t.Fatal("different seeds produced identical drop patterns")
	}
	if len(a) == 0 || len(a) == 64 {
		t.Fatalf("drop 0.5 delivered %d/64 frames", len(a))
	}
}

// TestFaultyDuplicateCorruptReorder: each impairment does what it says
// — dup doubles a frame, corrupt flips exactly one byte of a copy,
// reorder holds a frame back past its successors.
func TestFaultyDuplicateCorruptReorder(t *testing.T) {
	// Duplicate everything: every frame arrives exactly twice.
	clk, f, trs, logs := faultyPair(t, 4)
	f.SetSpec(FaultSpec{Duplicate: 1})
	if err := trs[0].Send(0, 1, []byte("dup")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Millisecond)
	if got := *logs[1]; len(got) != 2 || got[0] != "dup" || got[1] != "dup" {
		t.Fatalf("duplicate: got %v", got)
	}

	// Corrupt everything: one byte differs, length preserved, and the
	// sender's buffer is untouched.
	clk, f, trs, logs = faultyPair(t, 5)
	f.SetSpec(FaultSpec{Corrupt: 1})
	orig := []byte("payload")
	sent := append([]byte(nil), orig...)
	if err := trs[0].Send(0, 1, sent); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Millisecond)
	if !bytes.Equal(sent, orig) {
		t.Fatal("corruption mutated the sender's buffer")
	}
	got := (*logs[1])[0]
	if len(got) != len(orig) {
		t.Fatalf("corrupt changed length: %d vs %d", len(got), len(orig))
	}
	diff := 0
	for i := range orig {
		if got[i] != orig[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corrupt flipped %d bytes, want exactly 1", diff)
	}

	// Reorder everything with a hold longer than the spacing between
	// two frames: the second frame overtakes the first.
	clk, f, trs, logs = faultyPair(t, 6)
	f.SetSpec(FaultSpec{Reorder: 1, ReorderDelay: 10 * time.Millisecond})
	if err := trs[0].Send(0, 1, []byte("first")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Millisecond)
	f.SetSpec(FaultSpec{}) // second frame passes clean
	if err := trs[0].Send(0, 1, []byte("second")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(20 * time.Millisecond)
	if got := *logs[1]; len(got) != 2 || got[0] != "second" || got[1] != "first" {
		t.Fatalf("reorder: got %v, want [second first]", got)
	}
}

// TestFaultyCompositionDeterministic: reorder, base delay with jitter
// and duplication all active at once — the composition the correlated
// storm campaigns lean on. The impairments must compose losslessly
// (no frame vanishes: every sequence number still arrives, late or
// twice), honour the base delay floor, actually invert delivery order,
// and replay bit-identically from the seed.
func TestFaultyCompositionDeterministic(t *testing.T) {
	const frames = 40
	spec := FaultSpec{
		Duplicate:    0.25,
		Reorder:      0.3,
		ReorderDelay: 3 * time.Millisecond,
		Delay:        500 * time.Microsecond,
		Jitter:       300 * time.Microsecond,
	}
	run := func(seed uint64) ([]byte, []time.Duration, FaultStats) {
		clk := clock.NewManual()
		mem := NewMem(2, 1, clk, 100*time.Microsecond)
		f := NewFaults(seed, clk)
		tr0, tr1 := f.Wrap(mem.Node(0)), f.Wrap(mem.Node(1))
		var ids []byte
		var at []time.Duration
		tr1.SetReceiver(func(rail, src int, payload []byte) {
			ids = append(ids, payload[0])
			at = append(at, clk.Now())
		})
		f.SetSpec(spec)
		for i := 0; i < frames; i++ {
			if err := tr0.Send(0, 1, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
			clk.Advance(time.Millisecond)
		}
		clk.Advance(50 * time.Millisecond) // drain every held-back frame
		return ids, at, f.Stats()
	}

	ids, at, st := run(11)
	if st.Dropped != 0 || st.Partitioned != 0 || st.Corrupted != 0 {
		t.Fatalf("composition spec lost frames: %+v", st)
	}
	if st.Duplicated == 0 || st.Reordered == 0 {
		t.Fatalf("impairments never engaged: %+v", st)
	}
	if st.Delivered != frames+st.Duplicated || int64(len(ids)) != st.Delivered {
		t.Fatalf("delivered %d frames (stats %+v), want %d + %d duplicates",
			len(ids), st, frames, st.Duplicated)
	}
	seen := make(map[byte]bool)
	inversions := 0
	for i, id := range ids {
		seen[id] = true
		if i > 0 && ids[i-1] > id {
			inversions++
		}
	}
	if len(seen) != frames {
		t.Fatalf("only %d of %d distinct frames arrived", len(seen), frames)
	}
	if inversions == 0 {
		t.Fatal("reorder+delay composition never inverted delivery order")
	}
	// Every arrival respects the floor: fabric latency plus base delay
	// past the frame's send instant (frame i was sent at i·1ms).
	floor := 100*time.Microsecond + spec.Delay
	for i, id := range ids {
		sent := time.Duration(id) * time.Millisecond
		if at[i] < sent+floor {
			t.Fatalf("frame %d arrived %v after send, under the %v floor", id, at[i]-sent, floor)
		}
	}

	// Same seed: bit-identical delivery order, instants and stats.
	ids2, at2, st2 := run(11)
	if !bytes.Equal(ids, ids2) || st != st2 {
		t.Fatalf("same seed diverged:\n%v %+v\n%v %+v", ids, st, ids2, st2)
	}
	for i := range at {
		if at[i] != at2[i] {
			t.Fatalf("same seed delivery instant %d diverged: %v vs %v", i, at[i], at2[i])
		}
	}
	// Different seed: a different interleaving (overwhelmingly).
	ids3, _, _ := run(12)
	if bytes.Equal(ids, ids3) {
		t.Fatal("different seeds produced identical composed schedules")
	}
}

// TestFaultySkew: a skewed node's deliveries all arrive late by the
// skew; clearing it restores prompt delivery.
func TestFaultySkew(t *testing.T) {
	clk, f, trs, logs := faultyPair(t, 7)
	f.SetSkew(1, 5*time.Millisecond)
	if err := trs[0].Send(0, 1, []byte("slow")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Millisecond)
	if len(*logs[1]) != 0 {
		t.Fatal("skewed delivery arrived early")
	}
	clk.Advance(5 * time.Millisecond)
	if len(*logs[1]) != 1 {
		t.Fatal("skewed delivery never arrived")
	}
	f.SetSkew(1, 0)
	if err := trs[0].Send(0, 1, []byte("fast")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Millisecond)
	if len(*logs[1]) != 2 {
		t.Fatal("cleared skew still delayed delivery")
	}
}

// TestFaultyDeliveredCountsBothPaths: Stats().Delivered counts a frame
// handed up by an idle controller exactly as one handed up under a
// policy, with policies switched on and off mid-stream.
func TestFaultyDeliveredCountsBothPaths(t *testing.T) {
	clk, f, trs, logs := faultyPair(t, 7)
	steps := []struct {
		name   string
		set    func()
		idle   bool
		copies int
	}{
		{"idle", func() {}, true, 1},
		{"delay", func() { f.SetSpec(FaultSpec{Delay: 50 * time.Microsecond}) }, false, 1},
		{"spec cleared", func() { f.SetSpec(FaultSpec{}) }, true, 1},
		// A cut the stream does not cross still takes the policy path.
		{"cut elsewhere", func() { f.Partition(2, 0, AllRails) }, false, 1},
		{"cut healed", func() { f.Heal(2, 0, AllRails) }, true, 1},
		{"skew", func() { f.SetSkew(1, time.Millisecond) }, false, 1},
		{"skew cleared", func() { f.SetSkew(1, 0) }, true, 1},
		{"duplicate", func() { f.SetSpec(FaultSpec{Duplicate: 1}) }, false, 2},
		{"cut and skew", func() {
			f.SetSpec(FaultSpec{})
			f.Partition(2, 1, 0)
			f.SetSkew(2, time.Millisecond)
		}, false, 1},
		{"heal all", func() { f.HealAll() }, true, 1},
	}
	want := 0
	for _, st := range steps {
		st.set()
		if got := f.idle.Load(); got != st.idle {
			t.Fatalf("%s: idle %v, want %v", st.name, got, st.idle)
		}
		for i := 0; i < 10; i++ {
			if err := trs[0].Send(i%2, 1, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		clk.Advance(2 * time.Millisecond)
		want += 10 * st.copies
		if len(*logs[1]) != want {
			t.Fatalf("%s: node 1 has %d frames, want %d", st.name, len(*logs[1]), want)
		}
		if got := f.Stats().Delivered; got != int64(want) {
			t.Fatalf("%s: Delivered %d, want %d", st.name, got, want)
		}
	}
}

// TestFaultSpecValidation: malformed specs panic loudly.
func TestFaultSpecValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	clk := clock.NewManual()
	f := NewFaults(1, clk)
	mustPanic("drop > 1", func() { f.SetSpec(FaultSpec{Drop: 1.5}) })
	mustPanic("negative delay", func() { f.SetSpec(FaultSpec{Delay: -time.Second}) })
	mustPanic("negative skew", func() { f.SetSkew(0, -time.Second) })
}
