package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drsnet/internal/clock"
	"drsnet/internal/icmp"
	"drsnet/internal/linkmon"
	"drsnet/internal/routing"
	"drsnet/internal/routing/wire"
	"drsnet/internal/transport"
)

// checkedTransport counts every ICMP frame that leaves the daemon in a
// state the peer's codec would reject — what a torn scratch buffer
// looks like on the wire.
type checkedTransport struct {
	transport.Transport
	bad *atomic.Int64
}

func (c checkedTransport) Send(rail, dst int, payload []byte) error {
	if len(payload) > 0 && payload[0] == wire.ProtoICMP {
		if _, err := icmp.Unmarshal(payload[1:]); err != nil {
			c.bad.Add(1)
		}
	}
	return c.Transport.Send(rail, dst, payload)
}

// TestLiveScratchIsRaceFree runs two daemons over a two-rail
// transport.Mem on a live clock — probe rounds and deliveries on the
// clock's dispatcher goroutine — and on top of that pumps echo requests
// into node 0 from two more goroutines, the way drsd's per-rail receive
// goroutines call in, so onICMP's reply path, the probe round and the
// data path all contend for the daemon's one frame scratch. Run under
// -race: the scratch is only safe because every build-and-send holds
// d.mu. The detector and the codec check are the assertions; the loop
// at the end only waits until every contender has run.
func TestLiveScratchIsRaceFree(t *testing.T) {
	clk := clock.NewWall()
	defer clk.Stop()
	mem := transport.NewMem(2, 2, clk, 100*time.Microsecond)
	var bad atomic.Int64
	var delivered atomic.Int64
	cfg := DefaultConfig()
	cfg.ProbeInterval = 5 * time.Millisecond
	// The pumps contend, they do not saturate: on one CPU a probe's
	// round trip must still fit inside its round.
	const pace = 50 * time.Microsecond
	var daemons []*Daemon
	for node := 0; node < 2; node++ {
		d, err := New(checkedTransport{mem.Node(node), &bad}, clk, cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.SetDeliverFunc(func(src int, data []byte) {
			if string(data) != "payload" {
				bad.Add(1)
			}
			delivered.Add(1)
		})
		daemons = append(daemons, d)
	}
	for _, d := range daemons {
		if err := d.Start(); err != nil {
			t.Fatal(err)
		}
		defer d.Stop()
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for rail := 0; rail < 2; rail++ {
		wg.Add(1)
		go func(rail int) {
			defer wg.Done()
			req := icmp.Echo{Request: true, ID: 1, Seq: uint16(rail), Data: []byte("12345678")}.
				AppendTo([]byte{wire.ProtoICMP})
			for {
				select {
				case <-stop:
					return
				default:
					daemons[0].onFrame(rail, 1, req)
					time.Sleep(pace)
				}
			}
		}(rail)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = daemons[0].SendData(1, []byte("payload"))
				time.Sleep(pace)
			}
		}
	}()

	replies := daemons[0].Metrics().Counter(routing.CtrProbeReplies)
	for replies.Value() < 40 || delivered.Load() < 40 {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d frames left the daemon corrupted", n)
	}
}

// TestLiveAnswerDeadlineIsRaceFree runs node 1, the answering end of
// its pair with node 0, on a live clock with adaptive deadlines. Node 0
// never starts: two goroutines play its requests, one per rail, in
// bursts separated by pauses longer than the answering end's deadline,
// so deadlines fire on the clock's dispatcher goroutine while requests
// arm new ones from the pumps, and Stop runs while both still go on.
// Run under -race; the loops only wait until deadlines have fired,
// and until the pumps have sent two bursts more after Stop.
func TestLiveAnswerDeadlineIsRaceFree(t *testing.T) {
	clk := clock.NewWall()
	defer clk.Stop()
	mem := transport.NewMem(2, 2, clk, 100*time.Microsecond)
	cfg := DefaultConfig()
	cfg.ProbeInterval = 2 * time.Millisecond
	cfg.AdaptiveRTO = linkmon.RTO{Min: 500 * time.Microsecond, Max: time.Millisecond}
	d, err := New(mem.Node(1), clk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var sent atomic.Int64
	for rail := 0; rail < 2; rail++ {
		wg.Add(1)
		go func(rail int) {
			defer wg.Done()
			data := make([]byte, probeData)
			data[15] = 1 // a 1 ns RTT sample
			req := icmp.Echo{Request: true, ID: 0, Seq: uint16(rail), Data: data}.
				AppendTo([]byte{wire.ProtoICMP})
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				d.onFrame(rail, 0, req)
				sent.Add(1)
				if i%8 == 7 {
					time.Sleep(5 * time.Millisecond)
				} else {
					time.Sleep(50 * time.Microsecond)
				}
			}
		}(rail)
	}
	expired := d.Metrics().Counter(routing.CtrRTOExpired)
	for expired.Value() < 20 {
		time.Sleep(time.Millisecond)
	}
	d.Stop()
	for after := sent.Load(); sent.Load() < after+32; {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
}
