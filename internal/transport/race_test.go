package transport

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drsnet/internal/clock"
	"drsnet/internal/metrics"
)

// TestMemConcurrentChaosRace hammers a Mem fabric from every direction
// at once over a live clock: senders (unicast and broadcast), a
// receiver being re-installed mid-flight, and a chaos goroutine
// crashing, restoring and NIC-flipping nodes. The daemon path does all
// of these concurrently; under -race this is the Mem memory-safety
// gate. Frames may be lost to the chaos — that is the model — but
// nothing may tear.
func TestMemConcurrentChaosRace(t *testing.T) {
	clk := clock.NewWall()
	defer clk.Stop()
	const nodes, rails = 4, 2
	m := NewMem(nodes, rails, clk, 50*time.Microsecond)

	var delivered atomic.Int64
	for i := 0; i < nodes; i++ {
		m.Node(i).SetReceiver(func(rail, src int, payload []byte) {
			delivered.Add(1)
		})
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Senders: every node sprays unicast and broadcast on both rails.
	for i := 0; i < nodes; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := m.Node(i).Send(n%rails, (i+1+n%(nodes-1))%nodes, []byte("x")); err != nil {
					t.Error(err)
					return
				}
				if n%17 == 0 {
					if err := m.Node(i).Send(n%rails, Broadcast, []byte("b")); err != nil {
						t.Error(err)
						return
					}
				}
				// Yield: on one CPU a spinning sender otherwise keeps
				// whole time slices, and the chaos loop, which runs
				// between them, can crash each sender just before its
				// slice for the entire run, so that nothing is sent.
				runtime.Gosched()
			}
		}()
	}

	// Receiver churn: node 0's callback is swapped while frames are in
	// flight (delivery re-reads it under the fabric lock).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			m.Node(0).SetReceiver(func(rail, src int, payload []byte) {
				delivered.Add(1)
			})
			time.Sleep(100 * time.Microsecond)
			_ = n
		}
	}()

	// Chaos: fail-stop, restore, and NIC flips across the cluster.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			victim := n % nodes
			m.FailNode(victim)
			m.SetNIC((victim+1)%nodes, n%rails, false)
			time.Sleep(50 * time.Microsecond)
			m.RestoreNode(victim)
			m.SetNIC((victim+1)%nodes, n%rails, true)
		}
	}()

	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	// Give in-flight deliveries their latency, then check traffic
	// actually flowed through the chaos.
	time.Sleep(5 * time.Millisecond)
	if delivered.Load() == 0 {
		t.Fatal("no frame survived — the fabric deadlocked or dropped everything")
	}
}

// TestUDPReceiverSwapRace swaps node 1's receiver and both nodes'
// metrics sets while node 0 sends on both rails (every 64th datagram
// oversized, so the tx error counter is bumped mid-swap), then closes
// node 1 twice at once while its receive loops are still reading.
// Under -race this is the gate on UDP's lock-free receiver, counters
// and closed bit.
func TestUDPReceiverSwapRace(t *testing.T) {
	u0, u1 := udpPair(t)
	var delivered atomic.Int64
	recvA := func(rail, src int, payload []byte) { delivered.Add(1) }
	recvB := func(rail, src int, payload []byte) { delivered.Add(1) }
	u1.SetReceiver(recvA)
	var swaps atomic.Int64

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		small, huge := []byte("x"), make([]byte, 1<<17)
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			payload := small
			if n%64 == 63 {
				payload = huge
			}
			if err := u0.Send(n%2, 1, payload); err != nil {
				t.Error(err)
				return
			}
			runtime.Gosched()
		}
	}()
	go func() {
		defer wg.Done()
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			if n%2 == 0 {
				u1.SetReceiver(recvB)
			} else {
				u1.SetReceiver(recvA)
			}
			u0.SetMetrics(metrics.NewSet())
			u1.SetMetrics(metrics.NewSet())
			swaps.Add(1)
			time.Sleep(100 * time.Microsecond)
		}
	}()

	// Close once the swaps and the deliveries have overlapped a while.
	deadline := time.Now().Add(5 * time.Second)
	for (swaps.Load() < 50 || delivered.Load() < 100) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	var closers sync.WaitGroup
	for i := 0; i < 2; i++ {
		closers.Add(1)
		go func() {
			defer closers.Done()
			if err := u1.Close(); err != nil {
				t.Error(err)
			}
		}()
	}
	closers.Wait()
	close(stop)
	wg.Wait()
	if delivered.Load() == 0 {
		t.Fatal("no datagram delivered while the receiver was being swapped")
	}
}
