package tcpmodel

import (
	"testing"
	"time"
)

var epoch = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

func TestAttemptTimesBackoff(t *testing.T) {
	p := Params{RTO: time.Second, MaxRTO: 8 * time.Second, MaxRetries: 5}
	got, err := p.AttemptTimes()
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{
		0,
		1 * time.Second,  // +1
		3 * time.Second,  // +2
		7 * time.Second,  // +4
		15 * time.Second, // +8 (capped)
		23 * time.Second, // +8 (capped)
	}
	if len(got) != len(want) {
		t.Fatalf("attempts = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("attempt %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestAttemptTimesZeroRetries(t *testing.T) {
	p := Params{RTO: time.Second, MaxRTO: time.Second, MaxRetries: 0}
	got, err := p.AttemptTimes()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("attempts = %v", got)
	}
}

func TestSendBeforeOutage(t *testing.T) {
	p := Defaults()
	out, err := p.send(epoch, epoch.Add(time.Minute), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Delivered || out.Delay != 0 || out.Attempts != 1 {
		t.Fatalf("outcome = %+v", out)
	}
}

func TestSendMaskedByFastRepair(t *testing.T) {
	// DRS repairs in 600 ms; TCP's first retransmission at 1 s lands
	// on the repaired path: application sees 1 s latency, no error.
	p := Defaults()
	out, err := p.send(epoch, epoch, 600*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Delivered || out.Attempts != 2 || out.Delay != time.Second {
		t.Fatalf("outcome = %+v", out)
	}
}

func TestSendLongOutageMoreRetries(t *testing.T) {
	// A reactive-routing style 30 s outage needs several retries:
	// attempts at 0,1,3,7,15,31 — delivered on the 6th at 31 s.
	p := Defaults()
	out, err := p.send(epoch, epoch, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Delivered || out.Attempts != 6 || out.Delay != 31*time.Second {
		t.Fatalf("outcome = %+v", out)
	}
}

func TestSendConnectionDeath(t *testing.T) {
	p := Params{RTO: time.Second, MaxRTO: time.Second, MaxRetries: 3}
	// Attempts at 0,1,2,3 s; outage of 10 s swallows them all.
	out, err := p.send(epoch, epoch, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if out.Delivered {
		t.Fatalf("outcome = %+v, want dead connection", out)
	}
	if out.Attempts != 4 {
		t.Fatalf("attempts = %d, want 4", out.Attempts)
	}
}

func TestSendAtOutageEndBoundary(t *testing.T) {
	// An attempt exactly at outage end is delivered (interval is
	// half-open).
	p := Defaults()
	out, err := p.send(epoch, epoch, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Delivered || out.Delay != time.Second {
		t.Fatalf("outcome = %+v", out)
	}
}

func TestMaxMaskableOutage(t *testing.T) {
	p := Defaults()
	d, err := p.MaxMaskableOutage()
	if err != nil || d != time.Second {
		t.Fatalf("MaxMaskableOutage = %v, %v", d, err)
	}
	// Verify the claim it encodes: any outage < d starting at the
	// first send is recovered with exactly one retransmission.
	out, err := p.send(epoch, epoch, d-time.Millisecond)
	if err != nil || !out.Delivered || out.Attempts != 2 {
		t.Fatalf("outcome = %+v, %v", out, err)
	}
}

func TestSurvivableOutage(t *testing.T) {
	p := Params{RTO: time.Second, MaxRTO: 4 * time.Second, MaxRetries: 3}
	// Attempts at 0,1,3,7.
	d, err := p.SurvivableOutage()
	if err != nil || d != 7*time.Second {
		t.Fatalf("SurvivableOutage = %v, %v", d, err)
	}
	out, err := p.send(epoch, epoch, d)
	if err != nil || !out.Delivered {
		t.Fatalf("outage of exactly %v should be survivable: %+v", d, out)
	}
	out, err = p.send(epoch, epoch, d+time.Nanosecond)
	if err != nil || out.Delivered {
		t.Fatalf("outage beyond %v should kill the connection: %+v", d, out)
	}
}

func TestValidation(t *testing.T) {
	for name, p := range map[string]Params{
		"zero RTO":    {RTO: 0, MaxRTO: time.Second, MaxRetries: 1},
		"max < rto":   {RTO: 2 * time.Second, MaxRTO: time.Second, MaxRetries: 1},
		"neg retries": {RTO: time.Second, MaxRTO: time.Second, MaxRetries: -1},
	} {
		if _, err := p.AttemptTimes(); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if _, err := p.send(epoch, epoch, time.Second); err == nil {
			t.Errorf("%s: send accepted", name)
		}
		if _, err := p.MaxMaskableOutage(); err == nil {
			t.Errorf("%s: MaxMaskableOutage accepted", name)
		}
	}
}

// outcome describes what a TCP sender experiences across an outage.
type outcome struct {
	// Delivered reports whether some attempt landed after the outage.
	Delivered bool
	// Delay is the application-visible extra latency: the offset of
	// the first successful attempt (0 when the first send succeeds).
	Delay time.Duration
	// Attempts is the number of transmissions used (1 = no
	// retransmission needed).
	Attempts int
}

// send models a segment first transmitted at sendTime while the path
// is unusable during [outageStart, outageStart+outageLen). Attempts
// that fall inside the outage are lost; the first attempt at or after
// the end of the outage is delivered. It is the oracle the outage bounds
// are checked against.
func (p Params) send(sendTime, outageStart time.Time, outageLen time.Duration) (outcome, error) {
	attempts, err := p.AttemptTimes()
	if err != nil {
		return outcome{}, err
	}
	outageEnd := outageStart.Add(outageLen)
	for i, off := range attempts {
		at := sendTime.Add(off)
		if at.Before(outageStart) || !at.Before(outageEnd) {
			return outcome{Delivered: true, Delay: off, Attempts: i + 1}, nil
		}
	}
	return outcome{Delivered: false, Delay: 0, Attempts: len(attempts)}, nil
}
