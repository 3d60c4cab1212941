// Package tcpmodel models TCP's retransmission timer, the yardstick
// the paper measures DRS recovery against: a new route is "often found
// in the time of a TCP retransmit, so server applications are unaware
// that a network failure has occurred."
//
// The model is the classic exponential-backoff RTO: a segment sent
// into an outage is retransmitted at RTO, then 2·RTO, 4·RTO, … (capped)
// until either an attempt lands after the outage ends — the segment is
// delivered, the application just saw added latency — or the retry
// budget is exhausted and the connection fails.
package tcpmodel

import (
	"fmt"
	"time"
)

// Params configures the retransmission model. The defaults mirror a
// classic BSD-style TCP on a LAN.
type Params struct {
	// RTO is the initial retransmission timeout.
	RTO time.Duration
	// MaxRTO caps the exponential backoff.
	MaxRTO time.Duration
	// MaxRetries is the number of retransmissions before the
	// connection is declared dead.
	MaxRetries int
}

// Defaults returns LAN-typical parameters: 1 s initial RTO (RFC 6298
// floor), 64 s cap, 8 retries.
func Defaults() Params {
	return Params{RTO: time.Second, MaxRTO: 64 * time.Second, MaxRetries: 8}
}

func (p Params) validate() error {
	if p.RTO <= 0 {
		return fmt.Errorf("tcpmodel: RTO must be positive, have %v", p.RTO)
	}
	if p.MaxRTO < p.RTO {
		return fmt.Errorf("tcpmodel: MaxRTO %v below RTO %v", p.MaxRTO, p.RTO)
	}
	if p.MaxRetries < 0 {
		return fmt.Errorf("tcpmodel: negative MaxRetries")
	}
	return nil
}

// AttemptTimes returns the send offsets of the original transmission
// and every retransmission, relative to the first send: 0, RTO,
// RTO+2·RTO, … with per-step backoff capped at MaxRTO.
func (p Params) AttemptTimes() ([]time.Duration, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	out := make([]time.Duration, 0, p.MaxRetries+1)
	out = append(out, 0)
	step := p.RTO
	at := time.Duration(0)
	for i := 0; i < p.MaxRetries; i++ {
		at += step
		out = append(out, at)
		step *= 2
		if step > p.MaxRTO {
			step = p.MaxRTO
		}
	}
	return out, nil
}

// MaxMaskableOutage returns the longest outage that a DRS-style repair
// can hide behind a single retransmission: if the path is restored
// within this duration of the first (lost) transmission, TCP recovers
// on its first retry and the application sees at most one RTO of added
// latency. This is the quantitative form of the paper's "route is
// often found in the time of a TCP retransmit".
func (p Params) MaxMaskableOutage() (time.Duration, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	return p.RTO, nil
}

// SurvivableOutage returns the longest outage (starting exactly at the
// first transmission) that does not kill the connection.
func (p Params) SurvivableOutage() (time.Duration, error) {
	attempts, err := p.AttemptTimes()
	if err != nil {
		return 0, err
	}
	return attempts[len(attempts)-1], nil
}
