package netstack

import (
	"fmt"

	"rackfab/internal/sim"
)

// TokenPacer models a PL2-style receiver-driven admission scheduler: a
// receiver grants senders permission to transmit, pacing grants at its own
// drain rate and capping the bytes in flight toward it by a credit window.
// Under N→1 incast this serializes arrivals at the receiver's NIC instead
// of letting N senders collide in the last-hop queue — the fabric sees one
// paced stream where plain VLB sees a burst.
//
// The pacer is an admission-schedule transform, not an in-engine protocol:
// callers re-time each flow's release instant through Grant and hand the
// shifted specs to either engine unchanged, which keeps the token path
// engine-agnostic and byte-deterministic by construction (its output is a
// pure function of the request sequence).
//
// Grant requests must arrive in non-decreasing request-time order — callers
// sort per-receiver flows by arrival before pacing, which is also the
// deterministic grant order a real token receiver would observe.
type TokenPacer struct {
	rate   float64 // receiver drain rate, bits per second
	window int64   // credit cap: max granted-but-undrained bytes

	// FIFO of outstanding grants; head is the oldest. done is when the
	// grant's bytes finish draining at rate; compacted lazily. The receiver
	// is a single server, so drains serialize: a grant's drain starts at
	// its release or when the server frees, whichever is later.
	grants      []tokenGrant
	head        int
	outstanding int64
	serverFree  sim.Time
	lastReq     sim.Time

	stats TokenPacerStats
}

type tokenGrant struct {
	done  sim.Time
	bytes int64
}

// TokenPacerStats counts the pacer's admission decisions.
type TokenPacerStats struct {
	// Grants is the total number of grants issued; Deferred counts those
	// pushed later than their request time by the credit window.
	Grants, Deferred int64
	// DeferredTime is the summed release delay across deferred grants.
	DeferredTime sim.Duration
	// PacedBytes is the total bytes admitted.
	PacedBytes int64
}

// NewTokenPacer builds a pacer draining at rateBitsPerSec with a credit
// window of windowBytes. The window must cover the largest single grant —
// a flow larger than the window could never be admitted.
func NewTokenPacer(rateBitsPerSec float64, windowBytes int64) (*TokenPacer, error) {
	if rateBitsPerSec <= 0 {
		return nil, fmt.Errorf("netstack: token pacer needs a positive drain rate, got %g", rateBitsPerSec)
	}
	if windowBytes <= 0 {
		return nil, fmt.Errorf("netstack: token pacer needs a positive credit window, got %d", windowBytes)
	}
	return &TokenPacer{rate: rateBitsPerSec, window: windowBytes}, nil
}

// Grant admits a flow of the given size requested at req and returns its
// release instant: req itself when the credit window has room, otherwise
// the earliest instant enough outstanding grants have drained to fit it.
// Requests must be non-decreasing in req; bytes must be positive and fit
// the window.
func (p *TokenPacer) Grant(req sim.Time, bytes int64) (sim.Time, error) {
	if bytes <= 0 {
		return 0, fmt.Errorf("netstack: token grant needs positive bytes, got %d", bytes)
	}
	if bytes > p.window {
		return 0, fmt.Errorf("netstack: token grant of %d bytes exceeds the %d-byte credit window", bytes, p.window)
	}
	if p.stats.Grants > 0 && req < p.lastReq {
		return 0, fmt.Errorf("netstack: token grants must be requested in order (got %v after %v)", req, p.lastReq)
	}
	p.lastReq = req

	release := req
	// Credit earned by grants that drained before the request itself.
	for p.head < len(p.grants) && p.grants[p.head].done <= release {
		p.outstanding -= p.grants[p.head].bytes
		p.head++
	}
	// Not enough room: wait for the oldest grants to drain, FIFO order.
	for p.outstanding+bytes > p.window {
		g := p.grants[p.head]
		if g.done > release {
			release = g.done
		}
		p.outstanding -= g.bytes
		p.head++
	}

	start := release
	if p.serverFree > start {
		start = p.serverFree
	}
	done := start.Add(sim.Seconds(float64(bytes*8) / p.rate))
	p.serverFree = done
	p.grants = append(p.grants, tokenGrant{done: done, bytes: bytes})
	p.outstanding += bytes

	p.stats.Grants++
	p.stats.PacedBytes += bytes
	if release > req {
		p.stats.Deferred++
		p.stats.DeferredTime += release.Sub(req)
	}
	if p.head > len(p.grants)/2 {
		p.grants = append(p.grants[:0], p.grants[p.head:]...)
		p.head = 0
	}
	return release, nil
}

// Stats returns the pacer's admission counters.
func (p *TokenPacer) Stats() TokenPacerStats { return p.stats }
