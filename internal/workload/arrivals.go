// Open-loop arrival processes for service mode: seeded generators that
// synthesize FlowSpec batches on a sim-time schedule. Unlike the batch
// generators in workload.go (which fix a flow count up front), these model a
// cluster serving continuous load — the driver asks for "every arrival up to
// instant T" each tick and injects the batch mid-run.
//
// Every process carries its own Stream (a splitmix64 counter generator whose
// whole state is one uint64), so its draws depend on its seed and the
// sequence of Next calls alone.
package workload

import (
	"fmt"
	"math"

	"rackfab/internal/sim"
)

// Stream is a deterministic random stream (splitmix64) whose entire state
// is one counter.
type Stream struct {
	state uint64
}

// NewStream returns a stream seeded with seed.
func NewStream(seed uint64) Stream { return Stream{state: seed} }

// Uint64 returns the next 64-bit draw.
func (s *Stream) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform draw in [0,1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform draw in [0,n).
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("workload: Intn on non-positive n")
	}
	// Multiply-shift bounded draw; the modulo bias at n « 2^64 is far below
	// anything these workloads can observe.
	return int(s.Uint64() % uint64(n))
}

// ExpDuration returns an exponential Duration with the given mean, floored at
// one picosecond so arrival processes always advance the clock.
func (s *Stream) ExpDuration(mean sim.Duration) sim.Duration {
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	d := sim.Duration(-math.Log(u) * float64(mean))
	if d < 1 {
		d = 1
	}
	return d
}

// ArrivalProcess synthesizes open-loop arrivals on a sim-time schedule.
type ArrivalProcess interface {
	// Next returns every arrival with At < to, in At order, with absolute
	// timestamps. Successive calls with increasing to partition the arrival
	// sequence: splitting a run across Next(a); Next(b) yields the same flows
	// as one Next(b). The result is valid until the next call, which may
	// reuse its storage: a caller injects or copies it at once.
	Next(to sim.Time) []FlowSpec
	// Name identifies the process in reports.
	Name() string
}

// Poisson is a memoryless open-loop arrival process: exponential
// inter-arrival gaps at a fixed rate, uniform distinct src/dst pairs, sizes
// drawn from Sizes via its quantile function.
type Poisson struct {
	nodes int
	rate  float64 // flows per second
	sizes SizeDist
	label string

	rng  Stream
	next sim.Time   // pre-drawn upcoming arrival instant
	out  []FlowSpec // Next's result, reused by the following call
}

// NewPoisson returns a Poisson arrival process over nodes hosts at rate flows
// per second, starting at time 0.
func NewPoisson(seed uint64, nodes int, rate float64, sizes SizeDist, label string) (*Poisson, error) {
	if nodes < 2 {
		return nil, fmt.Errorf("workload: Poisson arrivals need ≥ 2 nodes, got %d", nodes)
	}
	if rate <= 0 {
		return nil, fmt.Errorf("workload: Poisson arrival rate must be positive, got %g", rate)
	}
	p := &Poisson{nodes: nodes, rate: rate, sizes: sizes, label: label, rng: NewStream(seed)}
	p.next = sim.Time(0).Add(p.rng.ExpDuration(meanGap(rate)))
	return p, nil
}

// meanGap converts a flows-per-second rate into a mean inter-arrival gap.
func meanGap(rate float64) sim.Duration {
	return sim.Duration(float64(sim.Second) / rate)
}

// Next returns every arrival with At < to, valid until the next call.
func (p *Poisson) Next(to sim.Time) []FlowSpec {
	p.out = p.out[:0]
	for p.next.Before(to) {
		p.out = append(p.out, p.emit(p.next))
		p.next = p.next.Add(p.rng.ExpDuration(meanGap(p.rate)))
	}
	return p.out
}

// emit draws one flow at instant at.
func (p *Poisson) emit(at sim.Time) FlowSpec {
	src := p.rng.Intn(p.nodes)
	dst := p.rng.Intn(p.nodes - 1)
	if dst >= src {
		dst++
	}
	return FlowSpec{
		Src:   src,
		Dst:   dst,
		Bytes: p.sizes.SampleU(p.rng.Float64()),
		At:    at,
		Label: p.label,
	}
}

// Name identifies the process.
func (p *Poisson) Name() string {
	return fmt.Sprintf("poisson(%gfps,%s)", p.rate, p.sizes.Name())
}

// Markov is a two-state Markov-modulated Poisson process: the arrival rate
// alternates between a bursty and a quiet mode, with exponentially
// distributed dwell times in each. It models the diurnal/bursty serving
// shape of open user load better than a flat Poisson stream.
type Markov struct {
	nodes                int
	rateBurst, rateQuiet float64 // flows per second per mode
	dwellBurst           sim.Duration
	dwellQuiet           sim.Duration
	sizes                SizeDist
	label                string

	rng     Stream
	mode    uint8 // 0 = quiet, 1 = burst
	modeEnd sim.Time
	next    sim.Time
	out     []FlowSpec // Next's result, reused by the following call
}

// MarkovConfig parameterizes a Markov-modulated arrival process.
type MarkovConfig struct {
	Nodes      int
	RateBurst  float64 // flows per second while bursting
	RateQuiet  float64 // flows per second while quiet
	DwellBurst sim.Duration
	DwellQuiet sim.Duration
	Sizes      SizeDist
	Label      string
}

// NewMarkov returns a Markov-modulated arrival process starting in the quiet
// mode at time 0.
func NewMarkov(seed uint64, cfg MarkovConfig) (*Markov, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("workload: Markov arrivals need ≥ 2 nodes, got %d", cfg.Nodes)
	}
	if cfg.RateBurst <= 0 || cfg.RateQuiet <= 0 {
		return nil, fmt.Errorf("workload: Markov arrival rates must be positive, got burst=%g quiet=%g", cfg.RateBurst, cfg.RateQuiet)
	}
	if cfg.DwellBurst <= 0 || cfg.DwellQuiet <= 0 {
		return nil, fmt.Errorf("workload: Markov dwell times must be positive")
	}
	m := &Markov{
		nodes:      cfg.Nodes,
		rateBurst:  cfg.RateBurst,
		rateQuiet:  cfg.RateQuiet,
		dwellBurst: cfg.DwellBurst,
		dwellQuiet: cfg.DwellQuiet,
		sizes:      cfg.Sizes,
		label:      cfg.Label,
		rng:        NewStream(seed),
	}
	m.modeEnd = sim.Time(0).Add(m.rng.ExpDuration(m.dwellQuiet))
	m.draw(0)
	return m, nil
}

// rate returns the arrival rate of the current mode.
func (m *Markov) rate() float64 {
	if m.mode == 1 {
		return m.rateBurst
	}
	return m.rateQuiet
}

// draw advances the pre-drawn next-arrival cursor from instant t, switching
// modes as dwell periods elapse. Re-drawing the residual gap after a mode
// switch is exact by memorylessness of the exponential.
func (m *Markov) draw(t sim.Time) {
	for {
		gap := m.rng.ExpDuration(meanGap(m.rate()))
		if at := t.Add(gap); !at.After(m.modeEnd) {
			m.next = at
			return
		}
		t = m.modeEnd
		m.mode = 1 - m.mode
		dwell := m.dwellQuiet
		if m.mode == 1 {
			dwell = m.dwellBurst
		}
		m.modeEnd = m.modeEnd.Add(m.rng.ExpDuration(dwell))
	}
}

// Next returns every arrival with At < to, valid until the next call.
func (m *Markov) Next(to sim.Time) []FlowSpec {
	m.out = m.out[:0]
	for m.next.Before(to) {
		src := m.rng.Intn(m.nodes)
		dst := m.rng.Intn(m.nodes - 1)
		if dst >= src {
			dst++
		}
		m.out = append(m.out, FlowSpec{
			Src:   src,
			Dst:   dst,
			Bytes: m.sizes.SampleU(m.rng.Float64()),
			At:    m.next,
			Label: m.label,
		})
		m.draw(m.next)
	}
	return m.out
}

// Name identifies the process.
func (m *Markov) Name() string {
	return fmt.Sprintf("mmpp(%g/%gfps,%s)", m.rateBurst, m.rateQuiet, m.sizes.Name())
}
