// Package switching models the layer-2 cut-through switches whose per-hop
// traversal cost is, per the paper's Figure 1, the latency bottleneck of
// rack-scale fabrics ("in the scale of a rack, it is packet switching that
// prevents distributed rack-scale applications from scaling").
//
// The model is an input-queued switch with virtual output queues and
// iSLIP-style desynchronized round-robin grants, at frame granularity:
// a frame becomes grant-eligible one pipeline latency after it reaches the
// ingress, waits in its VOQ for the output to be free, then occupies the
// output for its serialization time. Store-and-forward is the same pipeline
// with the fabric delaying ingress eligibility until the frame tail has
// arrived. Hop-by-hop pause (PFC-like) makes the fabric lossless: a filling
// input asks the fabric to pause the upstream transmitter.
package switching

import (
	"fmt"

	"rackfab/internal/fifo"
	"rackfab/internal/sim"
)

// Frame is the unit of switched traffic: simulation metadata for one
// Ethernet frame in flight. The wire encoding lives in netstack; the
// switch only needs sizes and addresses.
type Frame struct {
	// SrcNode and DstNode are fabric node IDs.
	SrcNode, DstNode int
	// DataBits is the frame's wire size before FEC expansion, including
	// Ethernet overheads.
	DataBits int64
	// FlowID groups frames into flows for ECMP hashing and accounting.
	FlowID uint64
	// Injected is when the frame first entered the fabric.
	Injected sim.Time
	// Hops counts switch traversals so far (the fabric increments it; the
	// reconfiguration experiments report its distribution).
	Hops int
	// VLBPhase2 is Valiant load balancing's per-frame phase bit: false
	// while the frame heads for its pivot node, true once past it.
	VLBPhase2 bool
	// Frames is the member count, ≥ 1: a Frame with Frames > 1 is a
	// train of coalesced consecutive same-flow frames sharing one
	// scheduling event. DataBits already sums the members' wire bits; the
	// switch treats a train as one VOQ entry and the endpoints expand
	// per-member accounting on delivery.
	Frames int
	// Deadline, retry counts etc. travel in Meta, opaque to the switch.
	Meta interface{}
}

// Mode selects the forwarding discipline.
type Mode int

// Forwarding modes.
const (
	// CutThrough starts forwarding as soon as the header has arrived.
	CutThrough Mode = iota
	// StoreAndForward waits for the full frame (and FCS check).
	StoreAndForward
)

// String names the mode.
func (m Mode) String() string {
	if m == CutThrough {
		return "cut-through"
	}
	return "store-and-forward"
}

// The switch calibration every switch shares.
const (
	// DefaultPipelineLatency is the fixed traversal latency of the
	// switching logic — lookup, crossbar setup, MAC pipelines: Figure 1's
	// "state-of-the-art cut through switch" per-hop cost. It is the one
	// definition of a switch hop; the fluid engine and the SLO model
	// charge it per hop too.
	DefaultPipelineLatency = 450 * sim.Nanosecond
	// VOQCapacity is the per-VOQ buffer capacity in frames.
	VOQCapacity = 64
	// PauseHighWatermark pauses the upstream when an input's total
	// buffered frames reach it; PauseLowWatermark resumes below it.
	PauseHighWatermark = 48
	PauseLowWatermark  = 16
	// PauseWatchdog force-releases an output held paused for this long.
	// Hop-by-hop pause deadlocks in cyclic topologies (the classic PFC
	// circular wait — a torus is exactly such a cycle); the watchdog
	// breaks the cycle and lets the overflow/retransmit path recover,
	// mirroring the PFC watchdogs production switches ship.
	PauseWatchdog = 100 * sim.Microsecond
)

// Config sizes a switch.
type Config struct {
	// Ports is the port count.
	Ports int
	// Mode is the forwarding discipline (used by the fabric to compute
	// ingress eligibility; recorded here for reports).
	Mode Mode
	// PipelineLatency is the per-hop traversal latency:
	// DefaultPipelineLatency, or a calibrated device's own.
	PipelineLatency sim.Duration
}

// DefaultConfig returns the default switch configuration for a port count.
func DefaultConfig(ports int) Config {
	return Config{Ports: ports, Mode: CutThrough, PipelineLatency: DefaultPipelineLatency}
}

// Callbacks connect a switch to its fabric.
type Callbacks struct {
	// Forward maps a frame to its output port; ok=false drops the frame
	// (no route).
	Forward func(f *Frame) (port int, ok bool)
	// Transmit puts f on the wire of output port and returns its
	// serialization time. Called exactly when serialization starts; the
	// output stays busy for the returned time.
	Transmit func(port int, f *Frame) sim.Duration
	// Drop reports a discarded frame and the reason.
	Drop func(f *Frame, reason string)
	// Pause asks the fabric to pause/resume the upstream transmitter
	// feeding input port (hop-by-hop flow control).
	Pause func(port int, paused bool)
	// Trace, when non-nil, observes VOQ occupancy changes for the flight
	// recorder: enq reports push (true) vs grant (false) of frame f
	// destined for output out; depth is the affected VOQ's length after
	// the operation. Left nil when tracing is off, so the datapath pays
	// one nil check.
	Trace func(enq bool, out int, f *Frame, depth int)
}

// queued is one VOQ entry.
type queued struct {
	frame      *Frame
	eligibleAt sim.Time
}

// Switch is one node's packet switch.
type Switch struct {
	eng *sim.Engine
	cfg Config
	cb  Callbacks

	// voq holds one ring per (input, output) pair at [in*Ports+out]. A
	// ring grows by doubling while its VOQ fills, so its storage stops at
	// the first power of two at or above VOQCapacity, and is reused from
	// then on.
	voq        []fifo.Queue[queued]
	inputCount []int // frames buffered per input
	outBusy    []bool
	outPaused  []bool
	pauseGen   []uint64 // per output: generation counter for the watchdog
	rrPointer  []int    // per output, next input to consider
}

// New builds a switch.
func New(eng *sim.Engine, cfg Config, cb Callbacks) *Switch {
	if cfg.Ports <= 0 {
		panic("switching: switch needs ports")
	}
	if cb.Forward == nil || cb.Transmit == nil {
		panic("switching: Forward and Transmit callbacks are required")
	}
	s := &Switch{
		eng:        eng,
		cfg:        cfg,
		cb:         cb,
		voq:        make([]fifo.Queue[queued], cfg.Ports*cfg.Ports),
		inputCount: make([]int, cfg.Ports),
		outBusy:    make([]bool, cfg.Ports),
		outPaused:  make([]bool, cfg.Ports),
		pauseGen:   make([]uint64, cfg.Ports),
		rrPointer:  make([]int, cfg.Ports),
	}
	return s
}

// Inject delivers a frame to input port at the moment it becomes available
// to the switching logic (the fabric schedules this per the forwarding
// mode: header arrival for cut-through, tail arrival for store-and-
// forward). The frame becomes grant-eligible one PipelineLatency later.
func (s *Switch) Inject(port int, f *Frame) {
	if port < 0 || port >= s.cfg.Ports {
		panic(fmt.Sprintf("switching: inject on port %d of %d-port switch", port, s.cfg.Ports))
	}
	out, ok := s.cb.Forward(f)
	if !ok {
		s.drop(f, "no-route")
		return
	}
	if out < 0 || out >= s.cfg.Ports {
		s.drop(f, "bad-output")
		return
	}
	q := &s.voq[port*s.cfg.Ports+out]
	if q.Len() >= VOQCapacity {
		// Pause should prevent this; overflow means the upstream had
		// frames in flight past the watermark. Tail-drop.
		s.drop(f, "voq-overflow")
		return
	}
	eligibleAt := s.eng.Now().Add(s.cfg.PipelineLatency)
	q.Push(queued{frame: f, eligibleAt: eligibleAt})
	s.inputCount[port]++
	if s.inputCount[port] == PauseHighWatermark && s.cb.Pause != nil {
		s.cb.Pause(port, true)
	}
	if s.cb.Trace != nil {
		s.cb.Trace(true, out, f, q.Len())
	}
	s.eng.PostAt(eligibleAt, (*swEligible)(s), out, nil)
}

// swEligible is the sw-eligible event: a frame queued for output out has
// cleared the pipeline, so the output re-arbitrates.
type swEligible Switch

func (s *swEligible) Handle(out int, _ any) { (*Switch)(s).tryGrant(out) }

// swOutFree is the sw-out-free event: output out has finished serializing
// its frame and takes the next grant.
type swOutFree Switch

func (s *swOutFree) Handle(out int, _ any) {
	s.outBusy[out] = false
	(*Switch)(s).tryGrant(out)
}

// SetOutputPaused pauses or resumes an output (the downstream ingress asked
// for it via its own Pause callback, relayed by the fabric). A pause is
// released by the watchdog if it outlives PauseWatchdog.
func (s *Switch) SetOutputPaused(port int, paused bool) {
	if s.outPaused[port] == paused {
		return
	}
	s.outPaused[port] = paused
	s.pauseGen[port]++
	if !paused {
		s.tryGrant(port)
		return
	}
	gen := s.pauseGen[port]
	s.eng.After(PauseWatchdog, "pause-watchdog", func() {
		if s.outPaused[port] && s.pauseGen[port] == gen {
			s.outPaused[port] = false
			s.pauseGen[port]++
			s.tryGrant(port)
		}
	})
}

// tryGrant runs the arbiter for one output: find the next input (round
// robin from the output's pointer) whose head-of-line frame for this output
// is eligible, and start transmitting it.
func (s *Switch) tryGrant(out int) {
	if s.outBusy[out] || s.outPaused[out] {
		return
	}
	now := s.eng.Now()
	n := s.cfg.Ports
	for i := 0; i < n; i++ {
		in := (s.rrPointer[out] + i) % n
		q := &s.voq[in*n+out]
		if q.Len() == 0 {
			continue
		}
		if q.Front().eligibleAt.After(now) {
			continue // its own eligibility event will re-arbitrate
		}
		// Grant.
		head := q.Pop()
		s.inputCount[in]--
		if s.inputCount[in] == PauseLowWatermark && s.cb.Pause != nil {
			s.cb.Pause(in, false)
		}
		// iSLIP pointer update: advance past the granted input.
		s.rrPointer[out] = (in + 1) % n
		if s.cb.Trace != nil {
			s.cb.Trace(false, out, head.frame, q.Len())
		}

		s.outBusy[out] = true
		tx := s.cb.Transmit(out, head.frame)
		s.eng.PostAfter(tx, (*swOutFree)(s), out, nil)
		return
	}
}

func (s *Switch) drop(f *Frame, reason string) {
	if s.cb.Drop != nil {
		s.cb.Drop(f, reason)
	}
}
