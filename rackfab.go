// Package rackfab is the public API of the adaptive rack-scale fabric
// library: a from-scratch reproduction of "High speed adaptive rack-scale
// fabrics" (Sella, Moore, Zilberman — SIGCOMM 2018).
//
// A Cluster is a simulated rack: a topology of stripped-down nodes joined
// by multi-lane physical links. Config.Engine selects the simulation
// backend behind the one API:
//
//   - EnginePacket (default) simulates every frame through a cut-through
//     switch and host NIC per node, optionally under the paper's Closed
//     Ring Control (CRC) driving the Physical Layer Primitives (PLP) —
//     link breaking/bundling, high-speed bypass, lane power, adaptive FEC,
//     per-lane statistics.
//   - EngineFluid models flows as fluid streams sharing link capacity
//     max-min fairly — the engine the large-scale sweeps run on, thousands
//     of nodes in seconds.
//
// Quickstart:
//
//	cluster, err := rackfab.New(rackfab.Config{
//		Topology: rackfab.Grid, Width: 4, Height: 4,
//		Control:  rackfab.ControlOn(),
//	})
//	...
//	flows, _ := cluster.Inject(rackfab.UniformTraffic(cluster, 200, 64<<10))
//	_ = cluster.RunUntilDone(time.Second)
//	report := cluster.Report()
//
// Both engines consume replayable fault schedules (Config.Faults,
// Cluster.ApplyFaults, PoissonFlaps): link flaps, degradations, and node
// loss interleave with traffic, and Report's fault/solver sections say what
// the churn cost. A large faulted study is a few lines:
//
//	cluster, _ := rackfab.New(rackfab.Config{
//		Topology: rackfab.Grid, Width: 64, Height: 64,
//		Engine:   rackfab.EngineFluid, Seed: 1,
//	})
//	_ = cluster.ApplyFaults(rackfab.PoissonFlaps(cluster, rackfab.FlapConfig{
//		Flaps: 8, MeanGap: time.Millisecond, MeanOutage: time.Millisecond,
//	}))
//	flows, _ := cluster.Inject(rackfab.PermutationTraffic(cluster, 1e6))
//	_ = cluster.RunUntilDone(time.Minute)
//
// All time inputs are wall-clock time.Durations of *simulated* time; the
// engines run at picosecond resolution internally.
package rackfab

import (
	"fmt"
	"math"
	"time"

	"rackfab/internal/fabric"
	"rackfab/internal/faults"
	"rackfab/internal/fluid"
	"rackfab/internal/phy"
	"rackfab/internal/ringctl"
	"rackfab/internal/sim"
	"rackfab/internal/switching"
	"rackfab/internal/topo"
	"rackfab/internal/trace"
)

// Topology selects the constructed fabric shape.
type Topology string

// Supported topologies.
const (
	// Grid is a 2-D mesh — the paper's Figure 2 starting point.
	Grid Topology = "grid"
	// Torus is a 2-D torus built natively (wrap cables at build time).
	Torus Topology = "torus"
	// Line is a 1-D chain (validation and microbenchmark fabrics).
	Line Topology = "line"
	// Ring is a 1-D cycle.
	Ring Topology = "ring"
)

// Media selects the physical medium of all fabric links.
type Media string

// Supported media.
const (
	Backplane    Media = "backplane"
	CopperDAC    Media = "copper-dac"
	OpticalFiber Media = "optical-fiber"
)

// SwitchMode selects the forwarding discipline.
type SwitchMode string

// Supported switch modes.
const (
	CutThrough      SwitchMode = "cut-through"
	StoreAndForward SwitchMode = "store-and-forward"
)

// ControlConfig configures the Closed Ring Control.
type ControlConfig struct {
	// Enabled turns the CRC on.
	Enabled bool
	// Epoch overrides the collection period (0 = derived from ring RTT).
	Epoch time.Duration
	// DisableFEC, DisablePower, DisableBypass, DisableReconfig switch
	// individual policies off (ablations). Adaptive routing always runs,
	// and grid→torus fires at the CRC's default mean utilization (55%).
	DisableFEC, DisablePower, DisableBypass, DisableReconfig bool
}

// ControlOn returns a ControlConfig with every policy enabled.
func ControlOn() ControlConfig { return ControlConfig{Enabled: true} }

// Config assembles a cluster.
type Config struct {
	// Topology, Width, Height shape the fabric. Line/Ring use Width only.
	Topology Topology
	Width    int
	Height   int
	// LanesPerLink is the physical bundle width (default 2, per Figure 2).
	LanesPerLink int
	// Media is the link medium (default Backplane). Link capacities derive
	// from it on both engines. Adjacent nodes sit 2 m apart (Figure 1).
	Media Media
	// SwitchMode is the forwarding discipline (default CutThrough).
	// Packet engine only; the fluid engine has no switches.
	SwitchMode SwitchMode
	// PowerCapW caps rack power (0 = uncapped). Packet engine only.
	PowerCapW float64
	// Seed drives every stochastic element; equal seeds reproduce runs
	// exactly.
	Seed int64
	// Control configures the CRC. Packet engine only: enabling it under
	// EngineFluid is a construction error.
	Control ControlConfig
	// Engine selects the simulation backend (default EnginePacket).
	Engine Engine
	// Faults optionally installs a replayable fault timeline at
	// construction; Cluster.ApplyFaults adds more later. Both engines
	// consume the same schedule type.
	Faults *FaultSchedule
	// SLOTargetX sets the completion-time SLO multiplier k for Report's SLO
	// section: a flow attains the SLO when its FCT is within k× its ideal
	// (uncontended) FCT. 0 means the default of 4; New rejects a negative
	// or NaN value.
	SLOTargetX float64
	// Trace turns on the flight recorder on either engine: bounded,
	// deterministic event and time-series capture exported via
	// Cluster.Trace. Off (the default) compiles the recording hooks out of
	// the hot paths entirely.
	Trace bool
}

// Cluster is a running simulated rack. All traffic, run, fault, and report
// calls route through the engine selected at construction; the handful of
// packet-hardware surfaces (lane control, BER injection, the CRC) return
// ErrPacketOnly on the fluid engine.
type Cluster struct {
	cfg   Config
	graph *topo.Graph
	be    backend
	pk    *packetBackend  // non-nil iff Engine == EnginePacket
	fl    *fluidBackend   // non-nil iff Engine == EngineFluid
	trace *trace.Recorder // non-nil iff Config.Trace is set

	// zeroFaults holds the lowered fault schedules applied while the clock
	// read zero, in call order: the inputs a checkpoint records besides the
	// two configs and the tick count.
	zeroFaults []*faults.Schedule
	// drivenBy says what has driven the cluster, which decides whether a
	// checkpoint can reproduce it: "" while nothing has, servedBy while
	// only one Service's ticks have, else the first call that drove it
	// another way.
	drivenBy string
}

// New builds a cluster. The simulation clock starts at zero; nothing runs
// until one of the Run methods is called.
func New(cfg Config) (*Cluster, error) {
	if cfg.Width <= 0 {
		return nil, fmt.Errorf("rackfab: width must be positive")
	}
	if cfg.LanesPerLink < 0 {
		return nil, fmt.Errorf("rackfab: lanes per link must not be negative")
	}
	if cfg.PowerCapW < 0 {
		return nil, fmt.Errorf("rackfab: power cap must not be negative")
	}
	if cfg.SLOTargetX < 0 || math.IsNaN(cfg.SLOTargetX) {
		return nil, fmt.Errorf("rackfab: SLO target multiplier must be a non-negative number, got %v", cfg.SLOTargetX)
	}
	media, err := mediaOf(cfg.Media)
	if err != nil {
		return nil, err
	}
	// Validate engine-independent knobs up front so a Config is accepted or
	// rejected identically under either engine (the fluid engine ignores
	// the switch mode but still refuses a nonsense one).
	switch cfg.SwitchMode {
	case CutThrough, StoreAndForward, "":
	default:
		return nil, fmt.Errorf("rackfab: unknown switch mode %q", cfg.SwitchMode)
	}
	opts := topo.Options{LanesPerLink: cfg.LanesPerLink, Media: media}
	var g *topo.Graph
	switch cfg.Topology {
	case Grid, "":
		if cfg.Height <= 0 {
			return nil, fmt.Errorf("rackfab: grid needs a positive height")
		}
		g = topo.NewGrid(cfg.Width, cfg.Height, opts)
	case Torus:
		if cfg.Height <= 0 {
			return nil, fmt.Errorf("rackfab: torus needs a positive height")
		}
		g = topo.NewTorus(cfg.Width, cfg.Height, opts)
	case Line:
		g = topo.NewLine(cfg.Width, opts)
	case Ring:
		if cfg.Width < 3 {
			return nil, fmt.Errorf("rackfab: ring needs at least 3 nodes")
		}
		g = topo.NewRing(cfg.Width, opts)
	default:
		return nil, fmt.Errorf("rackfab: unknown topology %q", cfg.Topology)
	}

	c := &Cluster{cfg: cfg, graph: g}
	if cfg.Trace {
		c.trace = trace.NewRecorder()
		// The utilization-sample convention differs per engine: the packet
		// datapath folds per-transmission busy fractions (window = Sum), the
		// fluid solver instantaneous allocated shares (window = Last).
		c.trace.InitLinks(trace.LinkNames(g), cfg.Engine == EnginePacket || cfg.Engine == "")
	}
	switch cfg.Engine {
	case EnginePacket, "":
		if err := c.buildPacket(g); err != nil {
			return nil, err
		}
	case EngineFluid:
		if cfg.Control.Enabled {
			return nil, fmt.Errorf("rackfab: the Closed Ring Control %w", ErrPacketOnly)
		}
		sess, err := fluid.NewSession(fluid.Config{Graph: g, Trace: c.trace}, nil)
		if err != nil {
			return nil, err
		}
		c.fl = &fluidBackend{sess: sess}
		c.be = c.fl
	default:
		return nil, fmt.Errorf("rackfab: unknown engine %q", cfg.Engine)
	}
	if cfg.Faults != nil {
		if err := c.ApplyFaults(cfg.Faults); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// buildPacket assembles the packet datapath and, when configured, the CRC.
func (c *Cluster) buildPacket(g *topo.Graph) error {
	cfg := c.cfg
	fcfg := fabric.DefaultConfig(g)
	fcfg.Seed = cfg.Seed
	fcfg.PowerCapW = cfg.PowerCapW
	if !cfg.Control.Enabled {
		// Without the CRC observing per-frame telemetry, the NICs coalesce
		// consecutive same-flow frames into trains: identical wire bits and
		// fair sharing, an order of magnitude fewer datapath events.
		// SetLinkBER drops the fabric back to per-frame granularity.
		fcfg.Host.TrainLength = fabric.TrainLength
	}
	if cfg.SwitchMode == StoreAndForward {
		fcfg.Switch.Mode = switching.StoreAndForward
	}
	fcfg.Trace = c.trace
	var ctl *ringctl.Config
	if cfg.Control.Enabled {
		ccfg := ringctl.DefaultConfig()
		if cfg.Control.Epoch > 0 {
			ccfg.Epoch = sim.Duration(cfg.Control.Epoch.Nanoseconds()) * sim.Nanosecond
		}
		ccfg.EnableFEC = !cfg.Control.DisableFEC
		ccfg.EnablePower = !cfg.Control.DisablePower
		ccfg.EnableBypass = !cfg.Control.DisableBypass
		ccfg.EnableReconfig = !cfg.Control.DisableReconfig
		ctl = &ccfg
	}
	fab, crc, err := fabric.Assemble(fcfg, ctl)
	if err != nil {
		return err
	}
	c.pk = &packetBackend{fab: fab, ctl: crc}
	c.be = c.pk
	return nil
}

func mediaOf(m Media) (phy.Media, error) {
	switch m {
	case Backplane, "":
		return phy.Backplane, nil
	case CopperDAC:
		return phy.CopperDAC, nil
	case OpticalFiber:
		return phy.OpticalFiber, nil
	default:
		return 0, fmt.Errorf("rackfab: unknown media %q", m)
	}
}

// Engine returns the backend the cluster runs on.
func (c *Cluster) Engine() Engine {
	if c.pk != nil {
		return EnginePacket
	}
	return EngineFluid
}

// Nodes returns the node count.
func (c *Cluster) Nodes() int { return c.graph.NumNodes() }

// MeanHops returns the current mean shortest-path hop count — the metric
// Figure 2's reconfiguration improves.
func (c *Cluster) MeanHops() (float64, error) { return c.graph.MeanHops() }

// PowerW returns the fabric's current draw in watts (zero on the fluid
// engine, which carries no power model).
func (c *Cluster) PowerW() float64 {
	if c.pk == nil {
		return 0
	}
	return c.pk.fab.TotalPowerW()
}

// RunFor advances simulated time by d.
func (c *Cluster) RunFor(d time.Duration) error {
	c.offScript("RunFor")
	return c.be.RunFor(simDur(d))
}

// RunUntilDone runs until every injected flow completes, or errors at the
// simulated-time limit.
func (c *Cluster) RunUntilDone(limit time.Duration) error {
	c.offScript("RunUntilDone")
	return c.be.runUntilDone(limit)
}

// RunPhases executes barrier-synchronized phases to completion: each
// phase's flows release only once every flow injected so far has
// completed, with phase-relative At values anchored at the drain instant —
// the bulk-synchronous shape collective workloads (RingAllReduceTraffic and
// friends) emit. It returns per-phase flow handles. Each phase is an
// ordinary Inject followed by RunUntilDone, so RunPhases mixes freely with
// earlier Inject and Run calls (it waits for their flows too), and a traced
// cluster records a phase-open event at every barrier on either engine.
// limit caps total simulated time, as in RunUntilDone.
func (c *Cluster) RunPhases(phases [][]FlowSpec, limit time.Duration) ([][]*Flow, error) {
	c.offScript("RunPhases")
	if len(phases) == 0 {
		return nil, fmt.Errorf("rackfab: RunPhases needs at least one phase")
	}
	out := make([][]*Flow, 0, len(phases))
	for i, ph := range phases {
		if len(ph) == 0 {
			return nil, fmt.Errorf("rackfab: phase %d is empty", i)
		}
		if i > 0 {
			c.trace.Record(trace.Event{
				At: c.be.Now(), Kind: trace.PhaseOpen,
				Flow: -1, Link: -1, Node: -1, Value: int64(i),
			})
		}
		flows, err := c.be.inject(ph)
		if err != nil {
			return nil, err
		}
		if err := c.be.runUntilDone(limit); err != nil {
			return nil, fmt.Errorf("rackfab: phase %d: %w", i, err)
		}
		for _, f := range flows {
			if !f.Done() {
				return nil, fmt.Errorf("rackfab: phase %d flow %d→%d unfinished (failed or limit hit)", i, f.spec.Src, f.spec.Dst)
			}
		}
		out = append(out, flows)
	}
	return out, nil
}

// PeakQueueDelay reports the worst per-hop frame queueing delay any link
// observed — the receiver-pressure bound incast studies compare across
// admission schemes (token pacing vs open-loop VLB). Packet engine only:
// the fluid engine has no queues.
func (c *Cluster) PeakQueueDelay() (time.Duration, error) {
	if c.pk == nil {
		return 0, errPacketOnly("queue-delay telemetry")
	}
	return fromSim(c.pk.fab.PeakQueueDelay()), nil
}

// ApplyGridToTorus executes Figure 2's reconfiguration immediately (the
// CRC does this on its own when enabled and the fabric runs hot; this
// entry point is for deterministic experiments). keepLanes is the switched
// lane count left on every link (typically 1).
func (c *Cluster) ApplyGridToTorus(keepLanes int) error {
	c.offScript("ApplyGridToTorus")
	if c.pk == nil {
		return errPacketOnly("grid→torus reconfiguration")
	}
	ctl := c.pk.ctl
	if ctl == nil {
		ctl = ringctl.New(c.pk.fab.Engine(), c.pk.fab, ringctl.DefaultConfig())
	}
	return ctl.ApplyGridToTorus(keepLanes)
}

// SetLinkBER sets the true channel bit error rate on the link joining
// nodes a and b (fault injection for the adaptive-FEC path).
func (c *Cluster) SetLinkBER(a, b int, ber float64) error {
	c.offScript("SetLinkBER")
	if c.pk == nil {
		return errPacketOnly("BER injection")
	}
	e, ok := c.graph.EdgeBetween(topo.NodeID(a), topo.NodeID(b))
	if !ok {
		return fmt.Errorf("rackfab: no link between %d and %d", a, b)
	}
	for _, lane := range e.Link.Lanes {
		lane.SetBER(ber)
	}
	// BER corrupts individual frames; frames queued from here on must be
	// per-frame events so the error model observes each one.
	c.pk.fab.SetFrameTrains(1)
	return nil
}

// DisableLanes powers down n lanes on the link joining a and b (fault
// injection / degradation for the adaptive-routing path). For
// engine-agnostic capacity faults use a FaultSchedule instead.
func (c *Cluster) DisableLanes(a, b, n int) error {
	c.offScript("DisableLanes")
	if c.pk == nil {
		return errPacketOnly("lane control")
	}
	e, ok := c.graph.EdgeBetween(topo.NodeID(a), topo.NodeID(b))
	if !ok {
		return fmt.Errorf("rackfab: no link between %d and %d", a, b)
	}
	if n >= e.Link.ActiveLanes() {
		return fmt.Errorf("rackfab: refusing to darken the whole link (%d of %d lanes)", n, e.Link.ActiveLanes())
	}
	for i := 0; i < n; i++ {
		lane := e.Link.Lanes[len(e.Link.Lanes)-1-i]
		if err := lane.SetState(phy.LaneOff); err != nil {
			return err
		}
	}
	c.pk.fab.RebuildRoutes(nil)
	return nil
}

// SetValiantRouting switches the fabric between shortest-path forwarding
// (default) and Valiant load balancing — the oblivious two-phase
// discipline the A3 ablation compares against the CRC's adaptive pricing.
// A no-op on the fluid engine, which always routes shortest-path.
func (c *Cluster) SetValiantRouting(enabled bool) {
	c.offScript("SetValiantRouting")
	if c.pk == nil {
		return
	}
	c.pk.fab.SetVLB(enabled)
}

// LinkFECName reports the FEC profile currently installed on the link
// joining a and b.
func (c *Cluster) LinkFECName(a, b int) (string, error) {
	if c.pk == nil {
		return "", errPacketOnly("FEC introspection")
	}
	e, ok := c.graph.EdgeBetween(topo.NodeID(a), topo.NodeID(b))
	if !ok {
		return "", fmt.Errorf("rackfab: no link between %d and %d", a, b)
	}
	return e.Link.FEC().Name(), nil
}

// Decisions returns the CRC's decision log as printable lines (empty
// without control enabled; replayed fault events appear here too).
func (c *Cluster) Decisions() []string {
	if c.pk == nil || c.pk.ctl == nil {
		return nil
	}
	ds := c.pk.ctl.Decisions()
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.String()
	}
	return out
}

// Now returns the current simulated time.
func (c *Cluster) Now() time.Duration { return fromSim(sim.Duration(c.be.Now())) }

// simDur converts an API duration (ns resolution) to simulator picoseconds.
func simDur(d time.Duration) sim.Duration {
	return sim.Duration(d.Nanoseconds()) * sim.Nanosecond
}

// fromSim converts simulator picoseconds to an API duration (truncating
// below a nanosecond).
func fromSim(d sim.Duration) time.Duration {
	return time.Duration(int64(d) / int64(sim.Nanosecond))
}
