// Package fabric assembles the full packet-level rack fabric: the topology
// graph, per-node switches and hosts, link datapaths with FEC and error
// injection, and the Physical Layer Primitive executor the Closed Ring
// Control drives. It is the Go equivalent of the paper's OMNeT++ network
// model.
package fabric

import (
	"fmt"

	"rackfab/internal/faults"
	"rackfab/internal/host"
	"rackfab/internal/phy"
	"rackfab/internal/power"
	"rackfab/internal/route"
	"rackfab/internal/sim"
	"rackfab/internal/switching"
	"rackfab/internal/telemetry"
	"rackfab/internal/topo"
	"rackfab/internal/trace"
)

// Config assembles a fabric.
type Config struct {
	// Graph is the constructed topology (grid, torus, …).
	Graph *topo.Graph
	// Switch configures every node's switch; Ports is derived per node.
	Switch switching.Config
	// Host configures every node's NIC.
	Host host.Config
	// ExpressPorts reserves switch ports per node for runtime bypass
	// channels (PLP #2). A node's fabric links plus ExpressPorts may not
	// exceed route.MaxDegree.
	ExpressPorts int
	// PowerCapW is the rack power budget (0 = uncapped).
	PowerCapW float64
	// Seed drives all stochastic elements (error injection).
	Seed int64
	// Trace, when non-nil, receives the datapath's flight-recorder events
	// (flow arrivals/completions, VOQ and NIC queue churn, fault replay)
	// and windowed per-link utilization/queue-depth series. The recorder
	// must already have its link tracks initialized (trace.LinkNames over
	// this graph); the fabric adds the tracks of the express links it
	// builds. Nil costs the hot paths a single pointer test.
	Trace *trace.Recorder
}

// The fabric's datapath calibration.
const (
	// RetryDelay is the transport's resend delay after a fabric drop.
	RetryDelay = 50 * sim.Microsecond
	// CutThroughHeaderBits is how much of a frame must arrive before a
	// cut-through switch can begin forwarding (header + lookup window).
	CutThroughHeaderBits = 64 * 8
	// TrainLength is the NIC train length (host.Config.TrainLength) of a
	// run that observes no individual frame.
	TrainLength = 16
	// queueDelayWeight is the EWMA weight of a link's VOQ-delay average.
	queueDelayWeight = 0.2
)

// DefaultConfig returns the standard assembly for a graph.
func DefaultConfig(g *topo.Graph) Config {
	return Config{
		Graph:        g,
		Switch:       switching.DefaultConfig(0), // ports filled per node
		Host:         host.DefaultConfig(),
		ExpressPorts: 4,
		Seed:         1,
	}
}

// Stats aggregates the fabric-wide instruments that a run's Report and the
// experiments read. Delivered, Corrupt, Latency and Hops count a train as
// the member frames it carries.
type Stats struct {
	// Latency is the end-to-end frame latency distribution (ps).
	Latency *telemetry.Histogram
	// Hops is the per-frame switch-traversal distribution.
	Hops *telemetry.Histogram
	// Delivered, Dropped, Corrupt count frames (Dropped counts a dropped
	// train once).
	Delivered telemetry.Counter
	Dropped   telemetry.Counter
	Corrupt   telemetry.Counter
	// FlowsCompleted counts flows.
	FlowsCompleted telemetry.Counter
	// FCT is the flow-completion-time distribution (ps).
	FCT *telemetry.Histogram
}

// linkState is the fabric's per-link bookkeeping, and the handler of the
// link's link-rx events.
type linkState struct {
	fab  *Fabric
	edge *topo.Edge
	// ports are the switch ports the link occupies at edge.A and edge.B.
	ports [2]int
	// busyPs accumulates transmitter busy time per direction (index 0:
	// A→B, 1: B→A) since windowStart, for utilization reports.
	busyPs      [2]int64
	windowStart sim.Time
	// qDelay smooths the VOQ delay of frames leaving onto this link;
	// qPeak keeps the worst single observation — the receiver-queueing
	// bound the token-pacing differential asserts on.
	qDelay *telemetry.EWMA
	qPeak  sim.Duration
	// prevBits/prevErrs snapshot the lane counters at the last report so
	// MeasuredBER is windowed — a receiver reports the current channel,
	// not its lifetime history (otherwise the CRC could never observe a
	// repaired link and de-escalate its FEC).
	prevBits, prevErrs int64
	lastBER            float64
}

// Fabric is a fully wired packet-level rack fabric.
type Fabric struct {
	eng *sim.Engine
	cfg Config
	g   *topo.Graph

	switches []*switching.Switch
	hosts    []*host.Host
	table    *route.Table
	costFn   route.CostFunc
	vlb      bool // Valiant load balancing over table instead of shortest path
	rng      *sim.RNG

	// edgeAt[node][port] is the edge on a switch port (port 0 = host).
	edgeAt    [][]*topo.Edge
	freePorts [][]int

	links   []*linkState // by edge index; nil once an express edge is removed
	budget  *power.Budget
	claimed map[*phy.Lane][2]topo.NodeID // donated lanes in use, by express endpoints

	trace *trace.Recorder // nil = flight recorder off

	active   map[host.FlowID]*host.Flow
	nextFlow host.FlowID
	stats    Stats
	// waiting holds the unfinished flows RunUntilDone waits for while it
	// runs (active itself when the caller measures none), nil otherwise.
	waiting  map[host.FlowID]*host.Flow
	plpQueue []plpJob
	plpBusy  bool

	// Fault replay (see faults.go): the applied-event counters Report
	// surfaces, and the open starvation episodes (flow ID → episode start)
	// awaiting a healing repair.
	faultStats faults.Stats
	starved    map[host.FlowID]sim.Time
}

// New assembles a fabric over the given graph.
func New(eng *sim.Engine, cfg Config) (*Fabric, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("fabric: config needs a graph")
	}
	if err := cfg.Graph.Validate(); err != nil {
		return nil, fmt.Errorf("fabric: invalid topology: %w", err)
	}
	if cfg.ExpressPorts < 0 {
		return nil, fmt.Errorf("fabric: negative express ports")
	}
	for node := 0; node < cfg.Graph.NumNodes(); node++ {
		if deg := len(cfg.Graph.Adjacent(topo.NodeID(node))) + cfg.ExpressPorts; deg > route.MaxDegree {
			return nil, fmt.Errorf("fabric: node %d could reach %d links with %d express ports; routing allows %d",
				node, deg, cfg.ExpressPorts, route.MaxDegree)
		}
	}
	n := cfg.Graph.NumNodes()
	f := &Fabric{
		eng:     eng,
		cfg:     cfg,
		g:       cfg.Graph,
		rng:     sim.NewRNG(cfg.Seed),
		links:   make([]*linkState, cfg.Graph.EdgeIndexBound()),
		budget:  power.NewBudget(cfg.PowerCapW),
		claimed: make(map[*phy.Lane][2]topo.NodeID),
		active:  make(map[host.FlowID]*host.Flow),
		edgeAt:  make([][]*topo.Edge, n),
		trace:   cfg.Trace,
	}
	for _, e := range f.g.Edges() {
		f.links[e.Index()] = &linkState{fab: f, edge: e, qDelay: telemetry.NewEWMA(queueDelayWeight)}
	}
	f.stats.Latency = telemetry.NewHistogram()
	f.stats.Hops = telemetry.NewHistogram()
	f.stats.FCT = telemetry.NewHistogram()
	f.freePorts = make([][]int, n)

	// Port plan: 0 = host, 1..deg = fabric edges, then express spares.
	for node := 0; node < n; node++ {
		adj := f.g.Adjacent(topo.NodeID(node))
		ports := 1 + len(adj) + cfg.ExpressPorts
		f.edgeAt[node] = make([]*topo.Edge, ports)
		for i, e := range adj {
			ls := f.links[e.Index()]
			ls.ports[ls.side(topo.NodeID(node))] = i + 1
			f.edgeAt[node][i+1] = e
		}
		for p := 1 + len(adj); p < ports; p++ {
			f.freePorts[node] = append(f.freePorts[node], p)
		}
	}
	f.switches = make([]*switching.Switch, n)
	f.hosts = make([]*host.Host, n)
	for node := 0; node < n; node++ {
		node := node
		adj := f.g.Adjacent(topo.NodeID(node))
		swCfg := cfg.Switch
		swCfg.Ports = 1 + len(adj) + cfg.ExpressPorts
		swCb := switching.Callbacks{
			Forward:  func(fr *switching.Frame) (int, bool) { return f.forward(node, fr) },
			TxTime:   func(port int, fr *switching.Frame) sim.Duration { return f.txTime(node, port, fr) },
			Transmit: func(port int, fr *switching.Frame) { f.transmit(node, port, fr) },
			Drop:     func(fr *switching.Frame, reason string) { f.onDrop(fr, reason) },
			Pause:    func(port int, paused bool) { f.onPause(node, port, paused) },
		}
		hostCb := host.Callbacks{
			Inject:    func(fr *switching.Frame) { f.hostInject(node, fr) },
			NACKDelay: f.nackDelay,
		}
		if f.trace != nil {
			swCb.Trace = func(enq bool, out int, fr *switching.Frame, depth int) {
				f.traceQueue(node, enq, out, fr, depth)
			}
			hostCb.Trace = func(enq bool, flow host.FlowID, depth int) {
				f.traceNICQueue(node, enq, flow, depth)
			}
		}
		f.switches[node] = switching.New(eng, swCfg, swCb)
		f.hosts[node] = host.New(node, eng, cfg.Host, hostCb, f.onFlowDone)
	}
	f.costFn = route.UniformCost
	f.table = route.Build(f.g, f.costFn)
	f.samplePower()
	return f, nil
}

// Engine returns the fabric's simulation engine.
func (f *Fabric) Engine() *sim.Engine { return f.eng }

// Graph returns the live topology.
func (f *Fabric) Graph() *topo.Graph { return f.g }

// Stats returns the fabric-wide instruments.
func (f *Fabric) Stats() *Stats { return &f.stats }

// PeakQueueDelay returns the worst per-hop frame sojourn observed on any
// link so far — the receiver-queueing bound incast experiments compare
// across admission schemes.
func (f *Fabric) PeakQueueDelay() sim.Duration {
	var peak sim.Duration
	for _, ls := range f.links {
		if ls != nil && ls.qPeak > peak {
			peak = ls.qPeak
		}
	}
	return peak
}

// side is 0 when node is the link's A end and 1 when it is the B end.
func (ls *linkState) side(node topo.NodeID) int {
	if node == ls.edge.A {
		return 0
	}
	return 1
}

// port returns the switch port the link occupies at node, one of its ends.
func (ls *linkState) port(node topo.NodeID) int { return ls.ports[ls.side(node)] }

// PowerBudget returns the rack power envelope tracker.
func (f *Fabric) PowerBudget() *power.Budget { return f.budget }

// RebuildRoutes re-derives forwarding under the given cost function and
// remembers it for rebuilds after topology mutations.
func (f *Fabric) RebuildRoutes(cost route.CostFunc) {
	if cost == nil {
		cost = route.UniformCost
	}
	f.costFn = cost
	f.table = route.Build(f.g, cost)
}

// SetVLB switches the fabric between shortest-path forwarding (default)
// and Valiant load balancing over the routing table.
func (f *Fabric) SetVLB(enabled bool) { f.vlb = enabled }

// SetFrameTrains sets every NIC's train-coalescing limit for frames
// queued from now on. Callers that switch a run to per-frame observation
// (BER injection, CRC telemetry) pass 1 to restore per-frame events.
func (f *Fabric) SetFrameTrains(n int) {
	for _, h := range f.hosts {
		h.SetTrainLength(n)
	}
}

// samplePower re-prices the whole fabric and records it in the budget.
// Links are summed in the graph's stable edge order: float64 addition is
// order-sensitive.
func (f *Fabric) samplePower() {
	var w float64
	for _, e := range f.g.Edges() {
		w += power.LinkPower(e.Link)
	}
	for node := range f.switches {
		active := 0
		for _, e := range f.edgeAt[node] {
			if e != nil && e.Link.Up() {
				active++
			}
		}
		w += power.NodePower(active)
	}
	f.budget.Observe(f.eng.Now(), w)
}

// TotalPowerW returns the fabric's current draw.
func (f *Fabric) TotalPowerW() float64 {
	f.samplePower()
	return f.budget.CurrentW()
}
