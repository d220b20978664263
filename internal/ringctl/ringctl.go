// Package ringctl implements the paper's Closed Ring Control (CRC): the
// control loop that "uses per-link price tags, with respect to metrics such
// as latency, congestion, link health etc. to allocate PLP's and schedule
// flows".
//
// The loop is a closed ring embedded in the rack: a telemetry token
// circulates through every node, collecting per-link statistics (PLP #5),
// and the controller's decisions take effect one ring round-trip after the
// statistics were true — the feedback delay of any real closed-loop
// controller, modeled explicitly. Each epoch the controller:
//
//  1. refreshes the per-link price book from the collected reports,
//  2. runs its policies — adaptive FEC (PLP #4), power capping (PLP #3),
//     bypass allocation for elephant flows (PLP #1+#2), topology
//     reconfiguration (Figure 2's grid→torus), and price-driven
//     re-routing — each of which emits PLP commands,
//  3. hands the commands to the fabric's PLP executor.
//
// The central optimization the paper names — "finding the minimum flow
// size for which reconfiguration is worth the cost" — lives in
// optimizer.go and gates the bypass and reconfiguration policies.
package ringctl

import (
	"fmt"
	"math"

	"rackfab/internal/faults"
	"rackfab/internal/netstack"
	"rackfab/internal/phy"
	"rackfab/internal/plp"
	"rackfab/internal/power"
	"rackfab/internal/route"
	"rackfab/internal/sim"
	"rackfab/internal/topo"
)

// LinkReport is one link's telemetry snapshot, collected by the ring.
type LinkReport struct {
	// Link is the link's topo edge index.
	Link int
	// Utilization is the busy fraction of the link in the last window.
	Utilization float64
	// QueueDelay is the mean upstream VOQ residency feeding this link.
	QueueDelay sim.Duration
	// MeasuredBER is the receiver's pre-FEC bit error rate estimate.
	MeasuredBER float64
	// EffectiveRate is the post-FEC goodput capacity in bit/s.
	EffectiveRate float64
	// PowerW is the link's current draw.
	PowerW float64
	// ActiveLanes / TotalLanes describe the bundle's shape.
	ActiveLanes, TotalLanes int
	// Media is the link's medium (capability lookup).
	Media phy.Media
	// Up reports whether the link carries switched traffic.
	Up bool
}

// FlowSnapshot describes an in-flight flow for the bypass policy.
type FlowSnapshot struct {
	ID             uint64
	Src, Dst       int
	BytesRemaining int64
	// Rate is the flow's current delivery rate in bit/s.
	Rate float64
}

// Fabric is the surface the controller drives. internal/fabric implements
// it; tests use lightweight fakes.
type Fabric interface {
	// Reports snapshots all links' telemetry.
	Reports() []LinkReport
	// TopFlows returns up to k in-flight flows by bytes remaining.
	TopFlows(k int) []FlowSnapshot
	// Graph exposes the live topology.
	Graph() *topo.Graph
	// RebuildRoutes re-derives the forwarding tables under a cost function.
	RebuildRoutes(cost route.CostFunc)
	// Execute applies one PLP command (plp.Executor).
	Execute(cmd plp.Command, done func(plp.Result)) error
	// PowerBudget exposes the rack power envelope.
	PowerBudget() *power.Budget
}

// PriceWeights shape the per-link cost function.
type PriceWeights struct {
	// Latency weighs normalized queue delay.
	Latency float64
	// Congestion weighs utilization squared (convex: hot links price
	// superlinearly, the standard congestion-pricing shape).
	Congestion float64
	// Health weighs the BER penalty.
	Health float64
	// Power weighs the link's share of the rack budget.
	Power float64
}

// DefaultWeights favour latency, the paper's headline metric.
func DefaultWeights() PriceWeights {
	return PriceWeights{Latency: 1.0, Congestion: 0.8, Health: 2.0, Power: 0.3}
}

// The controller's calibration.
const (
	// PerHopControl is the control ring's per-node processing latency.
	// Together with the telemetry token's serialization time at
	// ControlLaneRate it sets the ring round-trip — both the collection
	// epoch floor and the actuation delay.
	PerHopControl = 100 * sim.Nanosecond
	// ControlLaneRate is the dedicated control lane's rate in bit/s. The
	// token carries one record per fabric link, so bigger racks pay a
	// longer serialization per hop — control-loop lag scales with rack
	// size, as it physically must.
	ControlLaneRate = 10e9
	// PriceSmoothing is the EWMA weight for price updates.
	PriceSmoothing = 0.4
	// MaxBypasses caps live express channels.
	MaxBypasses = 8
	// BypassReclaimEpochs tears an idle express channel down after this
	// many consecutive low-utilization epochs, re-bundling the donor
	// lanes. Reclamation only touches channels the bypass policy itself
	// built — reconfiguration wrap links are never reclaimed.
	BypassReclaimEpochs = 4
	// BypassIdleUtilization is the utilization floor below which an
	// express channel counts as idle.
	BypassIdleUtilization = 0.02
	// ReconfigUtilization is the mean link utilization at which the
	// reconfiguration policy turns a grid into a torus.
	ReconfigUtilization = 0.55
)

// Config parameterizes the controller.
type Config struct {
	// Epoch overrides the derived collection period when nonzero.
	Epoch sim.Duration
	// Weights shape the price function.
	Weights PriceWeights
	// FECDeescalateDwell is the number of consecutive clean epochs before
	// a lane's FEC steps down the ladder (0 = fec.DefaultDeescalateDwell).
	// Size it above the channel's burst period in epochs — see E9.
	FECDeescalateDwell int
	// EnableFEC / EnableRouting / EnablePower / EnableBypass /
	// EnableReconfig gate the policies (ablation switches).
	EnableFEC, EnableRouting, EnablePower, EnableBypass, EnableReconfig bool
}

// DefaultConfig enables every policy with the default price weights.
func DefaultConfig() Config {
	return Config{
		Weights:        DefaultWeights(),
		EnableFEC:      true,
		EnableRouting:  true,
		EnablePower:    true,
		EnableBypass:   true,
		EnableReconfig: true,
	}
}

// Decision is one logged controller action, the audit trail the
// reconfiguration example walks through.
type Decision struct {
	At     sim.Time
	Policy string
	Note   string
	Cmd    *plp.Command // nil for non-command decisions (route rebuilds)
}

// String renders a decision line.
func (d Decision) String() string {
	if d.Cmd != nil {
		return fmt.Sprintf("[%v] %s: %s — %s", d.At, d.Policy, d.Cmd, d.Note)
	}
	return fmt.Sprintf("[%v] %s: %s", d.At, d.Policy, d.Note)
}

// Controller is the Closed Ring Control instance for one fabric.
type Controller struct {
	eng    *sim.Engine
	fabric Fabric
	cfg    Config

	prices    *PriceBook
	fecStates []*linkFEC // by link index; nil until the FEC policy sees it
	decisions []Decision
	bypasses  int
	bypassed  map[[2]int]*bypassState // (src,dst) pairs with an issued express setup
	reconfigd bool
}

// bypassState tracks one policy-built express channel for reclamation.
type bypassState struct {
	path       []int
	idleEpochs int
}

// New builds a controller. Call Start to begin the control loop.
func New(eng *sim.Engine, fab Fabric, cfg Config) *Controller {
	return &Controller{
		eng:      eng,
		fabric:   fab,
		cfg:      cfg,
		prices:   NewPriceBook(cfg.Weights, PriceSmoothing),
		bypassed: make(map[[2]int]*bypassState),
	}
}

// RingRTT returns the closed ring's round-trip time: the telemetry token
// visits every node once per collection, paying processing plus its own
// serialization at each hop. The token carries one record per fabric
// link, so its wire size — and with it the control loop's feedback delay —
// grows with the rack.
func (c *Controller) RingRTT() sim.Duration {
	g := c.fabric.Graph()
	links := len(g.Edges())
	if links > netstack.MaxTokenRecords {
		links = netstack.MaxTokenRecords // jumbo racks would shard tokens
	}
	perHop := PerHopControl + sim.Transmission(netstack.TokenWireBits(links), ControlLaneRate)
	return sim.Duration(int64(perHop) * int64(g.NumNodes()))
}

// Epoch returns the collection period.
func (c *Controller) Epoch() sim.Duration {
	if c.cfg.Epoch > 0 {
		return c.cfg.Epoch
	}
	rtt := c.RingRTT()
	if rtt < 10*sim.Microsecond {
		return 10 * sim.Microsecond
	}
	return rtt
}

// Start schedules the control loop.
func (c *Controller) Start() {
	c.eng.After(c.Epoch(), "crc-epoch", c.epoch)
}

// Decisions returns the decision log.
func (c *Controller) Decisions() []Decision { return c.decisions }

// epoch is one turn of the ring: collect, then act one ring RTT later.
func (c *Controller) epoch() {
	reports := c.fabric.Reports()
	// The token needs a full ring traversal to deliver the statistics and
	// distribute decisions; act after that delay on the *collected* (now
	// slightly stale) view — an honest closed-loop model.
	c.eng.After(c.RingRTT(), "crc-actuate", func() {
		c.actuate(reports)
		c.eng.After(c.Epoch(), "crc-epoch", c.epoch)
	})
}

// actuate refreshes prices and runs every enabled policy.
func (c *Controller) actuate(reports []LinkReport) {
	c.prices.Update(reports, c.fabric.PowerBudget())
	if c.cfg.EnableFEC {
		c.runFECPolicy(reports)
	}
	if c.cfg.EnablePower {
		c.runPowerPolicy(reports)
	}
	if c.cfg.EnableReconfig {
		c.runReconfigPolicy(reports)
	}
	if c.cfg.EnableBypass {
		c.runBypassReclaim(reports)
		c.runBypassPolicy(reports)
	}
	if c.cfg.EnableRouting {
		c.fabric.RebuildRoutes(c.CostFunc())
		c.log("routing", "rebuilt routes from price book", nil)
	}
}

// CostFunc prices a route hop: a base traversal cost (switch pipeline, or
// the much cheaper retimed bypass for express edges) plus the link's
// current price tag.
func (c *Controller) CostFunc() route.CostFunc {
	return func(e *topo.Edge) float64 {
		if !e.Live() {
			return math.Inf(1)
		}
		base := 1.0
		if e.Express {
			// An express channel replaces len(Via)+1 switch traversals
			// with retimers; price it near one hop's propagation.
			base = 0.2 + 0.02*float64(len(e.Via))
		}
		return base + c.prices.Price(e.Index())
	}
}

// log records a decision.
func (c *Controller) log(policy, note string, cmd *plp.Command) {
	c.decisions = append(c.decisions, Decision{At: c.eng.Now(), Policy: policy, Note: note, Cmd: cmd})
}

// NoteFaults records one replayed fault group on the decision log — the
// audit-trail half of packet-engine fault replay. The fabric applies the
// administrative change and the incremental table repair at the fault
// instant (fabric.ScheduleFaults passes this method as its onApply hook);
// everything after that is the ordinary epoch loop: the next collection
// reads the changed link state, the price book moves, and the routing
// policy rebuilds over the re-priced fabric. Re-pricing, not an oracle
// rebuild, is what heals the run.
func (c *Controller) NoteFaults(evs []faults.LinkEvent, repairedCols int) {
	for _, ev := range evs {
		verb := "restored"
		switch {
		case ev.Factor == 0:
			verb = "down"
		case ev.Factor < 1:
			verb = fmt.Sprintf("degraded to %g× nominal", ev.Factor)
		}
		c.log("fault", fmt.Sprintf("link %d %s (replayed schedule)", ev.Edge, verb), nil)
	}
	c.log("fault", fmt.Sprintf("incremental repair rebuilt %d destination columns; re-pricing heals at next epoch", repairedCols), nil)
}

// issue validates, logs and executes one command.
func (c *Controller) issue(policy, note string, cmd plp.Command) bool {
	if err := cmd.Validate(); err != nil {
		c.log(policy, fmt.Sprintf("invalid command rejected: %v", err), &cmd)
		return false
	}
	if err := c.fabric.Execute(cmd, nil); err != nil {
		c.log(policy, fmt.Sprintf("execute failed: %v", err), &cmd)
		return false
	}
	c.log(policy, note, &cmd)
	return true
}
