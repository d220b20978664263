package fabric

import (
	"fmt"

	"rackfab/internal/fec"
	"rackfab/internal/phy"
	"rackfab/internal/plp"
	"rackfab/internal/telemetry"
	"rackfab/internal/topo"
)

// plpJob is one queued primitive on the fabric's control channel.
type plpJob struct {
	cmd  plp.Command
	done func(plp.Result)
}

// plpLabels precomputes the event labels for each primitive so pumping the
// control channel never concatenates strings per command.
var plpLabels = func() map[plp.Kind]string {
	m := make(map[plp.Kind]string)
	for _, k := range []plp.Kind{
		plp.Break, plp.Bundle, plp.BypassOn, plp.BypassOff,
		plp.LaneOn, plp.LaneOff, plp.SetFEC, plp.QueryStats,
	} {
		m[k] = "plp-" + k.String()
	}
	return m
}()

// plpLabel resolves a command kind to its precomputed event label.
func plpLabel(k plp.Kind) string {
	if l, ok := plpLabels[k]; ok {
		return l
	}
	return "plp-" + k.String()
}

// Execute implements plp.Executor: commands are validated immediately,
// then applied sequentially through the fabric's control channel, each
// taking its media-dependent execution latency. Sequential execution is
// what makes plans safe: the Break that donates lanes always completes
// before the BypassOn that stitches them.
func (f *Fabric) Execute(cmd plp.Command, done func(plp.Result)) error {
	if err := cmd.Validate(); err != nil {
		return err
	}
	if err := f.precheck(cmd); err != nil {
		return err
	}
	f.plpQueue = append(f.plpQueue, plpJob{cmd: cmd, done: done})
	f.pumpPLP()
	return nil
}

// precheck rejects commands the fabric can never apply.
func (f *Fabric) precheck(cmd plp.Command) error {
	switch cmd.Kind {
	case plp.BypassOn, plp.BypassOff:
		for i := 0; i+1 < len(cmd.Path); i++ {
			a, b := topo.NodeID(cmd.Path[i]), topo.NodeID(cmd.Path[i+1])
			e, ok := f.g.EdgeBetween(a, b)
			if !ok {
				return fmt.Errorf("fabric: bypass path hop %d-%d has no link", a, b)
			}
			if !plp.Supported(e.Link.Profile(), cmd.Kind) {
				return fmt.Errorf("fabric: media %v cannot bypass", e.Link.Media)
			}
		}
	default:
		if _, ok := f.g.LinkByID(cmd.Link); !ok && cmd.Kind != plp.QueryStats {
			return fmt.Errorf("fabric: unknown link %d", cmd.Link)
		}
	}
	return nil
}

// pumpPLP serves the control channel one command at a time.
func (f *Fabric) pumpPLP() {
	if f.plpBusy || len(f.plpQueue) == 0 {
		return
	}
	job := f.plpQueue[0]
	f.plpQueue = f.plpQueue[1:]
	f.plpBusy = true

	prof := f.commandProfile(job.cmd)
	latency, downtime := plp.Cost(prof, job.cmd.Kind)
	f.eng.After(latency, plpLabel(job.cmd.Kind), func() {
		powerBefore := f.budget.CurrentW()
		err := f.apply(job.cmd)
		f.samplePower()
		res := plp.Result{
			CompletedAt: f.eng.Now(),
			Downtime:    downtime,
			PowerDeltaW: f.budget.CurrentW() - powerBefore,
		}
		if err != nil {
			// Application failures are model bugs or races with failures;
			// surface loudly rather than silently dropping the plan step.
			panic(fmt.Sprintf("fabric: applying %v: %v", job.cmd, err))
		}
		if job.done != nil {
			job.done(res)
		}
		f.plpBusy = false
		f.pumpPLP()
	})
}

// commandProfile resolves the media profile that prices a command.
func (f *Fabric) commandProfile(cmd plp.Command) phy.Profile {
	if len(cmd.Path) >= 2 {
		if e, ok := f.g.EdgeBetween(topo.NodeID(cmd.Path[0]), topo.NodeID(cmd.Path[1])); ok {
			return e.Link.Profile()
		}
	}
	if e, ok := f.g.LinkByID(cmd.Link); ok {
		return e.Link.Profile()
	}
	return phy.ProfileOf(phy.Backplane)
}

// apply mutates the fabric for one completed primitive.
func (f *Fabric) apply(cmd plp.Command) error {
	switch cmd.Kind {
	case plp.Break:
		e, _ := f.g.LinkByID(cmd.Link)
		if e.Link.ActiveLanes() <= cmd.KeepLanes {
			return nil // already at or below the target width
		}
		if _, err := e.Link.SplitLanes(cmd.KeepLanes, cmd.FreedState); err != nil {
			return err
		}
		f.RebuildRoutes(f.costFn)
		return nil

	case plp.Bundle:
		e, _ := f.g.LinkByID(cmd.Link)
		if err := e.Link.BundleLanes(); err != nil {
			return err
		}
		// Lanes come back through training.
		retrain := e.Link.Profile().RetrainTime
		f.eng.After(retrain, "lane-trained", func() {
			for _, lane := range e.Link.Lanes {
				if lane.State() == phy.LaneTraining {
					if err := lane.SetState(phy.LaneUp); err != nil {
						panic(err)
					}
				}
			}
			f.RebuildRoutes(f.costFn)
			f.samplePower()
		})
		return nil

	case plp.BypassOn:
		return f.applyBypassOn(cmd)

	case plp.BypassOff:
		return f.applyBypassOff(cmd)

	case plp.LaneOn:
		e, _ := f.g.LinkByID(cmd.Link)
		lanes := f.targetLanes(e, cmd.Lane)
		for _, lane := range lanes {
			if lane.State() == phy.LaneOff {
				if err := lane.SetState(phy.LaneTraining); err != nil {
					return err
				}
			}
		}
		retrain := e.Link.Profile().RetrainTime
		f.eng.After(retrain, "lane-trained", func() {
			for _, lane := range lanes {
				if lane.State() == phy.LaneTraining {
					if err := lane.SetState(phy.LaneUp); err != nil {
						panic(err)
					}
				}
			}
			f.RebuildRoutes(f.costFn)
			f.samplePower()
		})
		return nil

	case plp.LaneOff:
		e, _ := f.g.LinkByID(cmd.Link)
		for _, lane := range f.targetLanes(e, cmd.Lane) {
			if lane.State() == phy.LaneFailed {
				continue
			}
			if err := lane.SetState(phy.LaneOff); err != nil {
				return err
			}
		}
		f.RebuildRoutes(f.costFn)
		return nil

	case plp.SetFEC:
		e, _ := f.g.LinkByID(cmd.Link)
		prof, ok := fec.ProfileByName(cmd.FECProfile)
		if !ok {
			return fmt.Errorf("fabric: unknown FEC profile %q", cmd.FECProfile)
		}
		e.Link.SetFEC(prof)
		return nil

	case plp.QueryStats:
		return nil // reports flow through Reports()

	default:
		return fmt.Errorf("fabric: unhandled primitive %v", cmd.Kind)
	}
}

// targetLanes resolves a command's lane selector.
func (f *Fabric) targetLanes(e *topo.Edge, lane int) []*phy.Lane {
	if lane < 0 {
		return e.Link.Lanes
	}
	if lane >= len(e.Link.Lanes) {
		return nil
	}
	return e.Link.Lanes[lane : lane+1]
}

// applyBypassOn stitches donated (bypassed) lanes along the path into an
// express channel: a new single-lane link joining the endpoints whose
// length is the whole physical run, with the intermediate switches cut out
// of the datapath.
func (f *Fabric) applyBypassOn(cmd plp.Command) error {
	a := topo.NodeID(cmd.Path[0])
	b := topo.NodeID(cmd.Path[len(cmd.Path)-1])
	if _, exists := f.g.ExpressBetween(a, b); exists {
		return nil // idempotent
	}
	var totalLen float64
	var media phy.Media
	rate := 0.0
	donors := make([]*phy.Lane, 0, len(cmd.Path)-1)
	for i := 0; i+1 < len(cmd.Path); i++ {
		e, ok := f.g.EdgeBetween(topo.NodeID(cmd.Path[i]), topo.NodeID(cmd.Path[i+1]))
		if !ok {
			return fmt.Errorf("fabric: bypass hop %d-%d missing", cmd.Path[i], cmd.Path[i+1])
		}
		donor := f.donorLane(e)
		if donor == nil {
			return fmt.Errorf("fabric: link %d has no unclaimed donated lane for bypass", e.Link.ID)
		}
		donors = append(donors, donor)
		totalLen += e.Link.LengthM
		media = e.Link.Media
		if rate == 0 || donor.Rate < rate {
			rate = donor.Rate
		}
	}
	if len(f.freePorts[a]) == 0 || len(f.freePorts[b]) == 0 {
		return fmt.Errorf("fabric: no free express ports for %d↔%d", a, b)
	}
	link, err := phy.NewLink(f.g.NextLinkID(), media, totalLen, 1, rate)
	if err != nil {
		return err
	}
	via := make([]topo.NodeID, 0, len(cmd.Path)-2)
	for _, n := range cmd.Path[1 : len(cmd.Path)-1] {
		via = append(via, topo.NodeID(n))
	}
	e := f.g.AddExpress(a, b, via, link)
	f.links[link.ID] = &linkState{fab: f, edge: e, windowStart: f.eng.Now(), qDelay: telemetry.NewEWMA(0.2)}
	for _, donor := range donors {
		f.claimed[donor] = [2]topo.NodeID{a, b}
	}

	// Claim ports at both endpoints.
	pa := f.freePorts[a][0]
	f.freePorts[a] = f.freePorts[a][1:]
	pb := f.freePorts[b][0]
	f.freePorts[b] = f.freePorts[b][1:]
	f.portOf[a][e] = pa
	f.edgeAt[a][pa] = e
	f.portOf[b][e] = pb
	f.edgeAt[b][pb] = e

	f.RebuildRoutes(f.costFn)
	return nil
}

// applyBypassOff removes the express channel between the path's endpoints.
func (f *Fabric) applyBypassOff(cmd plp.Command) error {
	a := topo.NodeID(cmd.Path[0])
	b := topo.NodeID(cmd.Path[len(cmd.Path)-1])
	e, ok := f.g.ExpressBetween(a, b)
	if !ok {
		return nil // idempotent
	}
	if err := f.g.RemoveExpress(e); err != nil {
		return err
	}
	delete(f.links, e.Link.ID)
	//det:ordered pure filter-delete: every entry matching the owner pair is removed, no per-entry effect escapes the map
	for lane, owner := range f.claimed {
		if owner == [2]topo.NodeID{a, b} {
			delete(f.claimed, lane)
		}
	}
	for _, end := range []topo.NodeID{a, b} {
		if p, ok := f.portOf[end][e]; ok {
			delete(f.portOf[end], e)
			f.edgeAt[end][p] = nil
			f.freePorts[end] = append(f.freePorts[end], p)
		}
	}
	f.RebuildRoutes(f.costFn)
	return nil
}

// donorLane finds an unclaimed bypassed lane on a link.
func (f *Fabric) donorLane(e *topo.Edge) *phy.Lane {
	for _, lane := range e.Link.Lanes {
		if lane.State() == phy.LaneBypassed {
			if _, taken := f.claimed[lane]; !taken {
				return lane
			}
		}
	}
	return nil
}
