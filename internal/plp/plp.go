// Package plp defines the paper's Physical Layer Primitives: the
// media-agnostic command set the Closed Ring Control issues against the
// fabric's physical layer.
//
// The paper enumerates five primitives:
//
//  1. link breaking / bundling — split an N-lane link into k and N−k lanes
//     and vice versa (Break / Bundle),
//  2. high speed bypass — connect two links at the lowest possible physical
//     level (BypassOn / BypassOff),
//  3. turning a link on or off (LaneOn / LaneOff),
//  4. adaptive forward error correction (SetFEC),
//  5. per-lane statistics (QueryStats).
//
// The package deliberately contains no execution logic: a Command is data,
// an Executor (implemented by internal/fabric) applies it, and Cost gives
// the planner the latency/downtime price of issuing it on a given media.
// This split is the paper's core decoupling — "by detaching the development
// of PLP from innovation in CRC", new physical layers only need to provide
// an Executor for their capability subset.
package plp

import (
	"fmt"

	"rackfab/internal/phy"
	"rackfab/internal/sim"
)

// Kind enumerates the primitive operations.
type Kind int

// The primitive kinds. See the package comment for the paper mapping.
const (
	// Break splits a link: the first KeepLanes stay in switched service,
	// the rest move to the state named by FreedState (PLP #1).
	Break Kind = iota
	// Bundle returns all non-failed lanes of a link to switched service,
	// paying a retrain delay (PLP #1).
	Bundle
	// BypassOn provisions a physical-layer express channel along Path,
	// cutting the intermediate switches out of the datapath (PLP #2).
	BypassOn
	// BypassOff tears an express channel down (PLP #2).
	BypassOff
	// LaneOn powers a lane up through training (PLP #3).
	LaneOn
	// LaneOff powers a lane down (PLP #3).
	LaneOff
	// SetFEC installs a FEC profile on a link (PLP #4).
	SetFEC
	// QueryStats snapshots per-lane statistics (PLP #5).
	QueryStats
)

// String returns the primitive name.
func (k Kind) String() string {
	switch k {
	case Break:
		return "break"
	case Bundle:
		return "bundle"
	case BypassOn:
		return "bypass-on"
	case BypassOff:
		return "bypass-off"
	case LaneOn:
		return "lane-on"
	case LaneOff:
		return "lane-off"
	case SetFEC:
		return "set-fec"
	case QueryStats:
		return "query-stats"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Command is one primitive invocation. Fields beyond Kind and Link are
// interpreted per kind; Validate rejects nonsensical combinations.
type Command struct {
	Kind Kind
	// Link targets a link, by its topo edge index, for
	// Break/Bundle/Lane*/SetFEC/QueryStats.
	Link int
	// KeepLanes is the switched lane count left by Break.
	KeepLanes int
	// FreedState is the state Break leaves freed lanes in
	// (phy.LaneBypassed to stage an express channel, phy.LaneOff to save
	// power).
	FreedState phy.LaneState
	// Lane is the lane index for LaneOn/LaneOff; -1 targets all lanes.
	Lane int
	// Path is the node chain for BypassOn/BypassOff: endpoints plus the
	// intermediate nodes whose switches are bypassed.
	Path []int
	// FECProfile names the fec.Ladder profile for SetFEC.
	FECProfile string
	// Reason is free-text provenance recorded in the command log (which
	// CRC policy issued this and why).
	Reason string
}

// Validate performs structural checks that do not need fabric state.
func (c Command) Validate() error {
	switch c.Kind {
	case Break:
		if c.KeepLanes < 1 {
			return fmt.Errorf("plp: break keeps %d lanes; need ≥1", c.KeepLanes)
		}
		if c.FreedState != phy.LaneBypassed && c.FreedState != phy.LaneOff {
			return fmt.Errorf("plp: break freed state must be bypassed or off, got %v", c.FreedState)
		}
	case BypassOn, BypassOff:
		if len(c.Path) < 3 {
			return fmt.Errorf("plp: bypass path needs ≥3 nodes (2 endpoints + ≥1 bypassed), got %d", len(c.Path))
		}
	case LaneOn, LaneOff:
		if c.Lane < -1 {
			return fmt.Errorf("plp: lane index %d invalid", c.Lane)
		}
	case SetFEC:
		if c.FECProfile == "" {
			return fmt.Errorf("plp: set-fec needs a profile name")
		}
	case Bundle, QueryStats:
		// link-only commands
	default:
		return fmt.Errorf("plp: unknown kind %d", int(c.Kind))
	}
	return nil
}

// String renders the command for logs.
func (c Command) String() string {
	switch c.Kind {
	case Break:
		return fmt.Sprintf("break(link=%d keep=%d freed=%v)", c.Link, c.KeepLanes, c.FreedState)
	case BypassOn, BypassOff:
		return fmt.Sprintf("%s(path=%v)", c.Kind, c.Path)
	case LaneOn, LaneOff:
		return fmt.Sprintf("%s(link=%d lane=%d)", c.Kind, c.Link, c.Lane)
	case SetFEC:
		return fmt.Sprintf("set-fec(link=%d profile=%s)", c.Link, c.FECProfile)
	default:
		return fmt.Sprintf("%s(link=%d)", c.Kind, c.Link)
	}
}

// Result reports the outcome of executing one command.
type Result struct {
	// CompletedAt is when the primitive finished taking effect.
	CompletedAt sim.Time
	// Downtime is how long the affected datapath was unusable.
	Downtime sim.Duration
	// PowerDeltaW is the steady-state power change caused by the command.
	PowerDeltaW float64
}

// Supported reports whether a media capability profile can execute kind.
func Supported(p phy.Profile, k Kind) bool {
	switch k {
	case BypassOn, BypassOff:
		return p.SupportsBypass
	default:
		return true
	}
}

// Cost returns the planner's estimate of execution latency (time until the
// primitive takes effect) and datapath downtime for kind on media p. The
// CRC optimizer weighs these against the expected benefit — the paper's
// "minimum flow size for which reconfiguration is worth the cost".
func Cost(p phy.Profile, k Kind) (latency, downtime sim.Duration) {
	switch k {
	case Break:
		// Surviving lanes keep running; the bundle reshapes around them.
		return p.ReshapeTime, p.ReshapeTime
	case Bundle:
		return p.ReshapeTime + p.RetrainTime, p.ReshapeTime
	case BypassOn, BypassOff:
		return p.BypassSetup, 0
	case LaneOn:
		return p.RetrainTime, 0
	case LaneOff:
		return 0, 0
	case SetFEC:
		// FEC switch forces a brief resync on the link.
		return p.ReshapeTime / 2, p.ReshapeTime / 2
	case QueryStats:
		return 0, 0
	default:
		return 0, 0
	}
}
