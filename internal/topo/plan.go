package topo

import (
	"fmt"

	"rackfab/internal/phy"
	"rackfab/internal/plp"
)

// Plan is an ordered list of Physical Layer Primitive commands compiling a
// topology mutation, plus bookkeeping the fabric uses to apply it.
type Plan struct {
	// Name describes the mutation ("grid→torus", "torus→grid").
	Name string
	// Commands execute in order; Break commands for a bypass path must
	// precede the BypassOn that consumes the freed lanes.
	Commands []plp.Command
}

// GridToTorusPlan compiles Figure 2's reconfiguration: every grid link is
// broken from LanesPerLink lanes down to keepLanes, and the freed lanes
// along each full row and column are stitched into a physical-layer bypass
// channel joining the two border nodes — the torus wrap link. The result
// is "a torus topology running at one lane per link" built purely from
// PLP #1 and #2, with no recabling.
func GridToTorusPlan(g *Graph, keepLanes int) (*Plan, error) {
	if g.Kind() != "grid" {
		return nil, fmt.Errorf("topo: grid→torus plan needs a grid, got %s", g.Kind())
	}
	if g.Width() < 3 || g.Height() < 3 {
		return nil, fmt.Errorf("topo: grid→torus needs ≥3x3, got %dx%d", g.Width(), g.Height())
	}
	lanes := g.Options().LanesPerLink
	if keepLanes < 1 || keepLanes >= lanes {
		return nil, fmt.Errorf("topo: keepLanes %d must be in [1,%d)", keepLanes, lanes)
	}
	if !phy.ProfileOf(g.Options().Media).SupportsBypass {
		return nil, fmt.Errorf("topo: media %v cannot form bypass wrap links", g.Options().Media)
	}

	plan := &Plan{Name: fmt.Sprintf("grid→torus(keep=%d)", keepLanes)}

	// Rows: break every (x,y)-(x+1,y) link, then bypass across the row.
	for y := 0; y < g.Height(); y++ {
		path := make([]int, 0, g.Width())
		for x := 0; x < g.Width(); x++ {
			path = append(path, int(g.NodeAt(x, y)))
			if x+1 < g.Width() {
				e, ok := g.EdgeBetween(g.NodeAt(x, y), g.NodeAt(x+1, y))
				if !ok {
					return nil, fmt.Errorf("topo: missing row link (%d,%d)-(%d,%d)", x, y, x+1, y)
				}
				plan.Commands = append(plan.Commands, plp.Command{
					Kind:       plp.Break,
					Link:       e.Index(),
					KeepLanes:  keepLanes,
					FreedState: phy.LaneBypassed,
					Reason:     fmt.Sprintf("free lanes for row %d wrap", y),
				})
			}
		}
		plan.Commands = append(plan.Commands, plp.Command{
			Kind:   plp.BypassOn,
			Path:   path,
			Reason: fmt.Sprintf("torus wrap row %d", y),
		})
	}

	// Columns.
	for x := 0; x < g.Width(); x++ {
		path := make([]int, 0, g.Height())
		for y := 0; y < g.Height(); y++ {
			path = append(path, int(g.NodeAt(x, y)))
			if y+1 < g.Height() {
				e, ok := g.EdgeBetween(g.NodeAt(x, y), g.NodeAt(x, y+1))
				if !ok {
					return nil, fmt.Errorf("topo: missing column link (%d,%d)-(%d,%d)", x, y, x, y+1)
				}
				plan.Commands = append(plan.Commands, plp.Command{
					Kind:       plp.Break,
					Link:       e.Index(),
					KeepLanes:  keepLanes,
					FreedState: phy.LaneBypassed,
					Reason:     fmt.Sprintf("free lanes for column %d wrap", x),
				})
			}
		}
		plan.Commands = append(plan.Commands, plp.Command{
			Kind:   plp.BypassOn,
			Path:   path,
			Reason: fmt.Sprintf("torus wrap column %d", x),
		})
	}
	return plan, nil
}
