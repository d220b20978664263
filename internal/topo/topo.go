// Package topo builds and reasons about rack fabric topologies.
//
// The paper's running example (Figure 2) starts from "a grid topology of
// two lanes per link" and reconfigures into "a torus topology running at
// one lane per link" — the torus wrap links are realized by breaking each
// grid link's bundle and stitching the freed lanes into physical-layer
// bypass channels across a row or column. This package provides the
// builders (grid, torus, ring, line), the graph queries the control plane
// needs (connectivity, hop counts), and the planner that compiles a
// topology mutation into an ordered list of Physical Layer Primitive
// commands.
package topo

import (
	"fmt"

	"rackfab/internal/phy"
)

// NodeID identifies a node (a stripped-down rack-scale element: compute,
// NVMe sled, DRAM pool) within a fabric. IDs are dense in [0, NumNodes).
type NodeID int

// Coord is a node's position on the rack's 2-D layout grid.
type Coord struct{ X, Y int }

// Edge is an undirected fabric connection carrying a physical link.
type Edge struct {
	// A and B are the endpoints; A < B for construction-time edges.
	A, B NodeID
	// Link is the physical lane bundle.
	Link *phy.Link
	// Express marks a physical-layer bypass channel created at runtime by
	// PLP #2; Via lists the bypassed intermediate nodes in path order.
	Express bool
	Via     []NodeID

	// idx is the edge's dense insertion index within its graph; it never
	// changes once assigned and is never reused. It is the link's one name:
	// PLP commands, price tags, fault events, solvers and traces all key on
	// it.
	idx int

	// disabled marks the edge administratively down (fault injection /
	// maintenance). A disabled edge keeps its index, its adjacency slots,
	// and its physical link state — only Live consults it.
	disabled bool
}

// Index returns the edge's stable per-graph index: construction and express
// edges are numbered in insertion order starting at 0, and an index is never
// reused even after RemoveExpress. Indexes are dense in
// [0, Graph.EdgeIndexBound()) for a graph that has not removed edges.
func (e *Edge) Index() int { return e.idx }

// Other returns the endpoint opposite n; it panics if n is not an endpoint.
func (e *Edge) Other(n NodeID) NodeID {
	switch n {
	case e.A:
		return e.B
	case e.B:
		return e.A
	default:
		panic(fmt.Sprintf("topo: node %d not on edge %d-%d", n, e.A, e.B))
	}
}

// Touches reports whether n is an endpoint of e.
func (e *Edge) Touches(n NodeID) bool { return e.A == n || e.B == n }

// Enabled reports whether the edge is administratively up. Edges start
// enabled; the fault-injection layer toggles them.
func (e *Edge) Enabled() bool { return !e.disabled }

// Live reports whether the edge can carry traffic: administratively
// enabled, with at least one lit lane. Routing costs and hop counts read
// it, so a fault's LinkDown, which leaves the lanes lit, takes the edge out
// of both.
func (e *Edge) Live() bool { return !e.disabled && e.Link.Up() }

// SetEnabled marks the edge administratively up or down without removing
// it: Index, adjacency, and the Edge.Index() space PR-stable solvers key
// flat arrays on are all untouched. Disabling an edge is how a link
// failure is modeled — cost functions price disabled edges at +Inf so
// routing steers around them, and re-enabling restores the original
// topology bit-for-bit.
func (e *Edge) SetEnabled(up bool) { e.disabled = !up }

// Options configures topology construction.
type Options struct {
	// LanesPerLink is the bundle width of every constructed link
	// (default 2, matching Figure 2's starting point).
	LanesPerLink int
	// LaneRate is the per-lane signalling rate in bit/s
	// (default 25.78125e9, the paper's canonical 100G/4 example).
	LaneRate float64
	// Media is the link media (default phy.Backplane).
	Media phy.Media
	// NodeSpacingM is the physical distance between adjacent nodes
	// (default 2.0 m, Figure 1's "switch every 2 meters").
	NodeSpacingM float64
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.LanesPerLink == 0 {
		o.LanesPerLink = 2
	}
	if o.LaneRate == 0 {
		o.LaneRate = 25.78125e9
	}
	if o.NodeSpacingM == 0 {
		o.NodeSpacingM = 2.0
	}
	return o
}

// Graph is a fabric topology: nodes on a coordinate grid plus undirected
// edges. It is mutated only through AddExpress/RemoveExpress (runtime
// bypass channels); the constructed fabric links themselves persist and
// change shape via their phy.Link state.
type Graph struct {
	kind          string
	width, height int
	coords        []Coord
	edges         []*Edge
	byIndex       []*Edge // every edge ever added, by Index; nil once removed
	adj           [][]*Edge
	opts          Options
}

// Kind names the construction ("grid", "torus", "ring", "line").
func (g *Graph) Kind() string { return g.kind }

// Width returns the layout width in nodes.
func (g *Graph) Width() int { return g.width }

// Height returns the layout height in nodes.
func (g *Graph) Height() int { return g.height }

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.coords) }

// Options returns the construction options (defaults resolved).
func (g *Graph) Options() Options { return g.opts }

// Edges returns all edges, construction-time and express.
func (g *Graph) Edges() []*Edge { return g.edges }

// Adjacent returns the edges incident to n.
func (g *Graph) Adjacent(n NodeID) []*Edge { return g.adj[n] }

// Coord returns n's layout position.
func (g *Graph) Coord(n NodeID) Coord { return g.coords[n] }

// NodeAt returns the node at (x, y).
func (g *Graph) NodeAt(x, y int) NodeID {
	if x < 0 || x >= g.width || y < 0 || y >= g.height {
		panic(fmt.Sprintf("topo: coordinate (%d,%d) outside %dx%d", x, y, g.width, g.height))
	}
	return NodeID(y*g.width + x)
}

// EdgeBetween returns the non-express edge joining a and b, if any.
func (g *Graph) EdgeBetween(a, b NodeID) (*Edge, bool) {
	for _, e := range g.adj[a] {
		if !e.Express && e.Touches(b) {
			return e, true
		}
	}
	return nil, false
}

// ExpressBetween returns the express edge joining a and b, if any.
func (g *Graph) ExpressBetween(a, b NodeID) (*Edge, bool) {
	for _, e := range g.adj[a] {
		if e.Express && e.Touches(b) {
			return e, true
		}
	}
	return nil, false
}

// Edge returns the edge with index i. It reports false for an index never
// assigned and for a removed express edge.
func (g *Graph) Edge(i int) (*Edge, bool) {
	if i < 0 || i >= len(g.byIndex) || g.byIndex[i] == nil {
		return nil, false
	}
	return g.byIndex[i], true
}

// addEdge wires a constructed edge between a and b.
func (g *Graph) addEdge(a, b NodeID, lengthM float64) *Edge {
	if a > b {
		a, b = b, a
	}
	link, err := phy.NewLink(g.opts.Media, lengthM, g.opts.LanesPerLink, g.opts.LaneRate)
	if err != nil {
		panic(fmt.Sprintf("topo: building link %d: %v", len(g.byIndex), err))
	}
	return g.add(&Edge{A: a, B: b, Link: link})
}

// add assigns e the next index and wires it in.
func (g *Graph) add(e *Edge) *Edge {
	e.idx = len(g.byIndex)
	g.byIndex = append(g.byIndex, e)
	g.edges = append(g.edges, e)
	g.adj[e.A] = append(g.adj[e.A], e)
	g.adj[e.B] = append(g.adj[e.B], e)
	return e
}

// AddExpress installs a runtime express edge between a and b whose physical
// channel link is provided by the caller (the fabric builds it from freed
// bypassed lanes). Via lists the bypassed intermediate nodes.
func (g *Graph) AddExpress(a, b NodeID, via []NodeID, link *phy.Link) *Edge {
	return g.add(&Edge{A: a, B: b, Link: link, Express: true, Via: append([]NodeID(nil), via...)})
}

// RemoveExpress deletes a runtime express edge. Construction edges cannot
// be removed — their links are turned off instead.
func (g *Graph) RemoveExpress(e *Edge) error {
	if !e.Express {
		return fmt.Errorf("topo: cannot remove construction edge %d-%d", e.A, e.B)
	}
	g.edges = removeEdge(g.edges, e)
	g.byIndex[e.idx] = nil
	g.adj[e.A] = removeEdge(g.adj[e.A], e)
	g.adj[e.B] = removeEdge(g.adj[e.B], e)
	return nil
}

func removeEdge(s []*Edge, e *Edge) []*Edge {
	for i, x := range s {
		if x == e {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// EdgeIndexBound returns one past the largest Edge.Index ever assigned by
// this graph. Flat arrays sized by this bound can be indexed directly by
// Edge.Index for every edge, past and present.
func (g *Graph) EdgeIndexBound() int { return len(g.byIndex) }
