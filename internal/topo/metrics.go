package topo

import "fmt"

// HopsFrom returns the minimum hop count from src to every node over the
// edges live now (Edge.Live; express edges count as one hop: the whole
// point of a bypass is that intermediate switches vanish from the path).
// Unreachable nodes get -1.
func (g *Graph) HopsFrom(src NodeID) []int { return g.NewHopCounter().From(src) }

// HopCounter counts hops from one source at a time over a snapshot of which
// edges were live when it was made or last refreshed, reusing one distance
// array and one queue across sources.
type HopCounter struct {
	g     *Graph
	up    []bool // Edge.Live, by Edge.Index
	dist  []int
	queue []NodeID
}

// NewHopCounter snapshots which of g's edges are live now.
func (g *Graph) NewHopCounter() *HopCounter {
	n := g.NumNodes()
	h := &HopCounter{
		g:     g,
		dist:  make([]int, n),
		queue: make([]NodeID, 0, n),
	}
	h.Refresh()
	return h
}

// Refresh re-snapshots which of the graph's edges are live now, in place. It
// allocates only when the graph has gained edges (an express link) since
// the last snapshot.
func (h *HopCounter) Refresh() {
	nb := len(h.g.byIndex)
	if cap(h.up) < nb {
		h.up = make([]bool, nb)
	} else {
		h.up = h.up[:nb]
		clear(h.up)
	}
	for _, e := range h.g.edges {
		h.up[e.idx] = e.Live()
	}
}

// From returns HopsFrom(src) over the snapshot. The slice is overwritten by
// the next call.
func (h *HopCounter) From(src NodeID) []int {
	for i := range h.dist {
		h.dist[i] = -1
	}
	h.dist[src] = 0
	h.queue = append(h.queue[:0], src)
	for i := 0; i < len(h.queue); i++ {
		n := h.queue[i]
		for _, e := range h.g.adj[n] {
			if !h.up[e.idx] {
				continue
			}
			m := e.Other(n)
			if h.dist[m] == -1 {
				h.dist[m] = h.dist[n] + 1
				h.queue = append(h.queue, m)
			}
		}
	}
	return h.dist
}

// Connected reports whether every node can reach every other over live
// edges.
func (g *Graph) Connected() bool {
	if g.NumNodes() == 0 {
		return true
	}
	for _, d := range g.HopsFrom(0) {
		if d == -1 {
			return false
		}
	}
	return true
}

// MeanHops returns the mean shortest-path hop count over all ordered node
// pairs — the figure-of-merit Figure 2's reconfiguration improves. It
// returns an error when the graph is disconnected.
func (g *Graph) MeanHops() (float64, error) {
	n := g.NumNodes()
	if n < 2 {
		return 0, nil
	}
	var total, pairs int64
	for src := 0; src < n; src++ {
		for _, d := range g.HopsFrom(NodeID(src)) {
			if d == -1 {
				return 0, fmt.Errorf("topo: graph disconnected from node %d", src)
			}
			total += int64(d)
			pairs++
		}
	}
	// pairs counts ordered pairs including self (d=0), which adds zero.
	return float64(total) / float64(pairs-int64(n)), nil
}

// Validate checks structural invariants: endpoint bounds, adjacency
// symmetry, no self loops, connectivity.
func (g *Graph) Validate() error {
	n := NodeID(g.NumNodes())
	for _, e := range g.edges {
		if e.A < 0 || e.A >= n || e.B < 0 || e.B >= n {
			return fmt.Errorf("topo: edge %d-%d out of bounds", e.A, e.B)
		}
		if e.A == e.B {
			return fmt.Errorf("topo: self loop at %d", e.A)
		}
		if e.Link == nil {
			return fmt.Errorf("topo: edge %d-%d has no link", e.A, e.B)
		}
	}
	for id, edges := range g.adj {
		for _, e := range edges {
			if !e.Touches(NodeID(id)) {
				return fmt.Errorf("topo: adjacency of %d lists foreign edge %d-%d", id, e.A, e.B)
			}
		}
	}
	if !g.Connected() {
		return fmt.Errorf("topo: graph disconnected")
	}
	return nil
}
