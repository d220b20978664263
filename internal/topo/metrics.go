package topo

import "fmt"

// HopsFrom returns the minimum hop count from src to every node over edges
// whose links are currently up (express edges count as one hop: the whole
// point of a bypass is that intermediate switches vanish from the path).
// Unreachable nodes get -1.
func (g *Graph) HopsFrom(src NodeID) []int {
	dist := make([]int, g.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range g.adj[n] {
			if !e.Link.Up() {
				continue
			}
			m := e.Other(n)
			if dist[m] == -1 {
				dist[m] = dist[n] + 1
				queue = append(queue, m)
			}
		}
	}
	return dist
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
