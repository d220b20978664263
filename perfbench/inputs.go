package main

import (
	"math/rand"
	"time"

	"rackfab"
)

// Every input is drawn here from the run's seed with the benchmark's own
// generator, so the program under test only ever receives explicit flow and
// fault specs and an arrival seed. A change to the program's generators
// cannot change what the benchmark feeds it.

// scale fixes the size of every workload.
type scale struct {
	name string // "full" or "smoke"

	permSide  int   // fluid-perm: grid side
	permBytes int64 // fluid-perm: bytes per permutation flow

	churnSide  int           // packet-churn: torus side
	churnBytes int64         // packet-churn: bytes per permutation flow
	churnJCT   time.Duration // fault-free JCT the churn timeline is pinned to
	churnFlaps int

	soakSide  int
	soakRate  float64 // flows per simulated second
	warmTicks int     // untimed ticks that end each service set-up
	soakTicks int     // timed ticks

	setups  int      // quick-suite: warm-up runs per run for the setup_s median
	suite   []string // quick-suite experiment IDs, run in this order
	warmExp string   // quick-suite warm-up experiment
}

// startAt delays every batch flow so RunFor(0) finishes set-up (route table,
// solver session) without advancing simulated time.
const startAt = time.Microsecond

// simLimit bounds every batch run in simulated time; a run that hits it
// leaves flows unfinished, which the output check counts as failures.
const simLimit = time.Second

// soakTick is the service loop's simulated tick.
const soakTick = time.Millisecond

// permutation returns one simultaneous random permutation: every node sends
// bytes to a distinct partner other than itself.
func permutation(rng *rand.Rand, nodes int, bytes int64, label string) []rackfab.FlowSpec {
	p := rng.Perm(nodes)
	for fixed := true; fixed; {
		fixed = false
		for i := range p {
			if p[i] == i {
				j := (i + 1) % nodes
				p[i], p[j] = p[j], p[i]
				fixed = true
			}
		}
	}
	specs := make([]rackfab.FlowSpec, nodes)
	for i, dst := range p {
		specs[i] = rackfab.FlowSpec{Src: i, Dst: dst, Bytes: bytes, At: startAt, Label: label}
	}
	return specs
}

// torusLinks lists every link of a side×side torus by its endpoints, in the
// row-major node numbering the program uses (node = y·side + x).
func torusLinks(side int) [][2]int {
	var out [][2]int
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			n := y*side + x
			out = append(out, [2]int{n, y*side + (x+1)%side}, [2]int{n, ((y+1)%side)*side + x})
		}
	}
	return out
}

// churnFaults builds packet-churn's timeline, following e10's construction
// pinned to a fault-free JCT: `flaps` Poisson link flaps on distinct links
// starting at jct/20 (mean gap jct/16, mean outage jct/10), plus a loss of
// the centre node from 0.3·jct to 0.4·jct. Flapped links never touch the
// centre node, so the node pulse and a link flap never claim one edge.
func churnFaults(rng *rand.Rand, side, flaps int, jct time.Duration) []rackfab.FaultSpec {
	centre := (side/2)*side + side/2
	var cand [][2]int
	for _, l := range torusLinks(side) {
		if l[0] != centre && l[1] != centre {
			cand = append(cand, l)
		}
	}
	rng.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
	exp := func(mean time.Duration) time.Duration {
		return time.Duration(rng.ExpFloat64() * float64(mean))
	}
	var specs []rackfab.FaultSpec
	at := jct / 20
	for i := 0; i < flaps && i < len(cand); i++ {
		at += exp(jct / 16)
		l := cand[i]
		specs = append(specs,
			rackfab.FaultSpec{At: at, Kind: rackfab.LinkDown, A: l[0], B: l[1]},
			rackfab.FaultSpec{At: at + exp(jct/10), Kind: rackfab.LinkUp, A: l[0], B: l[1]})
	}
	return append(specs,
		rackfab.FaultSpec{At: jct / 10 * 3, Kind: rackfab.NodeDown, Node: centre},
		rackfab.FaultSpec{At: jct / 10 * 4, Kind: rackfab.NodeUp, Node: centre})
}

// arrivalSeed derives service-soak's arrival stream seed (never 0, which the
// program would replace with its default). It is drawn from the benchmark's
// generator rather than scaled from the seed: the program's stream is a
// splitmix64 counter that advances by the golden-ratio constant, so seeds
// k·γ would give one stream shifted by k draws.
func arrivalSeed(seed int64) uint64 {
	return newRNG(seed, "service-soak-1024").Uint64() | 1
}

// newRNG returns the benchmark's generator for one workload's inputs.
func newRNG(seed int64, workload string) *rand.Rand {
	h := int64(0)
	for _, c := range workload {
		h = h*31 + int64(c)
	}
	return rand.New(rand.NewSource(seed ^ h))
}
