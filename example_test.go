package rackfab_test

import (
	"fmt"
	"time"

	"rackfab"
)

// Example builds a small adaptive rack fabric, runs a MapReduce-style
// shuffle with the Closed Ring Control enabled, and reports the job
// completion time deterministically.
func Example() {
	cluster, err := rackfab.New(rackfab.Config{
		Topology: rackfab.Grid,
		Width:    3, Height: 3,
		Seed:    7,
		Control: rackfab.ControlOn(),
	})
	if err != nil {
		panic(err)
	}
	flows, err := cluster.Inject(rackfab.ShuffleTraffic(cluster, 16<<10))
	if err != nil {
		panic(err)
	}
	if err := cluster.RunUntilDone(5 * time.Second); err != nil {
		panic(err)
	}
	jct, err := rackfab.JobCompletionTime(flows)
	if err != nil {
		panic(err)
	}
	fmt.Printf("flows: %d, all complete: %v, JCT under 1ms: %v\n",
		len(flows), cluster.Report().FlowsCompleted == int64(len(flows)), jct < time.Millisecond)
	// Output:
	// flows: 72, all complete: true, JCT under 1ms: true
}

// ExampleCluster_ApplyGridToTorus reconfigures a grid into a torus through
// Physical Layer Primitives and shows the hop-count gain — the paper's
// Figure 2 in four statements.
func ExampleCluster_ApplyGridToTorus() {
	cluster, err := rackfab.New(rackfab.Config{
		Topology: rackfab.Grid, Width: 4, Height: 4, Seed: 1,
	})
	if err != nil {
		panic(err)
	}
	before, _ := cluster.MeanHops()
	if err := cluster.ApplyGridToTorus(1); err != nil {
		panic(err)
	}
	if err := cluster.RunFor(50 * time.Millisecond); err != nil {
		panic(err)
	}
	after, _ := cluster.MeanHops()
	fmt.Printf("mean hops: %.2f -> %.2f\n", before, after)
	// Output:
	// mean hops: 2.67 -> 2.13
}

// Example_fluidFaults runs a faulted permutation on the fluid engine —
// the shape of the large-scale churn studies, entirely through the public
// API: no internal imports, one Engine field, one replayable schedule.
func Example_fluidFaults() {
	cluster, err := rackfab.New(rackfab.Config{
		Topology: rackfab.Grid, Width: 8, Height: 8,
		Engine: rackfab.EngineFluid, Seed: 42,
		Faults: rackfab.NewFaultSchedule(
			rackfab.FaultSpec{At: 100 * time.Microsecond, Kind: rackfab.LinkDown, A: 27, B: 28},
			rackfab.FaultSpec{At: 400 * time.Microsecond, Kind: rackfab.LinkUp, A: 27, B: 28},
		),
	})
	if err != nil {
		panic(err)
	}
	flows, err := cluster.Inject(rackfab.PermutationTraffic(cluster, 1e6))
	if err != nil {
		panic(err)
	}
	if err := cluster.RunUntilDone(time.Minute); err != nil {
		panic(err)
	}
	rep := cluster.Report()
	fmt.Printf("flows: %d/%d complete, capacity events: %d, rerouted around the flap: %v\n",
		rep.FlowsCompleted, len(flows), rep.Faults.CapacityEvents, rep.Faults.Reroutes > 0)
	// Output:
	// flows: 64/64 complete, capacity events: 2, rerouted around the flap: true
}
