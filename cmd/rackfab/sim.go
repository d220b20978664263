package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"rackfab"
	"rackfab/internal/sim"
	"rackfab/internal/workload"
)

// runSim implements `rackfab sim`: build an ad-hoc cluster from flags, run
// a workload (generated or replayed from a trace), print the report.
// engine is the top-level -engine selection ("" = packet); the subcommand's
// own -engine flag overrides it. flightTrace is the top-level -trace path:
// when set, the cluster runs with the flight recorder on and exports there
// (the subcommand's own -trace flag is the CSV *workload* replay input —
// an unrelated, older surface).
func runSim(args []string, engine, flightTrace string) error {
	fs := flag.NewFlagSet("sim", flag.ContinueOnError)
	var (
		topoFlag   = fs.String("topo", "grid", "topology: grid, torus, line, ring")
		width      = fs.Int("width", 4, "fabric width in nodes")
		height     = fs.Int("height", 4, "fabric height (grid/torus)")
		lanes      = fs.Int("lanes", 2, "lanes per link")
		media      = fs.String("media", "backplane", "media: backplane, copper-dac, optical-fiber")
		mode       = fs.String("mode", "cut-through", "switch mode: cut-through, store-and-forward")
		seed       = fs.Int64("seed", 1, "simulation seed")
		powerCap   = fs.Float64("power-cap", 0, "rack power cap in watts (0 = uncapped)")
		control    = fs.Bool("control", true, "enable the Closed Ring Control (packet engine only)")
		engineSub  = fs.String("engine", "", "simulation backend: packet or fluid (overrides the top-level -engine)")
		pattern    = fs.String("workload", "uniform", "workload: uniform, shuffle, incast, hotspot, permutation")
		flows      = fs.Int("flows", 200, "flow count (uniform/hotspot)")
		size       = fs.Int64("size", 64<<10, "flow size in bytes")
		flaps      = fs.Int("flaps", 0, "inject N Poisson link flaps (both engines)")
		flapStart  = fs.Duration("flap-start", 100*time.Microsecond, "earliest flap onset (with -flaps)")
		flapGap    = fs.Duration("flap-gap", 200*time.Microsecond, "mean gap between flap onsets (with -flaps)")
		meanOutage = fs.Duration("mean-outage", 500*time.Microsecond, "mean flap outage duration (with -flaps)")
		traceIn    = fs.String("trace", "", "replay a CSV flow trace instead of generating")
		traceOut   = fs.String("trace-out", "", "write the generated workload as a CSV trace")
		limit      = fs.Duration("limit", 30*time.Second, "simulated-time limit")
		decisions  = fs.Bool("decisions", false, "print the CRC decision log")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *engineSub != "" {
		engine = *engineSub
	}
	var eng rackfab.Engine
	switch engine {
	case "", "packet":
		eng = rackfab.EnginePacket
	case "fluid":
		eng = rackfab.EngineFluid
	default:
		return fmt.Errorf("unknown engine %q (want packet or fluid)", engine)
	}
	ctl := *control
	if eng == rackfab.EngineFluid && ctl {
		// The CRC is packet hardware; under the fluid engine the default
		// quietly drops rather than making every fluid run pass
		// -control=false. An explicit -control=true still errors in New.
		explicit := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "control" {
				explicit = true
			}
		})
		if !explicit {
			ctl = false
		}
	}

	cluster, err := rackfab.New(rackfab.Config{
		Topology:     rackfab.Topology(*topoFlag),
		Width:        *width,
		Height:       *height,
		LanesPerLink: *lanes,
		Media:        rackfab.Media(*media),
		SwitchMode:   rackfab.SwitchMode(*mode),
		PowerCapW:    *powerCap,
		Seed:         *seed,
		Engine:       eng,
		Control:      rackfab.ControlConfig{Enabled: ctl},
		Trace:        flightTrace != "",
	})
	if err != nil {
		return err
	}
	fmt.Printf("fabric: %s %dx%d, %d nodes, %d lanes/link, %s, engine=%s, control=%v\n",
		*topoFlag, *width, *height, cluster.Nodes(), *lanes, *media, cluster.Engine(), ctl)
	if *flaps > 0 {
		sched := rackfab.PoissonFlaps(cluster, rackfab.FlapConfig{
			Flaps:      *flaps,
			Start:      *flapStart,
			MeanGap:    *flapGap,
			MeanOutage: *meanOutage,
		})
		if err := cluster.ApplyFaults(sched); err != nil {
			return err
		}
		fmt.Printf("faults: %d Poisson link flaps scheduled\n", *flaps)
	}

	var specs []rackfab.FlowSpec
	if *traceIn != "" {
		f, err := os.Open(*traceIn)
		if err != nil {
			return err
		}
		defer f.Close()
		wl, err := workload.ReadTrace(f)
		if err != nil {
			return err
		}
		specs = make([]rackfab.FlowSpec, len(wl))
		for i, s := range wl {
			specs[i] = rackfab.FlowSpec{
				Src: s.Src, Dst: s.Dst, Bytes: s.Bytes,
				At:    time.Duration(int64(s.At) / 1000), // ps → ns
				Label: s.Label,
			}
		}
		fmt.Printf("workload: %d flows replayed from %s\n", len(specs), *traceIn)
	} else {
		switch *pattern {
		case "uniform":
			specs = rackfab.UniformTraffic(cluster, *flows, *size)
		case "shuffle":
			specs = rackfab.ShuffleTraffic(cluster, *size)
		case "incast":
			specs = rackfab.IncastTraffic(cluster, cluster.Nodes()-1, cluster.Nodes()/2, *size)
		case "hotspot":
			specs = rackfab.HotspotTraffic(cluster, *flows, 2, 0.7, *size)
		case "permutation":
			specs = rackfab.PermutationTraffic(cluster, *size)
		default:
			return fmt.Errorf("unknown workload %q", *pattern)
		}
		fmt.Printf("workload: %s, %d flows\n", *pattern, len(specs))
	}

	if *traceOut != "" {
		wl := make([]workload.FlowSpec, len(specs))
		for i, s := range specs {
			wl[i] = workload.FlowSpec{
				Src: s.Src, Dst: s.Dst, Bytes: s.Bytes,
				At:    sim.Time(s.At.Nanoseconds()) * sim.Time(sim.Nanosecond),
				Label: s.Label,
			}
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := workload.WriteTrace(f, wl); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace written to %s\n", *traceOut)
	}

	flowHandles, err := cluster.Inject(specs)
	if err != nil {
		return err
	}
	if err := cluster.RunUntilDone(*limit); err != nil {
		return err
	}
	if jct, err := rackfab.JobCompletionTime(flowHandles); err == nil {
		fmt.Printf("\njob completion time: %v (simulated)\n", jct)
	}
	fmt.Println(cluster.Report())
	if flightTrace != "" {
		tr := cluster.Trace()
		write := tr.WriteJSON
		if strings.HasSuffix(flightTrace, ".txt") {
			write = tr.WriteText
		}
		if err := writeTraceFile(flightTrace, 1, write); err != nil {
			return err
		}
	}
	if *decisions {
		fmt.Println("\nCRC decision log:")
		for _, line := range cluster.Decisions() {
			fmt.Println("  " + line)
		}
	}
	return nil
}
