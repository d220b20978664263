package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"rackfab"
)

// runServe implements `rackfab serve`: a long-running cluster under
// open-loop load — the soak gate's entry point. The run prints the service
// fingerprint (byte-stable across identical runs, and across a
// checkpoint/restore split), so CI can `cmp` a split run against an
// unbroken one. engine is the top-level -engine selection ("" = fluid);
// the subcommand's own -engine flag overrides it. Flag combinations that
// cannot checkpoint as asked are rejected before the first tick.
func runServe(args []string, engine string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var (
		width      = fs.Int("width", 16, "fabric width in nodes")
		height     = fs.Int("height", 16, "fabric height")
		seed       = fs.Int64("seed", 1, "simulation seed")
		engineSub  = fs.String("engine", "", "simulation backend: fluid or packet")
		tick       = fs.Duration("tick", 100*time.Millisecond, "service tick: generate/advance cadence in simulated time")
		duration   = fs.Duration("duration", 10*time.Minute, "simulated soak duration")
		rate       = fs.Float64("rate", 50, "open-loop arrival rate in flows/s")
		process    = fs.String("process", "poisson", "arrival process: poisson or markov")
		sizes      = fs.String("sizes", "websearch", "flow sizes: websearch, datamining, fixed:<bytes>, pareto:<min>:<alpha>[:<max>]")
		arrSeed    = fs.Uint64("arrival-seed", 1, "arrival stream seed")
		flaps      = fs.Int("flaps", 0, "inject N Poisson link flaps")
		flapStart  = fs.Duration("flap-start", 1*time.Second, "earliest flap onset (with -flaps)")
		flapGap    = fs.Duration("flap-gap", 30*time.Second, "mean gap between flap onsets (with -flaps)")
		meanOutage = fs.Duration("mean-outage", 5*time.Second, "mean flap outage duration (with -flaps)")
		ckptAt     = fs.Duration("checkpoint-at", 0, "checkpoint once the clock reaches this instant (with -checkpoint-out; 0 = never)")
		ckptOut    = fs.String("checkpoint-out", "", "write the checkpoint to this path (with -checkpoint-at; run stops there unless -duration is later)")
		restore    = fs.String("restore", "", "resume from a checkpoint file instead of starting fresh (cluster and load flags must repeat the original's; the flap schedule comes from the checkpoint, so flap flags are refused)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*ckptAt != 0) != (*ckptOut != "") {
		return fmt.Errorf("-checkpoint-at and -checkpoint-out go together")
	}
	if *restore != "" {
		var flap []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "flaps", "flap-start", "flap-gap", "mean-outage":
				flap = append(flap, "-"+f.Name)
			}
		})
		if len(flap) > 0 {
			return fmt.Errorf("-restore takes the flap schedule from the checkpoint; drop %s", strings.Join(flap, " "))
		}
	}
	if *engineSub != "" {
		engine = *engineSub
	}
	var eng rackfab.Engine
	switch engine {
	case "", "fluid":
		eng = rackfab.EngineFluid
	case "packet":
		eng = rackfab.EnginePacket
	default:
		return fmt.Errorf("unknown engine %q (want fluid or packet)", engine)
	}

	cfg := rackfab.Config{
		Topology: rackfab.Grid,
		Width:    *width, Height: *height,
		Seed:   *seed,
		Engine: eng,
	}
	scfg := rackfab.ServeConfig{
		Tick: *tick,
		Arrivals: rackfab.ArrivalSpec{
			Process: *process,
			Seed:    *arrSeed,
			Rate:    *rate,
			Sizes:   *sizes,
		},
	}

	var s *rackfab.Service
	if *restore != "" {
		data, err := os.ReadFile(*restore)
		if err != nil {
			return err
		}
		s, err = rackfab.ResumeService(cfg, scfg, data)
		if err != nil {
			return err
		}
		fmt.Printf("service: resumed from %s at t=%v\n", *restore, s.Now())
	} else {
		c, err := rackfab.New(cfg)
		if err != nil {
			return err
		}
		if *flaps > 0 {
			sched := rackfab.PoissonFlaps(c, rackfab.FlapConfig{
				Flaps:      *flaps,
				Start:      *flapStart,
				MeanGap:    *flapGap,
				MeanOutage: *meanOutage,
			})
			if err := c.ApplyFaults(sched); err != nil {
				return err
			}
			fmt.Printf("faults: %d Poisson link flaps scheduled\n", *flaps)
		}
		s, err = c.Serve(scfg)
		if err != nil {
			return err
		}
		fmt.Printf("service: %dx%d %s engine, %s arrivals at %g flows/s, tick %v\n",
			*width, *height, eng, *process, *rate, *tick)
	}

	if *ckptOut != "" {
		if *ckptAt <= s.Now() {
			return fmt.Errorf("-checkpoint-at %v is not after the service clock %v", *ckptAt, s.Now())
		}
		if err := s.RunUntil(*ckptAt); err != nil {
			return err
		}
		data, err := s.Checkpoint()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*ckptOut, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("checkpoint: %d bytes written to %s at t=%v\n", len(data), *ckptOut, s.Now())
	}
	if *duration > s.Now() {
		if err := s.RunUntil(*duration); err != nil {
			return err
		}
	}

	st := s.Stats()
	fmt.Printf("\nsoak: %v simulated in %d ticks\n", s.Now(), st.Ticks)
	fmt.Printf("flows: %d injected, %d completed, %d retired, %d retained (peak %d)\n",
		st.Injected, st.Completed, st.Retired, st.Retained, st.RetainedPeak)
	fmt.Printf("slo: %.1f%% attained, fct p50 %v p99 %v max %v\n",
		st.AttainPct, st.P50FCT, st.P99FCT, st.MaxFCT)
	fmt.Printf("fingerprint:\n%s", s.Fingerprint())
	return nil
}
