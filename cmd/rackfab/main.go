// Command rackfab regenerates the paper's figures and experiments from the
// command line. Each experiment ID is one row of `rackfab list` (see the
// README's Experiments section):
//
//	rackfab list                 # show all experiments
//	rackfab fig1                 # Figure 1 at full scale
//	rackfab -scale quick fig2    # Figure 2, benchmark-sized
//	rackfab -csv out.csv e5      # also write CSV
//	rackfab -parallel 8 e8       # fan independent trials over 8 workers
//	rackfab all                  # run everything
//	rackfab -cpuprofile cpu.out -memprofile mem.out a2   # profile one run
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"rackfab"
	"rackfab/internal/experiment"
)

func main() {
	scaleFlag := flag.String("scale", "full", "experiment sizing: quick or full")
	csvPath := flag.String("csv", "", "also write the table(s) as CSV to this path")
	plotFlag := flag.Bool("plot", false, "render figures as ASCII charts where available")
	parallel := flag.Int("parallel", 0, "worker pool size for independent trials: 0 = one per CPU, 1 = sequential; results are identical at any setting")
	tracePath := flag.String("trace", "", "write the flight-recorder trace to this path: Perfetto-loadable Chrome JSON, or the stable text form for .txt paths (facade-driven trials only; byte-identical at any -parallel)")
	expFlag := flag.String("experiment", "", "experiment ID to run (equivalent to the positional form)")
	engineFlag := flag.String("engine", "", "simulation backend: packet or fluid (sim: selects the cluster engine; experiments: validates/filters by the experiment's engine)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole command to this path (any subcommand; output is unchanged)")
	memProfile := flag.String("memprofile", "", "write a pprof allocation profile to this path when the command ends (any subcommand; output is unchanged)")
	flag.Usage = usage
	flag.Parse()

	if flag.NArg() < 1 && *expFlag == "" {
		usage()
		os.Exit(2)
	}
	var scale experiment.Scale
	switch *scaleFlag {
	case "quick":
		scale = experiment.Quick
	case "full":
		scale = experiment.Full
	default:
		fmt.Fprintf(os.Stderr, "rackfab: unknown scale %q (want quick or full)\n", *scaleFlag)
		os.Exit(2)
	}
	switch *engineFlag {
	case "", "packet", "fluid":
	default:
		fmt.Fprintf(os.Stderr, "rackfab: unknown engine %q (want packet or fluid)\n", *engineFlag)
		os.Exit(2)
	}
	cfg := experiment.Config{Scale: scale, Parallel: *parallel}
	if *tracePath != "" {
		cfg.Trace = rackfab.NewTraceSet()
	}

	// -experiment overrides the positional form; its sub-arguments are
	// whatever positionals remain (all of them — none was consumed as the
	// experiment ID).
	arg := *expFlag
	rest := flag.Args()
	if arg == "" {
		arg = flag.Arg(0)
		rest = flag.Args()[1:]
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rackfab: profile: %v\n", err)
		os.Exit(1)
	}
	code := dispatch(arg, rest, cfg, *engineFlag, *tracePath, *csvPath, *plotFlag)
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "rackfab: profile: %v\n", err)
		code = max(code, 1)
	}
	os.Exit(code)
}

// dispatch runs one subcommand or experiment and returns the exit code.
func dispatch(arg string, rest []string, cfg experiment.Config, engine, tracePath, csvPath string, plot bool) int {
	switch arg {
	case "sim":
		if err := runSim(rest, engine, tracePath); err != nil {
			fmt.Fprintf(os.Stderr, "rackfab: sim: %v\n", err)
			return 1
		}
	case "serve":
		if err := runServe(rest, engine); err != nil {
			fmt.Fprintf(os.Stderr, "rackfab: serve: %v\n", err)
			return 1
		}
	case "list":
		for _, line := range experiment.List() {
			fmt.Println(line)
		}
	case "all":
		for _, id := range experiment.IDs() {
			// "both"-engine experiments survive either filter.
			if eng, _ := experiment.EngineOf(id); engine != "" && eng != engine && eng != "both" {
				continue // -engine filters the sweep to one backend
			}
			if err := runOne(id, cfg, csvPath, plot); err != nil {
				fmt.Fprintf(os.Stderr, "rackfab: %s: %v\n", id, err)
				return 1
			}
			fmt.Println()
		}
		if err := writeTraceSet(tracePath, cfg.Trace); err != nil {
			fmt.Fprintf(os.Stderr, "rackfab: trace: %v\n", err)
			return 1
		}
	default:
		if eng, ok := experiment.EngineOf(arg); ok && engine != "" && eng != engine && eng != "both" {
			fmt.Fprintf(os.Stderr, "rackfab: %s runs on the %s engine, not %s (see `rackfab list`)\n", arg, eng, engine)
			return 2
		}
		if err := runOne(arg, cfg, csvPath, plot); err != nil {
			fmt.Fprintf(os.Stderr, "rackfab: %s: %v\n", arg, err)
			return 1
		}
		if err := writeTraceSet(tracePath, cfg.Trace); err != nil {
			fmt.Fprintf(os.Stderr, "rackfab: trace: %v\n", err)
			return 1
		}
	}
	return 0
}

// writeTraceSet exports an experiment run's collected flight-recorder
// traces (a no-op when -trace was not given). A .txt path selects the
// stable text form — the bytes the determinism smoke compares — any other
// path the Perfetto-loadable Chrome trace-event JSON. Experiments whose
// trials run the internal fabric API leave the set empty; the file is
// still written (an empty but valid document) so scripting stays simple.
func writeTraceSet(path string, ts *rackfab.TraceSet) error {
	if path == "" {
		return nil
	}
	write := ts.WriteJSON
	if strings.HasSuffix(path, ".txt") {
		write = ts.WriteText
	}
	return writeTraceFile(path, ts.Len(), write)
}

// writeTraceFile creates path and streams one trace export into it.
func writeTraceFile(path string, n int, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	fmt.Printf("trace: %d recorder(s) written to %s\n", n, path)
	return f.Close()
}

func runOne(id string, cfg experiment.Config, csvPath string, plot bool) error {
	run, ok := experiment.Lookup(id)
	if !ok {
		return fmt.Errorf("unknown experiment (try `rackfab list`)")
	}
	table, err := run(cfg)
	if err != nil {
		return err
	}
	if err := table.Render(os.Stdout); err != nil {
		return err
	}
	if plot && id == "fig1" {
		p, err := experiment.Fig1Plot(table)
		if err != nil {
			return err
		}
		fmt.Println()
		if err := p.Render(os.Stdout, 64, 18); err != nil {
			return err
		}
	}
	if csvPath != "" {
		f, err := os.OpenFile(csvPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		if err := table.CSV(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: rackfab [-scale quick|full] [-parallel N] [-engine packet|fluid] [-csv path] <experiment|list|all>
       rackfab -experiment <id> [flags]
       rackfab sim [-topo grid] [-width 4] [-height 4] [-workload uniform] …
       rackfab serve [-width 16] [-rate 50] [-duration 10m] [-checkpoint-at T -checkpoint-out f] [-restore f] …

-parallel N fans an experiment's independent trials over N workers
(0 = one per CPU, 1 = sequential). Every trial owns its own engine,
fabric, and RNG streams, so output is byte-identical at any setting.

-cpuprofile and -memprofile write pprof CPU and allocation profiles of any
run (go tool pprof reads them); they observe the process only, so the
output is the same with or without them.

-engine selects the simulation backend: for `+"`sim`"+` it picks the
cluster engine (packet = cycle-accurate datapath, fluid = flow-level
solver for large topologies); for an experiment it validates against
the experiment's engine, and for `+"`all`"+` it filters the sweep.

experiments:
`)
	for _, line := range experiment.List() {
		fmt.Fprintf(os.Stderr, "  %s\n", line)
	}
}
