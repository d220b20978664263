// Package poc models the paper's hardware proof-of-concept and the
// cross-validation step of its evaluation methodology: "To be certain that
// a large scale simulation is sound and credible, we begin with a small
// scale simulation verified by a hardware proof of concept (POC). We
// intend to use the NETFPGA SUME platform for the hardware POC."
//
// No NetFPGA is attached to this machine, so the PoC is a calibrated
// measurement model: a 4-port 10G SUME-class device with a per-hop latency
// constant and Gaussian jitter, replayed over small linear topologies. The
// validation harness runs the identical scenario on the packet-level
// simulator and reports the distribution error — the same pass/fail bar
// the paper's methodology sets before trusting the large-scale simulation.
package poc

import (
	"fmt"

	"rackfab/internal/fabric"
	"rackfab/internal/netstack"
	"rackfab/internal/phy"
	"rackfab/internal/sim"
	"rackfab/internal/switching"
	"rackfab/internal/telemetry"
	"rackfab/internal/topo"
	"rackfab/internal/workload"
)

// The SUME-class device calibration.
const (
	// LaneRate is the port rate (10G SFP+).
	LaneRate = 10e9
	// PipelineMean is the measured per-hop forwarding latency.
	PipelineMean = 650 * sim.Nanosecond
	// PipelineJitter is the per-hop latency standard deviation.
	PipelineJitter = 30 * sim.Nanosecond
	// SpacingM is the cable length between devices.
	SpacingM = 2.0
	// Media is the cable type.
	Media = phy.CopperDAC
)

// MeasureLinear replays frames across a chain of hops cables joining
// hops+1 integrated node devices (each a SUME-class store-and-forward
// switch with its local host) and returns the end-to-end latency
// distribution the "hardware" reports. The frame is serialized by the
// source NIC, then re-serialized by every device it traverses (the
// defining store-and-forward cost), with the device pipeline constant plus
// Gaussian jitter per traversal and cable flight time per segment:
//
//	total = serial_NIC + (hops+1)·(pipeline + serial) + hops·prop
func MeasureLinear(rng *sim.RNG, hops, frames, payloadBytes int) (*telemetry.Histogram, error) {
	if hops < 1 {
		return nil, fmt.Errorf("poc: need ≥1 hop, got %d", hops)
	}
	if hops+1 > 64 {
		return nil, fmt.Errorf("poc: chain of %d devices unrealistic for a PoC", hops+1)
	}
	if frames < 1 {
		return nil, fmt.Errorf("poc: need ≥1 frame")
	}
	bits := netstack.WireBitsForPayload(payloadBytes)
	prop := phy.ProfileOf(Media).Propagation(SpacingM)
	serial := sim.Transmission(bits, LaneRate)
	hist := telemetry.NewHistogram()
	for i := 0; i < frames; i++ {
		total := serial // source NIC serialization
		for dev := 0; dev < hops+1; dev++ {
			jitter := sim.Duration(float64(PipelineJitter) * rng.NormFloat64())
			pipe := PipelineMean + jitter
			if pipe < 0 {
				pipe = 0
			}
			total += pipe + serial
		}
		total += sim.Duration(int64(hops) * int64(prop))
		hist.Record(int64(total))
	}
	return hist, nil
}

// Report compares the packet simulator against the hardware model.
type Report struct {
	Hops                  int
	SimMean, HWMean       sim.Duration
	SimP99, HWP99         sim.Duration
	MeanErrPct, P99ErrPct float64
}

// Validate runs the identical linear-topology scenario on both the
// packet-level simulator and the SUME model and reports the error. The
// simulator is configured with the PoC's calibration (10G single-lane
// links, the SUME pipeline constant) — validation checks the simulation
// machinery, not the constants.
func Validate(hops, frames, payloadBytes int, seed int64) (*Report, error) {
	// Hardware side.
	hw, err := MeasureLinear(sim.NewRNG(seed), hops, frames, payloadBytes)
	if err != nil {
		return nil, err
	}

	// Simulator side: a line of hops+1 nodes, single 10G lanes, SUME
	// pipeline, store-and-forward — the reference NetFPGA switch design.
	g := topo.NewLine(hops+1, topo.Options{
		LanesPerLink: 1,
		LaneRate:     LaneRate,
		Media:        Media,
		NodeSpacingM: SpacingM,
	})
	fcfg := fabric.DefaultConfig(g)
	fcfg.Switch.Mode = switching.StoreAndForward
	fcfg.Switch.PipelineLatency = PipelineMean
	fcfg.Host.NICRate = LaneRate
	fcfg.Seed = seed
	f, _, err := fabric.Assemble(fcfg, nil)
	if err != nil {
		return nil, err
	}
	specs := make([]workload.FlowSpec, frames)
	for i := range specs {
		// One frame per flow, spaced far apart: latency without queueing,
		// matching how a hardware latency test injects probe frames.
		specs[i] = workload.FlowSpec{
			Src: 0, Dst: hops, Bytes: int64(payloadBytes),
			At: sim.Time(int64(i) * int64(100*sim.Microsecond)),
		}
	}
	if _, err := f.InjectFlows(specs); err != nil {
		return nil, err
	}
	if err := f.RunUntilDone(sim.Time(sim.Second * 10)); err != nil {
		return nil, err
	}
	simHist := f.Stats().Latency

	r := &Report{
		Hops:    hops,
		SimMean: sim.Duration(simHist.Mean()),
		HWMean:  sim.Duration(hw.Mean()),
		SimP99:  sim.Duration(simHist.Quantile(0.99)),
		HWP99:   sim.Duration(hw.Quantile(0.99)),
	}
	r.MeanErrPct = pctErr(float64(r.SimMean), float64(r.HWMean))
	r.P99ErrPct = pctErr(float64(r.SimP99), float64(r.HWP99))
	return r, nil
}

func pctErr(sim, hw float64) float64 {
	if hw == 0 {
		return 0
	}
	d := (sim - hw) / hw * 100
	if d < 0 {
		return -d
	}
	return d
}
