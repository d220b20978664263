package rackfab

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("zero config accepted")
	}
	if _, err := New(Config{Topology: Grid, Width: 4}); err == nil {
		t.Error("grid without height accepted")
	}
	if _, err := New(Config{Topology: "blob", Width: 4, Height: 4}); err == nil {
		t.Error("unknown topology accepted")
	}
	if _, err := New(Config{Topology: Grid, Width: 4, Height: 4, Media: "aether"}); err == nil {
		t.Error("unknown media accepted")
	}
	if _, err := New(Config{Topology: Grid, Width: 4, Height: 4, SwitchMode: "warp"}); err == nil {
		t.Error("unknown switch mode accepted")
	}
}

// TestNewRejectsInvalidConfig: New refuses every invalid Config with an
// error, never a panic, on both engines; so does Serve for an invalid
// ServeConfig.
func TestNewRejectsInvalidConfig(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero width", func(c *Config) { c.Width = 0 }},
		{"grid without height", func(c *Config) { c.Height = 0 }},
		{"torus with negative height", func(c *Config) { c.Topology, c.Height = Torus, -1 }},
		{"unknown topology", func(c *Config) { c.Topology = "blob" }},
		{"unknown media", func(c *Config) { c.Media = "aether" }},
		{"unknown switch mode", func(c *Config) { c.SwitchMode = "warp" }},
		{"unknown engine", func(c *Config) { c.Engine = "abacus" }},
		{"fluid with control", func(c *Config) { c.Engine, c.Control = EngineFluid, ControlOn() }},
		{"ring of two", func(c *Config) { c.Topology, c.Width = Ring, 2 }},
		{"negative lanes", func(c *Config) { c.LanesPerLink = -1 }},
		{"negative power cap", func(c *Config) { c.PowerCapW = -1 }},
		{"negative SLO target", func(c *Config) { c.SLOTargetX = -1 }},
		{"NaN SLO target", func(c *Config) { c.SLOTargetX = math.NaN() }},
	}
	serveCases := []struct {
		name string
		mut  func(*ServeConfig)
	}{
		{"pareto max below zero", func(s *ServeConfig) { s.Arrivals.Sizes = "pareto:1000:1.2:-1" }},
		{"pareto max below min", func(s *ServeConfig) { s.Arrivals.Sizes = "pareto:1000:1.2:999" }},
		{"pareto NaN alpha", func(s *ServeConfig) { s.Arrivals.Sizes = "pareto:1000:NaN" }},
	}
	for _, engine := range []Engine{EnginePacket, EngineFluid} {
		for _, tc := range cases {
			t.Run(string(engine)+"/"+tc.name, func(t *testing.T) {
				cfg := Config{Topology: Grid, Width: 4, Height: 4, Seed: 1, Engine: engine}
				tc.mut(&cfg)
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("New panicked: %v", r)
					}
				}()
				if _, err := New(cfg); err == nil {
					t.Fatalf("New accepted %+v", cfg)
				}
			})
		}
		for _, tc := range serveCases {
			t.Run(string(engine)+"/serve "+tc.name, func(t *testing.T) {
				c, err := New(Config{Topology: Grid, Width: 4, Height: 4, Seed: 1, Engine: engine})
				if err != nil {
					t.Fatal(err)
				}
				scfg := svcServeConfig("poisson")
				tc.mut(&scfg)
				if _, err := c.Serve(scfg); err == nil {
					t.Fatalf("Serve accepted %+v", scfg)
				}
			})
		}
	}
}

func TestQuickstartFlow(t *testing.T) {
	c, err := New(Config{Topology: Grid, Width: 4, Height: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c.Nodes() != 16 {
		t.Fatalf("nodes = %d", c.Nodes())
	}
	flows, err := c.Inject(UniformTraffic(c, 50, 16<<10))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntilDone(time.Second); err != nil {
		t.Fatal(err)
	}
	for _, f := range flows {
		if !f.Done() || f.Failed() {
			t.Fatal("flow unfinished")
		}
		if d, err := f.CompletionTime(); err != nil || d <= 0 {
			t.Fatalf("completion %v err %v", d, err)
		}
	}
	rep := c.Report()
	if rep.FlowsCompleted != 50 || rep.FramesDelivered == 0 {
		t.Fatalf("report: %+v", rep)
	}
	if !strings.Contains(rep.String(), "latency") {
		t.Fatal("report text malformed")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Report {
		c, err := New(Config{Topology: Grid, Width: 4, Height: 4, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Inject(UniformTraffic(c, 40, 32<<10)); err != nil {
			t.Fatal(err)
		}
		if err := c.RunUntilDone(time.Second); err != nil {
			t.Fatal(err)
		}
		return c.Report()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different results:\n%+v\n%+v", a, b)
	}
}

func TestReconfigurationAPI(t *testing.T) {
	c, err := New(Config{Topology: Grid, Width: 4, Height: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	before, err := c.MeanHops()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyGridToTorus(1); err != nil {
		t.Fatal(err)
	}
	if err := c.RunFor(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	after, err := c.MeanHops()
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Fatalf("mean hops %v → %v", before, after)
	}
}

func TestControlDecisionsVisible(t *testing.T) {
	c, err := New(Config{
		Topology: Grid, Width: 4, Height: 4, Seed: 3,
		Control: ControlConfig{Enabled: true, Epoch: 50 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Inject(ShuffleTraffic(c, 64<<10)); err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntilDone(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(c.Decisions()) == 0 {
		t.Fatal("no CRC decisions")
	}
	rep := c.Report()
	if rep.CRCDecisions != len(c.Decisions()) {
		t.Fatal("decision counts disagree")
	}
}

func TestFaultInjection(t *testing.T) {
	c, err := New(Config{Topology: Line, Width: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetLinkBER(0, 1, 1e-6); err != nil {
		t.Fatal(err)
	}
	if err := c.SetLinkBER(0, 2, 1e-6); err == nil {
		t.Fatal("non-adjacent link accepted")
	}
	if err := c.DisableLanes(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.DisableLanes(1, 2, 5); err == nil {
		t.Fatal("darkening whole link accepted")
	}
	if name, err := c.LinkFECName(0, 1); err != nil || name != "none" {
		t.Fatalf("FEC name %q err %v", name, err)
	}
}

func TestJobCompletionTime(t *testing.T) {
	c, err := New(Config{Topology: Grid, Width: 3, Height: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	flows, err := c.Inject(ShuffleTraffic(c, 8<<10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := JobCompletionTime(flows); err == nil {
		t.Fatal("JCT of unfinished job accepted")
	}
	if err := c.RunUntilDone(time.Second); err != nil {
		t.Fatal(err)
	}
	jct, err := JobCompletionTime(flows)
	if err != nil || jct <= 0 {
		t.Fatalf("JCT %v err %v", jct, err)
	}
}

func TestIncastAndHotspotGenerators(t *testing.T) {
	c, err := New(Config{Topology: Grid, Width: 4, Height: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	in := IncastTraffic(c, 5, 8, 32<<10)
	if len(in) != 8 {
		t.Fatalf("incast specs = %d", len(in))
	}
	hs := HotspotTraffic(c, 100, 2, 0.7, 16<<10)
	if len(hs) != 100 {
		t.Fatalf("hotspot specs = %d", len(hs))
	}
	if _, err := c.Inject(append(in, hs...)); err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntilDone(2 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestPowerCap(t *testing.T) {
	c, err := New(Config{
		Topology: Grid, Width: 4, Height: 4, Seed: 8,
		PowerCapW: 100,
		Control:   ControlOn(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Inject(UniformTraffic(c, 30, 16<<10)); err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntilDone(time.Second); err != nil {
		t.Fatal(err)
	}
	if c.PowerW() <= 0 {
		t.Fatal("no power accounting")
	}
}

func TestSetValiantRouting(t *testing.T) {
	c, err := New(Config{Topology: Torus, Width: 4, Height: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	c.SetValiantRouting(true)
	if _, err := c.Inject([]FlowSpec{{Src: 0, Dst: 15, Bytes: 15000}}); err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntilDone(time.Second); err != nil {
		t.Fatal(err)
	}
	vlbHops := c.Report().MeanHops
	// VLB pivots inflate hop counts past the torus diameter-bounded
	// shortest path for this pair (≤ 2).
	if vlbHops <= 2.0 {
		t.Fatalf("VLB mean hops %v too short", vlbHops)
	}
	c.SetValiantRouting(false)
}

// TestValiantRoutingWithoutPivot: on a two-node line every node is a
// flow's source or destination, so VLB has no pivot to offer and must route
// the flow on the plain shortest path. The run happens in a goroutine so
// that a hang fails this test instead of stalling the package.
func TestValiantRoutingWithoutPivot(t *testing.T) {
	c, err := New(Config{Topology: Line, Width: 2, Engine: EnginePacket})
	if err != nil {
		t.Fatal(err)
	}
	c.SetValiantRouting(true)
	if _, err := c.Inject([]FlowSpec{{Src: 0, Dst: 1, Bytes: 15000}}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.RunUntilDone(time.Second) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("RunUntilDone did not return within 1 s: VLB found no pivot and kept looking")
	}
	if r := c.Report(); r.FlowsCompleted != 1 || r.MeanHops != 1 {
		t.Fatalf("completed %d flows over %v mean hops, want 1 over 1", r.FlowsCompleted, r.MeanHops)
	}
}
