package experiment

import (
	"fmt"
	"sort"
)

// Runner is one experiment entry point.
type Runner func(Config) (*Table, error)

// registry maps experiment IDs (the rows `rackfab list` prints) to
// runners. Engine names the simulation backend the experiment's trials run
// on — "packet" (cycle-accurate datapath), "fluid" (flow-level solver; E8
// additionally cross-checks one packet trial), or "both" (trials on each
// engine side by side) — so the CLI's -engine flag can select and validate.
var registry = map[string]struct {
	Run    Runner
	Desc   string
	Engine string
}{
	"fig1": {Fig1, "Figure 1: media propagation vs cut-through switching latency", "packet"},
	"fig2": {Fig2, "Figure 2: grid 2-lane → torus 1-lane CRC reconfiguration", "packet"},
	"e3":   {E3, "MapReduce shuffle: slowest link gates the job; CRC recovery", "packet"},
	"e4":   {E4, "power budget enforcement via PLP #3 lane shedding", "packet"},
	"e5":   {E5, "minimum flow size σ* for which reconfiguration pays", "packet"},
	"e6":   {E6, "adaptive FEC across a BER sweep", "packet"},
	"e7":   {E7, "small-scale sim vs NetFPGA-SUME-class PoC validation", "packet"},
	"e8":   {E8, "scale sweep 64→4096 nodes on the fluid engine", "fluid"},
	"e9":   {E9, "adaptive FEC on a bursty (Gilbert–Elliott) channel", "packet"},
	"e10":  {E10, "churn: degradation + recovery under Poisson link flaps and node loss", "fluid"},
	"e12":  {E12, "SLO attainment: incast admission modes + phased all-reduce (PL2-style)", "both"},
	"e13":  {E13, "service mode: open-loop offered-load sweep, attainment and retirement", "both"},
	"a1":   {A1, "ablation: CRC price-weight terms under hotspot load", "packet"},
	"a2":   {A2, "ablation: bypass express channels for elephants", "packet"},
	"a3":   {A3, "ablation: shortest-path vs VLB vs CRC adaptive routing", "packet"},
}

// Lookup resolves an experiment ID.
func Lookup(id string) (Runner, bool) {
	e, ok := registry[id]
	return e.Run, ok
}

// EngineOf reports which engine an experiment's trials run on ("packet" or
// "fluid").
func EngineOf(id string) (string, bool) {
	e, ok := registry[id]
	return e.Engine, ok
}

// List returns "id: description [engine]" lines in ID order.
func List() []string {
	ids := IDs()
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = fmt.Sprintf("%-5s %s [%s]", id, registry[id].Desc, registry[id].Engine)
	}
	return out
}

// IDs returns all experiment IDs in order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	//det:ordered keys are collected then sorted before any ordered use
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
