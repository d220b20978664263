package fabric

import (
	"strings"
	"testing"

	"rackfab/internal/host"
	"rackfab/internal/sim"
	"rackfab/internal/topo"
	"rackfab/internal/workload"
)

// TestRunUntilDoneStopsAtMeasuredFlows runs a short measured flow beside a
// long background flow on a 3-node line. Waiting for the short flow alone
// stops the clock at its completion with the background flow still in
// flight, and gives the FCT a run that waits for every flow gives.
func TestRunUntilDoneStopsAtMeasuredFlows(t *testing.T) {
	start := func(t *testing.T) (*sim.Engine, *Fabric, *host.Flow, *host.Flow) {
		t.Helper()
		eng, f := build(t, topo.NewLine(3, topo.Options{}))
		flows, err := f.InjectFlows([]workload.FlowSpec{
			{Src: 1, Dst: 2, Bytes: 10e6},
			{Src: 0, Dst: 2, Bytes: 15000},
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng, f, flows[1], flows[0]
	}
	limit := sim.Time(sim.Second)

	_, f, short, long := start(t)
	if err := f.RunUntilDone(limit); err != nil {
		t.Fatal(err)
	}
	if !short.Done() || !long.Done() {
		t.Fatalf("RunUntilDone with no measured flows returned with short done=%v, long done=%v", short.Done(), long.Done())
	}
	want, end := short.FCT(), short.Started().Add(short.FCT())

	eng, f, short, long := start(t)
	if err := f.RunUntilDone(limit, short); err != nil {
		t.Fatal(err)
	}
	if !short.Done() {
		t.Fatal("RunUntilDone returned nil with the measured flow unfinished")
	}
	if short.FCT() != want {
		t.Fatalf("measured FCT = %v, want %v", short.FCT(), want)
	}
	if eng.Now() != end {
		t.Fatalf("clock = %v, want the measured flow's completion at %v", eng.Now(), end)
	}
	if long.Done() || long.Failed() {
		t.Fatalf("background flow done=%v failed=%v, want still in flight", long.Done(), long.Failed())
	}
	// The no-argument form then waits for the rest.
	if err := f.RunUntilDone(limit); err != nil {
		t.Fatal(err)
	}
	if !long.Done() {
		t.Fatal("RunUntilDone with no measured flows left the background flow unfinished")
	}

	// A limit before the measured completion errors, counting only the
	// measured flow.
	_, f, short, _ = start(t)
	err := f.RunUntilDone(end-1, short)
	if err == nil || !strings.Contains(err.Error(), "1 flows unfinished") {
		t.Fatalf("RunUntilDone before the measured completion = %v, want 1 flow unfinished", err)
	}
}
