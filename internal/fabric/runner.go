package fabric

import (
	"errors"
	"fmt"

	"rackfab/internal/host"
	"rackfab/internal/sim"
	"rackfab/internal/trace"
	"rackfab/internal/workload"
)

// InjectFlows schedules a workload's flows into the fabric and returns the
// flow handles. Specs are validated against the fabric size.
func (f *Fabric) InjectFlows(specs []workload.FlowSpec) ([]*host.Flow, error) {
	if err := workload.ValidateSpecs(specs, f.g.NumNodes()); err != nil {
		return nil, err
	}
	flows := make([]*host.Flow, 0, len(specs))
	for _, spec := range specs {
		f.nextFlow++
		fl := &host.Flow{
			ID:    f.nextFlow,
			Src:   spec.Src,
			Dst:   spec.Dst,
			Bytes: spec.Bytes,
		}
		f.active[fl.ID] = fl
		flows = append(flows, fl)
		at := spec.At
		if at < f.eng.Now() {
			at = f.eng.Now()
		}
		f.eng.At(at, "flow-start", func() {
			f.trace.Record(trace.Event{
				At: f.eng.Now(), Kind: trace.FlowArrive,
				Flow: int64(fl.ID), Link: -1, Node: int32(fl.Src), Value: fl.Bytes,
			})
			f.hosts[fl.Src].StartFlow(fl)
		})
	}
	return flows, nil
}

// onFlowDone is the completion hook shared by all hosts.
func (f *Fabric) onFlowDone(fl *host.Flow) {
	delete(f.active, fl.ID)
	f.trace.Record(trace.Event{
		At: f.eng.Now(), Kind: trace.FlowComplete,
		Flow: int64(fl.ID), Link: -1, Node: int32(fl.Dst), Value: int64(fl.FCT()),
	})
	if f.waiting != nil {
		delete(f.waiting, fl.ID)
		if len(f.waiting) == 0 {
			f.eng.Stop()
		}
	}
}

// RunUntilDone executes the simulation until the flows its caller measures
// complete or the time limit passes. With no measured flows it waits for
// every injected flow. Otherwise it stops right after the event that
// completes the last measured flow, whatever else is still in flight, so
// the clock reads that completion. It returns an error when waited-for
// flows remain unfinished at the limit (including failed flows).
func (f *Fabric) RunUntilDone(limit sim.Time, measured ...*host.Flow) error {
	f.waiting = f.active
	if len(measured) > 0 {
		f.waiting = make(map[host.FlowID]*host.Flow, len(measured))
		for _, fl := range measured {
			if !fl.Done() {
				f.waiting[fl.ID] = fl
			}
		}
	}
	defer func() { f.waiting = nil }()
	if len(f.waiting) == 0 {
		return nil
	}
	err := f.eng.RunUntil(limit)
	if err != nil && !errors.Is(err, sim.ErrStopped) {
		return err
	}
	if n := len(f.waiting); n > 0 {
		failed := 0
		//det:ordered commutative integer count: the loop only increments a counter
		for _, fl := range f.waiting {
			if fl.Failed() {
				failed++
			}
		}
		return fmt.Errorf("fabric: %d flows unfinished at %v (%d failed)", n, f.eng.Now(), failed)
	}
	return nil
}

// RunFor executes the simulation for a fixed duration regardless of flow
// state (open-loop experiments).
func (f *Fabric) RunFor(d sim.Duration) error {
	err := f.eng.RunUntil(f.eng.Now().Add(d))
	if errors.Is(err, sim.ErrStopped) {
		return nil
	}
	return err
}
