package fabric

import (
	"rackfab/internal/host"
	"rackfab/internal/power"
	"rackfab/internal/ringctl"
	"rackfab/internal/sim"
)

// Reports snapshots every link's telemetry for the Closed Ring Control
// (the fabric side of PLP #5). Utilization windows reset on each call, so
// successive reports cover disjoint intervals — exactly what a circulating
// collection token would see.
func (f *Fabric) Reports() []ringctl.LinkReport {
	now := f.eng.Now()
	reports := make([]ringctl.LinkReport, 0, len(f.g.Edges()))
	for id, ls := range f.links {
		if ls == nil {
			continue
		}
		link := ls.edge.Link
		window := now.Sub(ls.windowStart)
		util := 0.0
		if window > 0 {
			busy := ls.busyPs[0]
			if ls.busyPs[1] > busy {
				busy = ls.busyPs[1]
			}
			util = float64(busy) / float64(window)
			if util > 1 {
				util = 1
			}
		}
		ls.busyPs[0], ls.busyPs[1] = 0, 0
		ls.windowStart = now

		// Windowed receiver BER: errors over bits since the last report.
		var bits, errs int64
		for _, lane := range link.Lanes {
			bits += lane.Stats.BitsCarried.Value()
			errs += lane.Stats.PreFECBitErrors.Value()
		}
		if db := bits - ls.prevBits; db > 0 {
			ls.lastBER = float64(errs-ls.prevErrs) / float64(db)
			ls.prevBits, ls.prevErrs = bits, errs
		}

		reports = append(reports, ringctl.LinkReport{
			Link:          id,
			Utilization:   util,
			QueueDelay:    sim.Duration(ls.qDelay.Value()),
			MeasuredBER:   ls.lastBER,
			EffectiveRate: link.EffectiveRate(),
			PowerW:        power.LinkPower(link),
			ActiveLanes:   link.ActiveLanes(),
			TotalLanes:    len(link.Lanes),
			Media:         link.Media,
			Up:            link.Up(),
		})
	}
	f.samplePower()
	return reports
}

// TopFlows returns up to k in-flight flows ordered by bytes remaining,
// then by ID — the elephants the bypass policy considers. It keeps the k
// best flows in an insertion buffer while ranging the active set and
// snapshots only those. It returns nil for k <= 0.
func (f *Fabric) TopFlows(k int) []ringctl.FlowSnapshot {
	if k <= 0 {
		return nil
	}
	top := make([]*host.Flow, 0, min(k, len(f.active)))
	//det:ordered the buffer holds the k best under a total order (Remaining, then ID), whatever the visit order
	for _, fl := range f.active {
		if len(top) == k && !ahead(fl, top[k-1]) {
			continue
		}
		if len(top) < k {
			top = append(top, nil)
		}
		i := len(top) - 1
		for ; i > 0 && ahead(fl, top[i-1]); i-- {
			top[i] = top[i-1]
		}
		top[i] = fl
	}
	now := f.eng.Now()
	snaps := make([]ringctl.FlowSnapshot, len(top))
	for i, fl := range top {
		elapsed := now.Sub(fl.Started()).Seconds()
		rate := 0.0
		if elapsed > 0 {
			rate = float64(fl.AckedBytes()) * 8 / elapsed
		}
		snaps[i] = ringctl.FlowSnapshot{
			ID:             uint64(fl.ID),
			Src:            fl.Src,
			Dst:            fl.Dst,
			BytesRemaining: fl.Remaining(),
			Rate:           rate,
		}
	}
	return snaps
}

// ahead is TopFlows' order: more bytes remaining first, then the lower ID.
func ahead(a, b *host.Flow) bool {
	if ra, rb := a.Remaining(), b.Remaining(); ra != rb {
		return ra > rb
	}
	return a.ID < b.ID
}
