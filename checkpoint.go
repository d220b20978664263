package rackfab

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"rackfab/internal/faults"
	"rackfab/internal/sim"
)

// This file is the checkpoint/restore surface of service mode, on either
// engine. Both engines are deterministic, so a served cluster's state is a
// function of its inputs alone: the Config, the ServeConfig, the fault
// schedules applied while the clock read zero, and the number of ticks
// run. A checkpoint records exactly those, and ResumeService rebuilds the
// cluster from them and ticks it again. The resumed service is therefore
// bit-identical to the original, flight-recorder trace included, and a
// checkpoint's size does not grow with the soak; a resume costs as much
// simulation as the ticks it re-runs.
//
// A cluster driven any other way (an exported mutator before or after
// Serve, a second Serve, a failed Tick, ApplyFaults once the clock has
// moved) is not a function of those inputs, and Service.Checkpoint
// refuses it.

// ckptMagic versions the checkpoint layout; bump on any format change.
const ckptMagic = "rkfbsv03"

// servedBy is Cluster.drivenBy while one Service's ticks are all that
// drove the cluster.
const servedBy = "Serve"

// offScript notes an exported call that drives the cluster outside its
// Service's ticks. The first such call is the one Checkpoint names.
func (c *Cluster) offScript(op string) {
	if c.drivenBy == "" || c.drivenBy == servedBy {
		c.drivenBy = op
	}
}

// Checkpoint serializes the service's inputs in a byte-stable form: a
// digest of the Config and ServeConfig, the lowered fault schedules
// applied while the clock read zero, in call order, and the tick count.
// It errors if anything but this service's ticks drove the cluster.
func (s *Service) Checkpoint() ([]byte, error) {
	if s.c.drivenBy != servedBy {
		return nil, fmt.Errorf("rackfab: cannot checkpoint: something other than the service's ticks drove the cluster (first: %s)", s.c.drivenBy)
	}
	b := []byte(ckptMagic)
	b = binary.LittleEndian.AppendUint64(b, ckptDigest(s.c.cfg, s.cfg))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s.c.zeroFaults)))
	for _, sched := range s.c.zeroFaults {
		events := sched.Events()
		b = binary.LittleEndian.AppendUint32(b, uint32(len(events)))
		for _, e := range events {
			b = binary.LittleEndian.AppendUint64(b, uint64(e.At))
			b = binary.LittleEndian.AppendUint64(b, uint64(e.Target))
			b = append(b, byte(e.Kind))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.Frac))
		}
	}
	return binary.LittleEndian.AppendUint64(b, uint64(s.d.Stats().Ticks)), nil
}

// ResumeService rebuilds a service from Checkpoint bytes. cfg and scfg
// must equal the originals (a digest mismatch errors), except that
// cfg.Faults must be nil: the fault schedules travel inside the
// checkpoint. The resume builds a fresh cluster, re-applies those
// schedules, serves it and runs the recorded number of ticks, so the
// resumed service continues byte-identically to one that never
// checkpointed.
func ResumeService(cfg Config, scfg ServeConfig, data []byte) (*Service, error) {
	if cfg.Faults != nil {
		return nil, fmt.Errorf("rackfab: ResumeService rejects cfg.Faults — the fault schedules travel inside the checkpoint")
	}
	r := &ckptReader{b: data}
	if string(r.take(len(ckptMagic))) != ckptMagic {
		return nil, fmt.Errorf("rackfab: not a service checkpoint (bad magic)")
	}
	if digest := r.u64(); r.err == nil && digest != ckptDigest(cfg, scfg) {
		return nil, fmt.Errorf("rackfab: checkpoint was taken under a different Config or ServeConfig")
	}
	nsched := r.count(4) // a schedule is at least its event count
	scheds := make([]*faults.Schedule, 0, nsched)
	for i := 0; i < nsched && r.err == nil; i++ {
		nev := r.count(faultEventBytes)
		events := make([]faults.Event, 0, nev)
		for j := 0; j < nev && r.err == nil; j++ {
			events = append(events, faults.Event{
				At:     sim.Time(r.u64()),
				Target: int(r.u64()),
				Kind:   faults.Kind(r.u8()),
				Frac:   math.Float64frombits(r.u64()),
			})
		}
		scheds = append(scheds, faults.New(events...))
	}
	ticks := r.u64()
	if r.err != nil {
		return nil, fmt.Errorf("rackfab: %w", r.err)
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("rackfab: checkpoint has %d trailing bytes", len(r.b))
	}
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	for _, sched := range scheds {
		if err := sched.Validate(c.graph); err != nil {
			return nil, fmt.Errorf("rackfab: %w", err)
		}
		if err := c.applyFaults(sched); err != nil {
			return nil, err
		}
	}
	s, err := c.Serve(scfg)
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < ticks; i++ {
		if err := s.Tick(); err != nil {
			return nil, fmt.Errorf("rackfab: re-running checkpointed tick %d: %w", i, err)
		}
	}
	return s, nil
}

// faultEventBytes is a serialized fault event's size (At, Target, Kind,
// Frac), which ResumeService checks event counts against.
const faultEventBytes = 8 + 8 + 1 + 8

// ckptReader is a little-endian cursor over checkpoint bytes; the first
// short read latches err and every later read returns zero.
type ckptReader struct {
	b   []byte
	err error
}

func (r *ckptReader) take(n int) []byte {
	if r.err != nil || n < 0 || n > len(r.b) {
		if r.err == nil {
			r.err = fmt.Errorf("checkpoint truncated")
		}
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// count reads an element count and checks it against the bytes left, each
// element taking at least minBytes, so a corrupt count latches the
// truncation error (and returns 0) instead of sizing an allocation.
func (r *ckptReader) count(minBytes int) int {
	n := r.u32()
	if r.err == nil && uint64(n)*uint64(minBytes) > uint64(len(r.b)) {
		r.err = fmt.Errorf("checkpoint truncated")
		return 0
	}
	return int(n)
}

func (r *ckptReader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *ckptReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *ckptReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// ckptDigest hashes every Config field that shapes engine state, and the
// whole ServeConfig, so ResumeService can reject a checkpoint resumed under
// different inputs. Config.Faults is left out because the schedules travel
// inside the checkpoint. Trace is included: a split run's trace export
// equals the unbroken run's only if both sides record.
func ckptDigest(cfg Config, scfg ServeConfig) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d|%d|%s|%s|%g|%d|%#v|%s|%g|%v|%#v",
		cfg.Topology, cfg.Width, cfg.Height, cfg.LanesPerLink, cfg.Media,
		cfg.SwitchMode, cfg.PowerCapW, cfg.Seed,
		cfg.Control, cfg.Engine, cfg.SLOTargetX, cfg.Trace, scfg)
	return h.Sum64()
}
