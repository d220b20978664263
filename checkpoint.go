package rackfab

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"rackfab/internal/faults"
	"rackfab/internal/sim"
	"rackfab/internal/workload"
)

// This file is the checkpoint/restore surface of the fluid engine: a
// byte-stable, event-sourced serialization of a running Cluster.
//
// The fluid backend journals every state-mutating public operation —
// injected batches (with their absolute arrival instants), clock advances,
// retirements — and Checkpoint writes that journal plus the lowered fault
// schedule. Restore builds a fresh Cluster from the same Config and replays
// the journal; because every engine computation is a deterministic function
// of (config, faults, operation sequence), the restored cluster is
// bit-identical to the original at the checkpoint instant, and a run split
// across a checkpoint/restore boundary produces byte-identical results —
// including flight-recorder traces — to an unbroken run. The one trace gap:
// Cluster.RunPhases records its phase-open markers itself and journals only
// its inject and run-until-done operations, so a restored trace lacks the
// markers of barriers opened before the checkpoint.
//
// The journal grows with the operation count, not with simulated time or
// flow state, and injected-spec memory is the same memory the caller's
// batches already occupied. A retired flow stays out of engine state; only
// its original spec persists in the journal.

// opKind tags one journal operation.
type opKind uint8

const (
	opInject       opKind = 1 // inject specs (pending before the run, live after)
	opRunFor       opKind = 2 // Advance to the absolute instant `until`
	opRunUntilDone opKind = 3 // AdvanceUntilDone with absolute limit `until`
	opRetire       opKind = 4 // prefix-retire completed flow state
)

// journalOp is one recorded operation.
type journalOp struct {
	kind  opKind
	until sim.Time
	specs []workload.FlowSpec
}

// ckptMagic versions the checkpoint layout; bump on any format change.
const ckptMagic = "rkfbck01"

// Checkpoint serializes the cluster's full operation history in a
// byte-stable form. Fluid engine only; RunPhases journals as its
// per-phase inject and run-until-done operations. The bytes embed a digest
// of the construction Config — Restore must be handed an identical one.
func (c *Cluster) Checkpoint() ([]byte, error) {
	if c.fl == nil {
		return nil, fmt.Errorf("rackfab: Checkpoint requires the fluid engine (EngineFluid)")
	}
	b := []byte(ckptMagic)
	b = binary.LittleEndian.AppendUint64(b, cfgDigest(c.cfg))
	var events []faults.Event
	if c.fl.sched != nil {
		events = c.fl.sched.Events()
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(events)))
	for _, e := range events {
		b = binary.LittleEndian.AppendUint64(b, uint64(e.At))
		b = binary.LittleEndian.AppendUint64(b, uint64(e.Target))
		b = append(b, byte(e.Kind))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.Frac))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(c.fl.journal)))
	for _, op := range c.fl.journal {
		b = append(b, byte(op.kind))
		switch op.kind {
		case opInject:
			b = binary.LittleEndian.AppendUint32(b, uint32(len(op.specs)))
			for _, s := range op.specs {
				b = binary.LittleEndian.AppendUint64(b, uint64(s.Src))
				b = binary.LittleEndian.AppendUint64(b, uint64(s.Dst))
				b = binary.LittleEndian.AppendUint64(b, uint64(s.Bytes))
				b = binary.LittleEndian.AppendUint64(b, uint64(s.At))
				b = binary.LittleEndian.AppendUint32(b, uint32(len(s.Label)))
				b = append(b, s.Label...)
			}
		case opRunFor, opRunUntilDone:
			b = binary.LittleEndian.AppendUint64(b, uint64(op.until))
		}
	}
	return b, nil
}

// Restore rebuilds a cluster from Checkpoint bytes. cfg must equal the
// Config the checkpointed cluster was built with (a digest mismatch
// errors), except Faults, which must be nil: the lowered fault timeline —
// including any schedule merged in via ApplyFaults — travels inside the
// checkpoint. The restored cluster carries no flow handles; it is the
// service-mode resume surface, where completions are drained rather than
// held per handle.
func Restore(cfg Config, data []byte) (*Cluster, error) {
	if cfg.Engine != EngineFluid {
		return nil, fmt.Errorf("rackfab: Restore requires the fluid engine (EngineFluid)")
	}
	if cfg.Faults != nil {
		return nil, fmt.Errorf("rackfab: Restore rejects cfg.Faults — the fault schedule travels inside the checkpoint")
	}
	r := &ckptReader{b: data}
	if string(r.take(len(ckptMagic))) != ckptMagic {
		return nil, fmt.Errorf("rackfab: not a checkpoint (bad magic)")
	}
	digest := r.u64()
	if r.err == nil && digest != cfgDigest(cfg) {
		return nil, fmt.Errorf("rackfab: checkpoint was taken under a different Config")
	}
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	nev := r.count(faultEventBytes)
	events := make([]faults.Event, 0, nev)
	for i := 0; i < nev && r.err == nil; i++ {
		ev := faults.Event{
			At:     sim.Time(r.u64()),
			Target: int(r.u64()),
			Kind:   faults.Kind(r.u8()),
			Frac:   math.Float64frombits(r.u64()),
		}
		events = append(events, ev)
	}
	nops := r.count(1) // an op is at least its kind byte
	ops := make([]journalOp, 0, nops)
	for i := 0; i < nops && r.err == nil; i++ {
		op := journalOp{kind: opKind(r.u8())}
		switch op.kind {
		case opInject:
			nsp := r.count(minSpecBytes)
			op.specs = make([]workload.FlowSpec, 0, nsp)
			for j := 0; j < nsp && r.err == nil; j++ {
				s := workload.FlowSpec{
					Src:   int(r.u64()),
					Dst:   int(r.u64()),
					Bytes: int64(r.u64()),
					At:    sim.Time(r.u64()),
				}
				s.Label = string(r.take(int(r.u32())))
				op.specs = append(op.specs, s)
			}
		case opRunFor, opRunUntilDone:
			op.until = sim.Time(r.u64())
		case opRetire:
		default:
			return nil, fmt.Errorf("rackfab: checkpoint has unknown op kind %d", op.kind)
		}
		ops = append(ops, op)
	}
	if r.err != nil {
		return nil, fmt.Errorf("rackfab: %w", r.err)
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("rackfab: checkpoint has %d trailing bytes", len(r.b))
	}
	if len(events) > 0 {
		sched := faults.New(events...)
		if err := sched.Validate(c.graph); err != nil {
			return nil, fmt.Errorf("rackfab: %w", err)
		}
		c.fl.sched = sched
	}
	for i, op := range ops {
		if err := c.fl.replay(op); err != nil {
			return nil, fmt.Errorf("rackfab: replaying checkpoint op %d: %w", i, err)
		}
	}
	c.fl.journal = ops
	return c, nil
}

// replay applies one journaled operation without re-recording it.
func (b *fluidBackend) replay(op journalOp) error {
	switch op.kind {
	case opInject:
		if b.sess == nil {
			b.pending = append(b.pending, op.specs...)
			return nil
		}
		_, err := b.sess.Inject(op.specs)
		return err
	case opRunFor:
		if err := b.ensure(); err != nil {
			return err
		}
		return b.sess.Advance(op.until)
	case opRunUntilDone:
		if err := b.ensure(); err != nil {
			return err
		}
		return b.sess.AdvanceUntilDone(op.until)
	case opRetire:
		if b.sess != nil {
			b.sess.Retire()
		}
		return nil
	default:
		return fmt.Errorf("unknown journal op %d", op.kind)
	}
}

// Serialized sizes Restore checks element counts against: a fault event
// is At, Target, Kind, Frac; a spec is Src, Dst, Bytes, At and a label
// length, before the label bytes.
const (
	faultEventBytes = 8 + 8 + 1 + 8
	minSpecBytes    = 4*8 + 4
)

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

// cfgDigest hashes the Config fields that shape engine state, so Restore
// can reject a checkpoint replayed under a different world. TraceConfig
// sizing is deliberately excluded (it bounds the recorder, not the
// simulation); trace on/off is included because byte-identical trace
// exports across a split require recording on both sides.
func cfgDigest(cfg Config) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d|%d|%s|%g|%s|%g|%d|%v|%s|%g|%v",
		cfg.Topology, cfg.Width, cfg.Height, cfg.LanesPerLink, cfg.Media,
		cfg.NodeSpacingM, cfg.SwitchMode, cfg.PowerCapW, cfg.Seed,
		cfg.Control.Enabled, cfg.Engine, cfg.SLOTargetX, cfg.Trace != nil)
	return h.Sum64()
}
