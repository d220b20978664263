package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"time"

	"rackfab"
	"rackfab/internal/experiment"
)

// pass is one measured execution of a workload: set-up (host time until
// simulated time first advances), the timed run, what the checks found, and
// the digest of the simulated results.
type pass struct {
	setup, wall time.Duration
	alloc       uint64 // bytes allocated over set-up and run
	digest      string
	attempted   int64
	failed      int64
	rep         rackfab.Report
	jct         time.Duration // simulated, batch workloads only

	// service-soak only
	ticks        []time.Duration
	ckpt         time.Duration
	ckptBytes    int
	restore      time.Duration
	injected     int64
	retainedPeak int
}

func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// batchInput is a batch workload's generated inputs.
type batchInput struct {
	cfg    rackfab.Config
	specs  []rackfab.FlowSpec
	faults []rackfab.FaultSpec
}

// flowHash accumulates per-flow completion times, in input order, into the
// simulated-results digest. Unfinished or failed flows count as failures.
type flowHash struct {
	h                 hash.Hash
	attempted, failed int64
}

func newFlowHash() *flowHash { return &flowHash{h: sha256.New()} }

func (f *flowHash) add(src, dst int, done bool, fctNs int64) {
	f.attempted++
	if !done {
		f.failed++
		fctNs = -1
	}
	var b [24]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(src))
	binary.LittleEndian.PutUint64(b[8:], uint64(dst))
	binary.LittleEndian.PutUint64(b[16:], uint64(fctNs))
	f.h.Write(b[:])
}

func (f *flowHash) sum() string { return hex.EncodeToString(f.h.Sum(nil)[:8]) }

func digestString(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:8])
}

// setupBatch is a batch workload's set-up through the public API: New,
// Inject, ApplyFaults, and RunFor(0), which builds the route table (and on
// the fluid engine the solver session) without advancing simulated time.
func setupBatch(in *batchInput) (*rackfab.Cluster, []*rackfab.Flow, error) {
	c, err := rackfab.New(in.cfg)
	if err != nil {
		return nil, nil, err
	}
	flows, err := c.Inject(in.specs)
	if err != nil {
		return nil, nil, err
	}
	if len(in.faults) > 0 {
		if err := c.ApplyFaults(rackfab.NewFaultSchedule(in.faults...)); err != nil {
			return nil, nil, err
		}
	}
	return c, flows, c.RunFor(0)
}

// facadeBatch runs one batch cycle through the public API: set-up, then
// RunUntilDone as the timed run.
func facadeBatch(in *batchInput) (*pass, error) {
	a0 := allocBytes()
	t0 := hostNow()
	c, flows, err := setupBatch(in)
	if err != nil {
		return nil, err
	}
	t1 := hostNow()
	if err := c.RunUntilDone(simLimit); err != nil {
		return nil, err
	}
	p := &pass{setup: t1.Sub(t0), wall: hostSince(t1), alloc: allocBytes() - a0}
	fh := newFlowHash()
	for _, f := range flows {
		src, dst := f.Endpoints()
		fct, err := f.CompletionTime()
		fh.add(src, dst, err == nil && !f.Failed(), fct.Nanoseconds())
	}
	p.digest, p.attempted, p.failed = fh.sum(), fh.attempted, fh.failed
	p.rep = c.Report()
	if p.failed == 0 {
		if p.jct, err = rackfab.JobCompletionTime(flows); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// soakInput is service-soak's generated inputs.
type soakInput struct {
	cfg         rackfab.Config
	scfg        rackfab.ServeConfig
	warm, ticks int
}

// facadeServeSetup builds a serving cluster and runs its warm-up ticks.
func facadeServeSetup(in *soakInput) (*rackfab.Service, error) {
	c, err := rackfab.New(in.cfg)
	if err != nil {
		return nil, err
	}
	svc, err := c.Serve(in.scfg)
	if err != nil {
		return nil, err
	}
	for i := 0; i < in.warm; i++ {
		if err := svc.Tick(); err != nil {
			return nil, fmt.Errorf("warm-up tick %d: %w", i, err)
		}
	}
	return svc, nil
}

// facadeSoak sets the service up (the warm-up ticks included) and soaks it
// for in.ticks timed ticks. Every tick must succeed.
func facadeSoak(in *soakInput) (*rackfab.Service, *pass, error) {
	a0 := allocBytes()
	t0 := hostNow()
	svc, err := facadeServeSetup(in)
	if err != nil {
		return nil, nil, err
	}
	t1 := hostNow()
	p := &pass{setup: t1.Sub(t0), ticks: make([]time.Duration, in.ticks)}
	for i := range p.ticks {
		s := hostNow()
		if err := svc.Tick(); err != nil {
			return nil, nil, fmt.Errorf("tick %d: %w", i, err)
		}
		p.ticks[i] = hostSince(s)
	}
	p.wall = hostSince(t1)
	p.alloc = allocBytes() - a0
	p.attempted = int64(in.warm + in.ticks)
	p.digest = digestString(svc.Fingerprint())
	st := svc.Stats()
	p.injected, p.retainedPeak = st.Injected, st.RetainedPeak
	p.rep = svc.Cluster().Report()
	return svc, p, nil
}

// checkpointResume checkpoints the soaked service and resumes a copy, whose
// fingerprint must match the original's.
func checkpointResume(in *soakInput, svc *rackfab.Service, p *pass) error {
	t0 := hostNow()
	ck, err := svc.Checkpoint()
	if err != nil {
		return err
	}
	p.ckpt, p.ckptBytes = hostSince(t0), len(ck)
	t1 := hostNow()
	resumed, err := rackfab.ResumeService(in.cfg, in.scfg, ck)
	if err != nil {
		return err
	}
	p.restore = hostSince(t1)
	p.attempted++
	if digestString(resumed.Fingerprint()) != p.digest {
		p.failed++
	}
	return nil
}

// runSuite runs each experiment at Quick scale on one worker, checking that
// each returns a non-empty table. The digest covers every table's
// fingerprint (volatile wall-time columns masked).
func runSuite(ids []string, tr *tracer) (*pass, error) {
	p := &pass{}
	a0 := allocBytes()
	t0 := hostNow()
	h := sha256.New()
	for _, id := range ids {
		run, ok := experiment.Lookup(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
		sp := tr.begin("experiment." + id)
		tbl, err := run(experiment.Sequential(experiment.Quick))
		tr.end(sp)
		p.attempted++
		if err != nil || tbl == nil || len(tbl.Rows) == 0 {
			p.failed++
			fmt.Printf("check experiment %s: FAILED (err=%v)\n", id, err)
			continue
		}
		fmt.Fprintf(h, "%s\n%s\n", id, tbl.Fingerprint())
	}
	p.wall = hostSince(t0)
	p.alloc = allocBytes() - a0
	p.digest = hex.EncodeToString(h.Sum(nil)[:8])
	return p, nil
}
