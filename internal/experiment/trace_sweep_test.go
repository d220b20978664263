package experiment

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"rackfab"
)

// TestSweepTraceSetByteIdenticalAcrossWorkers is the -trace half of the
// sweep determinism contract: a TraceSet fed from parallel workers must
// export the same bytes as one fed sequentially. Each trial owns its
// cluster and recorder; the set only orders sections by name, so worker
// interleaving has nothing to bite on.
func TestSweepTraceSetByteIdenticalAcrossWorkers(t *testing.T) {
	render := func(parallel int) string {
		ts := rackfab.NewTraceSet()
		trials := make([]Trial[int], 4)
		for i := range trials {
			name := fmt.Sprintf("trial-%d", i)
			seed := int64(i + 1)
			trials[i] = Trial[int]{Name: name, Run: func() (int, error) {
				c, err := rackfab.New(rackfab.Config{
					Topology: rackfab.Grid, Width: 4, Height: 4,
					Seed: seed, Trace: true,
				})
				if err != nil {
					return 0, err
				}
				if _, err := c.Inject(rackfab.IncastTraffic(c, 5, 8, 16<<10)); err != nil {
					return 0, err
				}
				if err := c.RunUntilDone(10 * time.Second); err != nil {
					return 0, err
				}
				ts.Add(name, c.Trace())
				return 0, nil
			}}
		}
		if _, err := Sweep(Config{Scale: Quick, Parallel: parallel}, trials); err != nil {
			t.Fatal(err)
		}
		var txt bytes.Buffer
		if err := ts.WriteText(&txt); err != nil {
			t.Fatal(err)
		}
		return txt.String()
	}
	sequential := render(1)
	parallel := render(4)
	if sequential != parallel {
		t.Fatal("TraceSet text export differs between -parallel 1 and 4")
	}
}
