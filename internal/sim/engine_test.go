package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(0)
	t1 := t0.Add(450 * Nanosecond)
	if got := t1.Sub(t0); got != 450*Nanosecond {
		t.Fatalf("Sub = %v, want 450ns", got)
	}
	if !t0.Before(t1) || !t1.After(t0) {
		t.Fatalf("ordering broken: %v vs %v", t0, t1)
	}
	if s := (2 * Second).Seconds(); s != 2.0 {
		t.Fatalf("Seconds = %v, want 2", s)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500 * Picosecond, "500ps"},
		{450 * Nanosecond, "450ns"},
		{12 * Microsecond, "12us"},
		{3 * Millisecond, "3ms"},
		{2 * Second, "2s"},
		{-450 * Nanosecond, "-450ns"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestTransmission(t *testing.T) {
	// 1500 B at 100 Gb/s = 120 ns.
	d := Transmission(1500*8, 100e9)
	if d != 120*Nanosecond {
		t.Fatalf("Transmission(12000b, 100G) = %v, want 120ns", d)
	}
	// One byte at 25.78125G ≈ 310 ps — must not round to zero.
	if d := Transmission(8, 25.78125e9); d <= 0 {
		t.Fatalf("sub-ns transmission rounded to %v", d)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewSized(256)
	var order []int
	e.At(30*1000, "c", func() { order = append(order, 3) })
	e.At(10*1000, "a", func() { order = append(order, 1) })
	e.At(20*1000, "b", func() { order = append(order, 2) })
	// Same instant: FIFO by schedule order.
	e.At(20*1000, "b2", func() { order = append(order, 21) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 21, 3}
	if len(order) != len(want) {
		t.Fatalf("executed %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("executed %v, want %v", order, want)
		}
	}
	if e.Now() != Time(30*1000) {
		t.Fatalf("clock = %v, want 30ns", e.Now())
	}
}

func TestEngineAfterAndNesting(t *testing.T) {
	e := NewSized(256)
	var fired []Time
	e.After(10*Nanosecond, "outer", func() {
		fired = append(fired, e.Now())
		e.After(5*Nanosecond, "inner", func() {
			fired = append(fired, e.Now())
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != Time(10*Nanosecond) || fired[1] != Time(15*Nanosecond) {
		t.Fatalf("fired at %v", fired)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewSized(256)
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(Time(i)*Time(Microsecond), "tick", func() { count++ })
	}
	if err := e.RunUntil(Time(5 * Microsecond)); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if e.Now() != Time(5*Microsecond) {
		t.Fatalf("clock = %v", e.Now())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
}

func TestStop(t *testing.T) {
	e := NewSized(256)
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(Time(i), "tick", func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	if err := e.Run(); err != ErrStopped {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewSized(256)
	e.At(10*Time(Nanosecond), "x", func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.At(5*Time(Nanosecond), "past", func() {})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// Property: events always execute in nondecreasing time order regardless of
// insertion order, and equal timestamps preserve insertion order.
func TestHeapOrderingProperty(t *testing.T) {
	f := func(times []uint16) bool {
		if len(times) > 200 {
			times = times[:200]
		}
		e := NewSized(256)
		var executed []Time
		for _, v := range times {
			e.At(Time(v)*Time(Nanosecond), "t", func() {
				executed = append(executed, e.Now())
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		if len(executed) != len(times) {
			return false
		}
		return sort.SliceIsSorted(executed, func(i, j int) bool { return executed[i] < executed[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestClockOnlyMovesForward: a RunUntil limit behind the clock, with later
// events pending, runs nothing and leaves the clock where it was.
func TestClockOnlyMovesForward(t *testing.T) {
	e := NewSized(256)
	fired := 0
	e.At(Time(200*Microsecond), "later", func() { fired++ })
	if err := e.RunUntil(Time(100 * Microsecond)); err != nil {
		t.Fatal(err)
	}
	for _, limit := range []Time{Time(50 * Microsecond), Time(60 * Microsecond), 0} {
		if err := e.RunUntil(limit); err != nil {
			t.Fatal(err)
		}
		if e.Now() != Time(100*Microsecond) || fired != 0 {
			t.Fatalf("RunUntil(%v) after RunUntil(100us): clock %v, fired %d; want 100us, 0", limit, e.Now(), fired)
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != Time(200*Microsecond) || fired != 1 {
		t.Fatalf("Run: clock %v, fired %d; want 200us, 1", e.Now(), fired)
	}
}
