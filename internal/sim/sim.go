// Package sim provides the deterministic discrete-event simulation engine
// that underpins the rack-scale fabric models.
//
// The paper evaluates its architecture inside OMNeT++, a discrete-event
// simulator. This package is the Go substitute: a future-event-list engine
// with a picosecond-resolution clock and seeded, splittable random number
// streams so that every run is reproducible from a single seed.
//
// Picosecond resolution is required because a single byte at 25.78125 Gb/s
// serializes in ~310 ps; nanoseconds would accumulate rounding error across
// the millions of frame events in a shuffle experiment.
package sim

import (
	"fmt"
	"math"
)

// Time is an absolute simulation timestamp in picoseconds since the start of
// the run. The zero Time is the beginning of the simulation.
type Time int64

// Duration is a span of simulated time in picoseconds.
type Duration int64

// Common durations. These mirror the time package so call sites read
// naturally, e.g. 10 * sim.Microsecond.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Forever is a Time later than any reachable simulation instant. It is used
// as a run limit meaning "no limit".
const Forever = Time(math.MaxInt64)

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t−u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// Duration returns the time since the zero instant as a Duration.
func (t Time) Duration() Duration { return Duration(t) }

// String renders the timestamp using the most natural unit.
func (t Time) String() string { return Duration(t).String() }

// Seconds returns the duration as seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Nanoseconds returns the duration as (possibly fractional) nanoseconds.
func (d Duration) Nanoseconds() float64 { return float64(d) / float64(Nanosecond) }

// Microseconds returns the duration as (possibly fractional) microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// String renders the duration using the most natural unit.
func (d Duration) String() string {
	neg := ""
	if d < 0 {
		neg = "-"
		d = -d
	}
	switch {
	case d < Nanosecond:
		return fmt.Sprintf("%s%dps", neg, int64(d))
	case d < Microsecond:
		return fmt.Sprintf("%s%.3gns", neg, float64(d)/float64(Nanosecond))
	case d < Millisecond:
		return fmt.Sprintf("%s%.4gus", neg, float64(d)/float64(Microsecond))
	case d < Second:
		return fmt.Sprintf("%s%.4gms", neg, float64(d)/float64(Millisecond))
	default:
		return fmt.Sprintf("%s%.6gs", neg, float64(d)/float64(Second))
	}
}

// Seconds converts a wall-clock quantity in seconds to a Duration, saturating
// instead of overflowing.
func Seconds(s float64) Duration {
	ps := math.Round(s * float64(Second))
	if ps >= float64(math.MaxInt64) {
		return Duration(math.MaxInt64)
	}
	if ps <= float64(math.MinInt64) {
		return Duration(math.MinInt64)
	}
	return Duration(ps)
}

// Transmission returns the serialization delay of bits at rate bits/second.
// It is the fundamental phy-layer time quantum: frame bits divided by lane
// bandwidth. Rates must be positive.
func Transmission(bits int64, rate float64) Duration {
	if rate <= 0 {
		panic("sim: Transmission rate must be positive")
	}
	return Seconds(float64(bits) / rate)
}
