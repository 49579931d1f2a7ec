package trace

import (
	"sync/atomic"
	"time"
)

// This file is the observability layer's only wall-clock touchpoint, and
// the determinism lint (make lint) pins it that way: every latency
// measurement in the repository flows through an injected Clock, so
// simulator internals never read real time directly and tests substitute a
// FakeClock to make span values exact. Nothing a Clock reads may ever feed
// a simulated result — latencies live in metrics and trace streams only.

// Clock is a monotonic time source: Now returns the elapsed duration since
// an arbitrary fixed epoch (process start for the wall implementation). Two
// reads subtract to a span length; absolute values are meaningless across
// processes.
type Clock interface {
	Now() time.Duration
}

// Now reads c, or returns 0 for a nil Clock: with no clock installed,
// latency spans are off and cost one nil compare.
func Now(c Clock) time.Duration {
	if c == nil {
		return 0
	}
	return c.Now()
}

// Observe records the span from start to now into h; a no-op for a nil
// Clock.
func Observe(c Clock, h *Histogram, start time.Duration) {
	if c == nil {
		return
	}
	h.ObserveDuration(c.Now() - start)
}

// wallClock reads the process monotonic clock. time.Since carries Go's
// monotonic reading, so spans are immune to wall-clock steps (NTP, DST).
type wallClock struct{ base time.Time }

// NewWallClock returns the real monotonic clock, epoch'd at construction.
func NewWallClock() Clock { return &wallClock{base: time.Now()} }

func (c *wallClock) Now() time.Duration { return time.Since(c.base) }

// FakeClock is the test implementation: a manually advanced monotonic
// clock, safe for concurrent use. The zero value starts at 0.
type FakeClock struct{ ns atomic.Int64 }

// Now returns the fake clock's current reading.
func (f *FakeClock) Now() time.Duration { return time.Duration(f.ns.Load()) }

// Advance moves the clock forward by d (negative d moves it back; tests
// only).
func (f *FakeClock) Advance(d time.Duration) { f.ns.Add(int64(d)) }
