package serve

import (
	"sync"
	"time"
)

// Clock maps between engine time (the float64 timeline every WCET,
// deadline and interarrival in this repo is expressed in) and the
// server's real schedule. The server never reads time.Now directly: all
// timing flows through the configured clock, which is what lets the
// differential test drive the identical code path deterministically.
type Clock interface {
	// Now returns the current engine time.
	Now() float64
	// Until returns the real duration to sleep before engine time t is
	// reached (non-positive when t has passed).
	Until(t float64) time.Duration
}

// WallClock is the production clock: engine time advances with wall time
// from the moment the clock is created, scaled by Speed. Speed 1 means
// one engine time unit per second; Speed 100 compresses a 500-unit trace
// into five real seconds — useful for demos, load tests and the
// race-enabled end-to-end suite, without touching any decision logic
// (the engine only ever sees engine time).
type WallClock struct {
	start time.Time
	speed float64
}

// NewWallClock builds a wall clock running at speed engine time units per
// real second (a speed that is not positive, NaN included, means 1).
func NewWallClock(speed float64) *WallClock {
	if !(speed > 0) {
		speed = 1
	}
	return &WallClock{start: time.Now(), speed: speed}
}

// Now returns the engine time elapsed since the clock was created.
func (c *WallClock) Now() float64 {
	return time.Since(c.start).Seconds() * c.speed
}

// Until returns the real duration until engine time t.
func (c *WallClock) Until(t float64) time.Duration {
	return time.Duration((t - c.Now()) / c.speed * float64(time.Second))
}

// ManualClock is a test clock: engine time moves only when the test sets
// it. A Server configured with a ManualClock runs in step mode — no
// dispatcher goroutine, and Shutdown drains in engine time via
// engine.Drain — so a request sequence replayed at exact trace arrival
// times is processed identically to a sim.Run of the same trace. This is
// the harness behind the sim/server differential test.
type ManualClock struct {
	mu  sync.Mutex
	now float64
}

// Now returns the manually set engine time.
func (c *ManualClock) Now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Set moves engine time to t; regressions are ignored (time is monotone).
func (c *ManualClock) Set(t float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.now {
		c.now = t
	}
}

// Until reports no real wait: step-mode servers never sleep on the clock.
func (c *ManualClock) Until(float64) time.Duration { return 0 }
