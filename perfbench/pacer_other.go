//go:build !linux

package main

import "time"

// pacer sleeps on Go timers where no timerfd exists; expect up to a
// millisecond of send lag from timer granularity.
type pacer struct{}

func newPacer() (*pacer, error) { return &pacer{}, nil }

// waitUntil returns at t (at once when t has passed).
func (p *pacer) waitUntil(t time.Time) error {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
	return nil
}

func (p *pacer) close() error { return nil }
