package engine

import (
	"math"
	"strings"
	"testing"

	"predrm/internal/core"
	"predrm/internal/platform"
	"predrm/internal/rng"
	"predrm/internal/task"
	"predrm/internal/trace"
)

// TestActivateRejectsNonFiniteRequests: a request with a non-finite
// arrival or a NaN deadline fails its activation, naming the request,
// before any state changes.
func TestActivateRejectsNonFiniteRequests(t *testing.T) {
	set, err := task.Generate(platform.Default(), task.DefaultGenConfig(), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		req  trace.Request
		want string
	}{
		{"nan-arrival", trace.Request{Arrival: math.NaN(), Deadline: 10}, "request 0 has non-finite arrival"},
		{"inf-arrival", trace.Request{Arrival: math.Inf(1), Deadline: 10}, "request 0 has non-finite arrival"},
		{"nan-deadline", trace.Request{Arrival: 1, Deadline: math.NaN()}, "request 0 has non-positive deadline"},
	} {
		t.Run(c.name, func(t *testing.T) {
			e, err := New(Config{Platform: set.Platform, TaskSet: set, Solver: &core.Heuristic{}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Activate(0, c.req); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("got error %v, want %q", err, c.want)
			}
			if len(e.rec) != 0 || e.now != 0 {
				t.Fatalf("refused request changed state: %d records, clock %v", len(e.rec), e.now)
			}
		})
	}
}
