package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// chunkLen is the number of samples per storage chunk. Chunks keep the
// sample store from reallocating (and copying) inside a timed phase: one
// allocation per chunkLen samples is noise against the engine's own
// allocations per activation.
const chunkLen = 1 << 16

// samples is an append-only store of durations in seconds. A failed
// operation is recorded as +Inf, so it counts as missing every latency
// limit.
type samples struct {
	chunks [][]float64
	n      int
}

func (s *samples) add(v float64) {
	i := s.n / chunkLen
	if i == len(s.chunks) {
		s.chunks = append(s.chunks, make([]float64, 0, chunkLen))
	}
	s.chunks[i] = append(s.chunks[i], v)
	s.n++
}

// reset empties the store, keeping its chunks for reuse.
func (s *samples) reset() {
	for i := range s.chunks {
		s.chunks[i] = s.chunks[i][:0]
	}
	s.n = 0
}

func (s *samples) addDur(d time.Duration) { s.add(d.Seconds()) }

// bytes is the heap the store itself holds, so heap readings can leave
// the benchmark's own bookkeeping out.
func (s *samples) bytes() uint64 { return uint64(len(s.chunks)) * chunkLen * 8 }

func (s *samples) values() []float64 {
	out := make([]float64, 0, s.n)
	for _, c := range s.chunks {
		out = append(out, c...)
	}
	return out
}

func (s *samples) sum() float64 {
	t := 0.0
	for _, c := range s.chunks {
		for _, v := range c {
			t += v
		}
	}
	return t
}

// quantiles returns the requested quantiles (nearest rank on the sorted
// samples), or zeros for an empty store.
func (s *samples) quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if s.n == 0 {
		return out
	}
	v := s.values()
	sort.Float64s(v)
	for i, q := range qs {
		out[i] = quantileSorted(v, q)
	}
	return out
}

func quantileSorted(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(v)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(v) {
		k = len(v) - 1
	}
	return v[k]
}

func median(v []float64) float64 {
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	n := len(c)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// liveHeap collects garbage and returns the bytes of heap objects still
// in use, less own bytes the benchmark's bookkeeping holds. Taken at the
// same point of every run, it reads the same live state whatever the
// collector's timing was.
func liveHeap(own uint64) uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if m.HeapAlloc < own {
		return 0
	}
	return m.HeapAlloc - own
}

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }

// allocMeter reports heap allocations over a span of code from
// runtime.MemStats (one stop-the-world read at each end).
type allocMeter struct{ mallocs, bytes uint64 }

func startAllocs() allocMeter {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocMeter{m.Mallocs, m.TotalAlloc}
}

// since returns the allocations and allocated bytes since the meter
// started.
func (a allocMeter) since() (mallocs, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs - a.mallocs, m.TotalAlloc - a.bytes
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
