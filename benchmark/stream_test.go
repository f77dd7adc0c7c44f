package main

import (
	"slices"
	"testing"
)

// The op streams are the benchmark's only input: one seed must always
// give the same streams, and another seed different ones.
func TestStreamsFollowSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		units := 64 * w.threads
		a, b, c := w.streams(7, units), w.streams(7, units), w.streams(8, units)
		if len(a) != w.threads {
			t.Fatalf("%s: %d streams for %d threads", w.name, len(a), w.threads)
		}
		for th := range a {
			if len(a[th]) != units/w.threads*w.words {
				t.Errorf("%s thread %d: stream of %d words, want %d", w.name, th, len(a[th]), units/w.threads*w.words)
			}
			if !slices.Equal(a[th], b[th]) {
				t.Errorf("%s thread %d: two streams from seed 7 differ", w.name, th)
			}
			if slices.Equal(a[th], c[th]) {
				t.Errorf("%s thread %d: seeds 7 and 8 give the same stream", w.name, th)
			}
		}
		if w.threads == 2 && slices.Equal(a[0], a[1]) {
			t.Errorf("%s: both threads got the same stream", w.name)
		}
	}
}
