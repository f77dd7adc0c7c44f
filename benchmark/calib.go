package main

import (
	"sync/atomic"
	"time"
)

// The calibration kernel times the host, not the program: it imports
// nothing from the repo. The host this runs on has disturbed periods,
// lasting from a second to minutes, in which the program loses up to a
// third of its speed; the kernel, which does nothing but wait for memory,
// loses speed in the same periods. It runs after every slice of every
// round, and the speed it shows in the quiet part of a pass, against its
// nominal speed, is the pass's host factor. (A kernel that keeps the core
// busy from the first-level cache was tried beside it: its quiet speed
// never moved, so it carried no information.)
//
// FROZEN: the kernel, its sizes and its nominal speed define the unit of
// every time-valued end-to-end metric. Changing any of them rebaselines
// every recorded number.
const (
	calibWords = 4 << 20 // 32 MiB of uint64: well beyond the caches near the core
	// calibNominal is the kernel's quiet speed, in steps per second, on
	// the host the first baseline was taken on (2 vCPUs, go1.24.0
	// linux/amd64).
	calibNominal = 6.8e6
)

// calibSteps is the length of one sample: about 4 ms on the baseline
// host. It is a variable only so that the smoke test can shrink it.
var calibSteps = 30000

var (
	calibRing []uint64
	calibPos  uint64
	calibSink atomic.Uint64
)

// calibInit builds the ring: element i holds the index of the next
// element of a full-cycle linear congruential sequence, so every load
// depends on the one before it and lands on an unpredictable line.
func calibInit() {
	calibRing = make([]uint64, calibWords)
	for i := range calibRing {
		// a ≡ 1 (mod 4) and c odd give a cycle over all of 2^22.
		calibRing[i] = (uint64(i)*1664525 + 1013904223) & (calibWords - 1)
	}
}

// calibrate runs the kernel once and returns its speed in steps/s:
// dependent loads that each miss every cache, with one atomic add per step.
func calibrate() float64 {
	i := calibPos
	t0 := time.Now()
	for n := 0; n < calibSteps; n++ {
		i = calibRing[i]
		calibSink.Add(1)
	}
	d := time.Since(t0)
	calibPos = i
	return float64(calibSteps) / d.Seconds()
}
