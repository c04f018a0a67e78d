package main

import (
	"math"
	"runtime"
	"time"
)

// The engine workloads report their CPU times scaled to a reference host
// speed. Other tenants of a shared host slow this benchmark by up to 1.6×
// for tens of seconds at a time. On a shared 2-vCPU Xeon, over five
// 15-second runs, the mean time of each 256 consecutive rendezvous-party
// games had a coefficient of variation of 14%, and the mean of their
// times scaled by the kernel below one of 4%. The kernel is the benchmark's own code, so a change to the program
// moves the scaled times as much as the raw ones.
const (
	// calibRef is about the kernel's CPU time on that host when uncontended.
	calibRef = 600 * time.Microsecond
	// calibEvery is the engine CPU time between two kernel samples.
	calibEvery = 25 * time.Millisecond
	// calibIters sizes one kernel run.
	calibIters = 20000
)

type shape interface{ area() float64 }

type square struct{ side float64 }

type disc struct{ r float64 }

func (s square) area() float64 { return s.side * s.side }
func (d disc) area() float64   { return d.r * d.r * math.Pi }

// The kernel allocates nothing and stores no pointers to the heap, and
// it is timed by its own thread's CPU clock. The engines' garbage, and the
// collector's work and write barriers, therefore do not slow it; if they
// did, a change that allocates more would shrink the scaled engine times
// a second time.
var (
	calibCounts = make(map[uint64]int, 4096)
	calibBoxed  [32]shape // 16 squares, then 16 discs, boxed once
	calibSink   float64
)

func init() {
	for i := 0; i < 16; i++ {
		calibBoxed[i] = square{float64(i)}
		calibBoxed[16+i] = disc{float64(i)}
	}
}

// calibrate runs the kernel once and returns the CPU time its thread
// spent in it. Like the engines, the kernel mixes hashing and dynamic
// dispatch; a tight arithmetic loop tracked the engines' slowdowns four
// times worse.
func calibrate() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPU()
	clear(calibCounts)
	var shapes [64]shape
	n := 0
	x := uint64(88172645463325252)
	total := 0.0
	for i := 0; i < calibIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		calibCounts[x&4095]++
		shapes[n] = calibBoxed[x&31]
		if n++; n == len(shapes) {
			for _, s := range shapes {
				total += s.area()
			}
			n = 0
		}
	}
	calibSink += total + float64(len(calibCounts))
	return threadCPU() - start
}

// hostSpeed follows the kernel's recent CPU time with an exponentially
// weighted mean, sampled every calibEvery of engine CPU time.
type hostSpeed struct {
	kernel float64 // ns
	since  time.Duration
}

func newHostSpeed() *hostSpeed {
	xs := make([]float64, 5)
	for i := range xs {
		xs[i] = float64(calibrate())
	}
	return &hostSpeed{kernel: quantile(xs, 0.5)}
}

// scale converts an engine CPU time just measured to reference-host time.
func (h *hostSpeed) scale(d time.Duration) time.Duration {
	h.since += d
	if h.since >= calibEvery {
		h.kernel += 0.25 * (float64(calibrate()) - h.kernel)
		h.since = 0
	}
	return time.Duration(float64(d) / h.slowdown())
}

// slowdown is the kernel's current CPU time relative to calibRef.
func (h *hostSpeed) slowdown() float64 { return h.kernel / float64(calibRef) }
