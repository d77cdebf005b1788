package main

import (
	"sync"
	"time"
)

// The reference host's CPU speed drifts by ±20% within minutes (other
// tenants share its cores and memory), which would bury a 10% change in a
// simulator layer. The benchmark therefore times a fixed calibration kernel
// after its set-up and after every pass or rate step, and reports host
// times at the reference host's speed: a measured time divided by the
// slowdown the kernel saw around it. The kernel is the benchmark's own
// code, so the program under test cannot change it, and it runs only while
// the program is idle. The report prints the raw figures and the slowdowns
// beside the normalised ones.

// calibIters is the kernel's length per worker: about 0.25 s on the
// reference host.
const calibIters = 36_000_000

// calibRefSeconds is the kernel's median wall time on the reference host
// (2 vCPUs, 2 workers).
const calibRefSeconds = 0.247

// calibSink keeps the kernel's result live, so the compiler cannot drop it.
var calibSink uint64

// hostSlowdown runs the calibration kernel on workers goroutines and
// returns its wall time over the reference host's: 1.2 means the host is
// 20% slower than the reference right now. Like the simulator's cache and
// core models, the kernel makes random accesses into a 256 KB table and
// takes data-dependent branches; of the kernels tried on the reference
// host, its time tracked the simulator's best.
func hostSlowdown(workers int) float64 {
	const words = 1 << 15
	start := time.Now()
	var wg sync.WaitGroup
	sums := make([]uint64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]uint64, words)
			x, s := uint64(w+1), uint64(0)
			for i := 0; i < calibIters; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				j := (x >> 40) & (words - 1)
				switch {
				case buf[j]&3 == 0:
					buf[j] += x >> 7
				case x&8 != 0:
					s += buf[j]
				default:
					s ^= x
				}
				buf[(j+1)&(words-1)]++
			}
			sums[w] = s
		}(w)
	}
	wg.Wait()
	for _, s := range sums {
		calibSink += s
	}
	return time.Since(start).Seconds() / calibRefSeconds
}

// slowdownAround is the host slowdown for a section measured between two
// calibrations.
func slowdownAround(before, after float64) float64 { return (before + after) / 2 }
