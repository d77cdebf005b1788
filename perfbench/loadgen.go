package main

import (
	"context"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one open-loop operation. Latency is measured from the moment
// the operation was due, not from when a worker got round to sending it,
// so a stall is charged to every operation it delayed.
type sample struct {
	due, start, end time.Time
	err             error
}

func (s sample) latency() time.Duration { return s.end.Sub(s.due) }

// lag is how late the generator itself started the operation.
func (s sample) lag() time.Duration { return s.start.Sub(s.due) }

// openLoop runs one operation per entry of offsets, the i-th due at
// t0+offsets[i] (offsets ascending), whatever happened to the earlier ones.
// At most conns operations are outstanding at once: when all conns
// workers are busy, due operations wait and their lag grows. do receives the
// operation's index.
func openLoop(ctx context.Context, t0 time.Time, offsets []time.Duration, conns int, do func(ctx context.Context, i int) error) []sample {
	out := make([]sample, len(offsets))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(offsets) || ctx.Err() != nil {
					return
				}
				due := t0.Add(offsets[i])
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				s := sample{due: due, start: time.Now()}
				s.err = do(ctx, i)
				s.end = time.Now()
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out
}

// fixedRate returns the offsets of n operations at rate per second.
func fixedRate(rate float64, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return out
}

// loadClient is an HTTP client holding at most conns connections to a
// host, so the generator's concurrency is bounded by construction.
func loadClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
	}}
}

// percentile is the nearest-rank p-th percentile of xs (0 < p ≤ 100): the
// smallest sample with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1], true
}

// tailBeyond is how many samples must lie beyond a reported tail.
const tailBeyond = 10

// tailPercentile reports the highest nearest-rank percentile that has at
// least tailBeyond samples beyond it, with that percentile: p99 needs 1000
// samples, p90 needs 100. Below tailBeyond+1 samples it reports the maximum.
func tailPercentile(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n <= tailBeyond {
		return s[n-1], 100
	}
	rank := n - tailBeyond
	return s[rank-1], 100 * float64(rank) / float64(n)
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
