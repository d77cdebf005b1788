package main

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stallServer answers every request at once, except that the request with
// index stallAt holds the server for stall: a fake handler that stalls
// once, blocking everything behind it.
func stallServer(stallAt int64, stall time.Duration) (*httptest.Server, *atomic.Int64) {
	var mu sync.Mutex
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if n.Add(1)-1 == stallAt {
			time.Sleep(stall)
		}
	}))
	return srv, &n
}

func get(c *http.Client, url string) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	return resp.Body.Close()
}

func TestOpenLoopChargesStallToRequestsDueAfterIt(t *testing.T) {
	const stall = 300 * time.Millisecond
	srv, _ := stallServer(5, stall)
	defer srv.Close()
	c := loadClient(2)
	offsets := fixedRate(100, 40) // one request every 10 ms
	out := openLoop(context.Background(), time.Now(), offsets, 2, func(_ context.Context, _ int) error {
		return get(c, srv.URL)
	})
	for i, s := range out {
		if s.err != nil {
			t.Fatalf("request %d: %v", i, s.err)
		}
	}
	// Request 10 is due 50 ms into the stall that began with request 5:
	// timed from its due time it waited for most of the stall, although
	// it was sent only once a worker came free.
	s := out[10]
	if s.latency() < stall-100*time.Millisecond {
		t.Errorf("request due during the stall: latency %v, want at least %v", s.latency(), stall-100*time.Millisecond)
	}
	if sent := s.end.Sub(s.start); sent >= s.latency() {
		t.Errorf("latency from the send (%v) should be below latency from the due time (%v)", sent, s.latency())
	}
	if s.lag() < stall/2 {
		t.Errorf("generator lag for a request due during the stall = %v, want the stall to show", s.lag())
	}
	// Requests due well after the stall are fast again.
	if last := out[len(out)-1]; last.latency() > 100*time.Millisecond {
		t.Errorf("last request latency %v: the generator did not catch up after the stall", last.latency())
	}
	lags := make([]float64, len(out))
	for i, s := range out {
		lags[i] = float64(s.lag()) / float64(time.Millisecond)
	}
	if p99, _ := percentile(lags, 99); p99 < float64(stall/2)/float64(time.Millisecond) {
		t.Errorf("lag p99 = %.1f ms, want the stall reported", p99)
	}
}

func TestOpenLoopHoldsAtMostConnsConnections(t *testing.T) {
	const conns = 2
	var open, inFlight, maxInFlight atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := inFlight.Add(1)
		for {
			m := maxInFlight.Load()
			if n <= m || maxInFlight.CompareAndSwap(m, n) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
		inFlight.Add(-1)
	}))
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			open.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	c := loadClient(conns)
	// 1000 requests/s against a 5 ms handler: far more than two
	// connections could serve, so a per-request goroutine would open many.
	out := openLoop(context.Background(), time.Now(), fixedRate(1000, 60), conns, func(_ context.Context, _ int) error {
		return get(c, srv.URL)
	})
	for i, s := range out {
		if s.err != nil {
			t.Fatalf("request %d: %v", i, s.err)
		}
	}
	if n := open.Load(); n > conns {
		t.Errorf("opened %d connections, want at most %d", n, conns)
	}
	if n := maxInFlight.Load(); n > conns {
		t.Errorf("%d requests in flight at once, want at most %d", n, conns)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted input
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 1}, {1, 1}, {50, 50}, {50.5, 51}, {90, 90}, {99, 99}, {100, 100}} {
		if got, ok := percentile(xs, c.p); !ok || got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of no samples reported a value")
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n             int
		value, pctile float64
	}{
		{1000, 990, 99}, // p99 has exactly 10 samples beyond it
		{100, 90, 90},
		{200, 190, 95},
		{11, 1, 100.0 / 11},
		{5, 5, 100}, // too few: the maximum
	} {
		v, p := tailPercentile(seq(c.n))
		if v != c.value || p != c.pctile {
			t.Errorf("tailPercentile(1..%d) = %v at p%v, want %v at p%v", c.n, v, p, c.value, c.pctile)
		}
		if c.n > tailBeyond {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < tailBeyond {
				t.Errorf("n=%d: %d samples beyond the tail, want at least %d", c.n, beyond, tailBeyond)
			}
		}
	}
}
