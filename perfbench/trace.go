package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one call the benchmark made into the program, recorded from the
// benchmark's side of the boundary (the program itself is not
// instrumented).
type span struct {
	Name   string    `json:"name"`
	Parent string    `json:"parent,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Attr   string    `json:"attr,omitempty"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// write stores the spans as JSON lines, oldest first.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	sort.Slice(l.spans, func(a, b int) bool { return l.spans[a].Start.Before(l.spans[b].Start) })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

const internalPrefix = "spb/internal/"

// attributeProfile reads CPU profiles with `go tool pprof -top` and
// reports each spb/internal package's share of the sampled self time,
// rest.self_share for everything else (so the shares sum to 1),
// memsys.dir.self_share for the directory table, and runtime.gc_share for
// the garbage collector's cumulative time.
func attributeProfile(paths []string, rep *report) error {
	args := append([]string{"tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0"}, paths...)
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return fmt.Errorf("go tool pprof %s: %w", filepath.Base(paths[0]), err)
	}
	flat := map[string]float64{}
	var total, dir, gc float64
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		// flat flat% sum% cum cum% name...
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") || !strings.HasSuffix(f[4], "%") {
			continue
		}
		self, err1 := parseSeconds(f[0])
		cum, err2 := parseSeconds(f[3])
		if err1 != nil || err2 != nil {
			continue
		}
		name := strings.Join(f[5:], " ")
		total += self
		pkg := "rest"
		if strings.HasPrefix(name, internalPrefix) {
			p := name[len(internalPrefix):]
			if i := strings.IndexAny(p, "./"); i > 0 {
				p = p[:i]
			}
			pkg = p
		}
		flat[pkg] += self
		if strings.HasPrefix(name, internalPrefix+"memsys.(*dirTable)") || strings.HasPrefix(name, internalPrefix+"memsys.dirTable") {
			dir += self
		}
		if name == "runtime.gcBgMarkWorker" || name == "runtime.gcAssistAlloc" {
			gc += cum
		}
	}
	if total == 0 {
		return fmt.Errorf("CPU profile %s holds no samples", filepath.Base(paths[0]))
	}
	var known float64
	for _, p := range packages {
		rep.set(p+".self_share", flat[p]/total)
		known += flat[p]
	}
	rep.set("rest.self_share", (total-known)/total)
	rep.set("memsys.dir.self_share", dir/total)
	rep.set("runtime.gc_share", gc/total)
	rep.infof("CPU profile (%d file(s), %s...): %.2f s of samples attributed to %d packages plus the rest", len(paths), filepath.Base(paths[0]), total, len(packages))
	return nil
}

// parseSeconds reads a pprof duration such as "1.25s", "340ms" or "0".
func parseSeconds(s string) (float64, error) {
	for _, u := range []struct {
		suffix string
		scale  float64
	}{{"ms", 1e-3}, {"us", 1e-6}, {"µs", 1e-6}, {"ns", 1e-9}, {"hrs", 3600}, {"min", 60}, {"s", 1}} {
		if strings.HasSuffix(s, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			return v * u.scale, err
		}
	}
	return strconv.ParseFloat(s, 64)
}
