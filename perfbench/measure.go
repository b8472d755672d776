package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. The benchmark keeps its own statistics so that a change
// to the program's stats package cannot move the benchmark's numbers.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio divides, reading 0 when there is nothing to divide by (a layer
// idle on the workload).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cpuTime is the process's user+system CPU time (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only on a bad pointer
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// totalAlloc is runtime.MemStats.TotalAlloc: bytes allocated so far.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// peakRSSMB reads VmHWM (peak resident set) from /proc/self/status.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// gcSample holds the runtime/metrics readings the go-runtime layer
// metrics difference over the timed window.
type gcSample struct{ cycles, gcCPU, totalCPU, idleCPU float64 }

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return gcSample{cycles: val(0), gcCPU: val(1), totalCPU: val(2), idleCPU: val(3)}
}

// promSample maps a Prometheus sample key (name plus label set, as
// exposed) to its value.
type promSample map[string]float64

// scrape fetches and parses one /metrics exposition.
func scrape(client *http.Client, base string) (promSample, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", base, resp.StatusCode)
	}
	return parseExposition(resp.Body)
}

func parseExposition(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad sample %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum is the sample with exactly this key, or, when key names a family,
// the family's samples summed over their label sets.
func (p promSample) sum(key string) float64 {
	var s float64
	for k, v := range p {
		if k == key || strings.HasPrefix(k, key+"{") {
			s += v
		}
	}
	return s
}

// counterDelta differences /metrics snapshots taken before and after a
// window, summed over every scraped endpoint.
type counterDelta struct{ before, after []promSample }

// of is the change of one sample or family (see promSample.sum).
func (d counterDelta) of(key string) float64 {
	var s float64
	for _, p := range d.after {
		s += p.sum(key)
	}
	for _, p := range d.before {
		s -= p.sum(key)
	}
	return s
}

// stageBusy is the serve layer's per-stage busy counter for real runs.
func stageBusy(stage string) string {
	return `sccserve_stage_busy_seconds_total{backend="exec",stage="` + stage + `"}`
}

// machine describes the host for the run header.
func machine() string {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return fmt.Sprintf("cpu=%q nproc=%d GOMAXPROCS=%d go=%s", model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}
