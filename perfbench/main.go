// Command perfbench is the repository's end-to-end benchmark. It starts
// the render service in-process on loopback — one serve worker, or a fleet
// gateway over two — on its default production configuration, replays a
// fixed seeded job list through it from a closed loop of two clients,
// verifies every frame, and prints one JSON result line last. With
// --trace 1 it instead reports per-layer numbers, measured from outside
// the program. README.md lists the metrics.
//
//	perfbench --workload orbit-png --seed 1 --seconds 12 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"sccpipe/internal/serve"
)

// tailQ is the percentile every _tail_ metric reports: the highest that
// keeps at least ten samples beyond it on every workload at the
// benchmark's run length (one sample per job; dwell-delta-fleet runs the
// fewest jobs, 108 in 12 seconds).
const tailQ = 0.90

// setupRuns is how many times a run sets the system up; setup_s is the
// median, so one slow set-up does not move it.
const setupRuns = 3

// maxMeasure caps the timed window so a run always ends in time, even on
// a program many times slower than the one the job counts were sized on.
const maxMeasure = 120 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	procStart := time.Now()
	name := flag.String("workload", "", "workload: orbit-png, dwell-delta-fleet or paper-sim")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 12, "nominal measured seconds; sets the job-list length")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d %s\n", *name, *seed, *seconds, *traced, machine())
	b := &bench{w: w, seed: *seed, seconds: *seconds, client: newClient(), clock: startStealClock()}
	var out output
	var err error
	if *traced == 1 {
		out, err = b.traced()
	} else {
		out, err = b.endToEnd(procStart)
	}
	b.client.CloseIdleConnections()
	b.clock.close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// bench is one run of one workload.
type bench struct {
	w       *workload
	seed    int64
	seconds int
	client  *http.Client
	clock   *stealClock
	// problems collects every correctness failure, for the report.
	problems []string
	ref      *reference
}

// reference builds the benchmark's own scene on first use, after the
// timed window.
func (b *bench) reference() *reference {
	if b.ref == nil {
		b.ref = newReference()
	}
	return b.ref
}

func (b *bench) jobs() (timed, warm []job) {
	n := int(math.Round(float64(b.seconds) * b.w.perSecond))
	return b.w.jobs(rand.New(rand.NewSource(b.seed)), max(n, 1))
}

func (b *bench) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.problems = append(b.problems, msg)
	fmt.Fprintf(os.Stderr, "perfbench: FAIL %s\n", msg)
}

// setUp starts the system and runs the warm-up jobs, one at a time.
func (b *bench) setUp(warm []job, tr *tracer) (*system, error) {
	sys, err := startSystem(b.w, tr)
	if err != nil {
		return nil, err
	}
	for _, j := range warm {
		if r := runJob(context.Background(), b.client, sys.url, j, b.w.delta); r.err != nil {
			sys.close()
			return nil, fmt.Errorf("warm-up job %+v: %w", j.spec, r.err)
		}
	}
	return sys, nil
}

// window is what one timed replay of the job list measured.
type window struct {
	results []result
	// wall is the window's length less the time stolen from the machine;
	// rawWall is its plain length.
	wall, rawWall time.Duration
	cpu           time.Duration
	alloc         uint64
	gc            [2]gcSample
	scrapes       counterDelta
}

// measure replays the job list against sys and takes the process and
// /metrics readings around it.
func (b *bench) measure(sys *system, timed []job) (*window, error) {
	win := &window{}
	var err error
	runtime.GC()
	if win.scrapes.before, err = sys.scrapeAll(b.client); err != nil {
		return nil, err
	}
	win.gc[0] = readGC()
	alloc0, cpu0 := totalAlloc(), cpuTime()
	start := time.Now()
	win.results = drive(context.Background(), b.client, sys.url, timed, b.w.delta, start.Add(maxMeasure))
	end := time.Now()
	win.rawWall, win.wall = end.Sub(start), b.clock.ran(start, end)
	win.cpu = cpuTime() - cpu0
	win.alloc = totalAlloc() - alloc0
	win.gc[1] = readGC()
	if win.scrapes.after, err = sys.scrapeAll(b.client); err != nil {
		return nil, err
	}
	return win, nil
}

// frames counts verified frames.
func (win *window) frames() int {
	n := 0
	for _, r := range win.results {
		if r.attempted && r.err == nil {
			n += r.frames
		}
	}
	return n
}

// hitFrac is the render cache's hit share over the window, from the
// workers' /metrics.
func (win *window) hitFrac() float64 {
	hits := win.scrapes.of("sccserve_cache_hits_total")
	return ratio(hits, hits+win.scrapes.of("sccserve_cache_misses_total"))
}

// check verifies the window: every job attempted and verified, sampled
// jobs identical to the reference, simulate replies identical to a direct
// core.Simulate, and the cache hit share inside the workload's bounds.
// It returns the attempted and failed job counts and the direct simulate
// runs (paper-sim only).
func (b *bench) check(timed []job, win *window) (attempted, failed int, sims map[simKey]*simCheck, builds []time.Duration) {
	bad := make([]bool, len(timed))
	for i, r := range win.results {
		if !r.attempted {
			b.fail("job %d not attempted within %v", i, maxMeasure)
			continue
		}
		attempted++
		if r.err != nil {
			bad[i] = true
			b.fail("job %d %+v: %v", i, timed[i].spec, r.err)
		}
	}
	ref := b.reference()
	for i, j := range timed {
		if !j.sample || bad[i] || !win.results[i].attempted {
			continue
		}
		if err := ref.checkRender(j, win.results[i], b.w.delta); err != nil {
			bad[i] = true
			b.fail("job %d %+v against core.ExecReference: %v", i, j.spec, err)
		}
	}
	var simJobs []job
	for _, j := range timed {
		if j.spec.Mode == serve.ModeSimulate {
			simJobs = append(simJobs, j)
		}
	}
	if len(simJobs) > 0 {
		sims, builds = ref.simulateAll(simJobs)
		for i, j := range timed {
			if j.spec.Mode != serve.ModeSimulate || bad[i] || !win.results[i].attempted {
				continue
			}
			if err := checkSim(sims[simSpec(j.spec)], win.results[i].sim); err != nil {
				bad[i] = true
				b.fail("job %d %+v: %v", i, j.spec, err)
			}
		}
	}
	for _, x := range bad {
		if x {
			failed++
		}
	}
	hit := win.hitFrac()
	fmt.Printf("perfbench: rcache.hit_frac=%.4f (valid range [%g, %g])\n", hit, b.w.hitMin, b.w.hitMax)
	if hit < b.w.hitMin || hit > b.w.hitMax {
		b.fail("rcache.hit_frac %.4f outside [%g, %g]: the workload no longer measures its layer", hit, b.w.hitMin, b.w.hitMax)
	}
	return attempted, failed, sims, builds
}

// endToEnd is the untraced run: set up several times, replay the job
// list once, check, and report the end-to-end metrics.
func (b *bench) endToEnd(procStart time.Time) (output, error) {
	timed, warm := b.jobs()
	var setups []float64
	var sys *system
	for k := 0; k < setupRuns; k++ {
		t0 := time.Now()
		if k == 0 {
			t0 = procStart
		}
		var err error
		if sys, err = b.setUp(warm, nil); err != nil {
			return output{}, err
		}
		setups = append(setups, b.clock.ran(t0, time.Now()).Seconds())
		if k < setupRuns-1 {
			sys.close()
			runtime.GC()
			debug.FreeOSMemory()
		}
	}
	win, err := b.measure(sys, timed)
	if err != nil {
		sys.close()
		return output{}, err
	}
	rss, err := peakRSSMB()
	sys.close()
	if err != nil {
		return output{}, err
	}
	attempted, failed, _, _ := b.check(timed, win)

	var lat, ttff, gaps []float64
	var wire int64
	for _, r := range win.results {
		if !r.attempted || r.err != nil {
			continue
		}
		l, t, g := b.jobTimes(r)
		lat, ttff, gaps = append(lat, l), append(ttff, t), append(gaps, g)
		wire += r.wire
	}
	frames := float64(win.frames())
	m := map[string]metric{
		"setup_s":              {median(setups), "s"},
		"frames_per_s":         {frames / win.wall.Seconds(), "1/s"},
		"job_latency_p50_ms":   {median(lat), "ms"},
		"job_latency_tail_ms":  {quantile(lat, tailQ), "ms"},
		"ttff_p50_ms":          {median(ttff), "ms"},
		"ttff_tail_ms":         {quantile(ttff, tailQ), "ms"},
		"frame_gap_p50_ms":     {median(gaps), "ms"},
		"frame_gap_tail_ms":    {quantile(gaps, tailQ), "ms"},
		"cpu_ms_per_frame":     {ratio(ms(win.cpu), frames), "ms"},
		"alloc_kb_per_frame":   {ratio(float64(win.alloc)/1024, frames), "KiB"},
		"peak_rss_mb":          {rss, "MiB"},
		"wire_bytes_per_frame": {ratio(float64(wire), frames), "B"},
	}
	fmt.Printf("perfbench: jobs=%d failed=%d failed_frac=%.4f frames=%.0f wall=%.3fs (stolen %.3fs) setups_s=%.3f samples=%d per metric (tail p%g)\n",
		attempted, failed, ratio(float64(failed), float64(attempted)), frames, win.rawWall.Seconds(), (win.rawWall - win.wall).Seconds(), setups,
		len(lat), tailQ*100)
	report(m)
	return output{Correct: len(b.problems) == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// jobTimes are the times a viewer sees for one job, in milliseconds, each
// less the time stolen from the machine while it ran: latency, time to
// first frame, and the stream's frame gap. The frame gap is the stream's
// mean gap between consecutive verified frames, its frame period;
// averaging within the stream keeps frames the client happens to read in
// one burst from splitting the samples into a read-time mode and a
// frame-period mode. A simulate reply delivers its whole walkthrough at
// once; its gap is the time per simulated frame.
func (b *bench) jobTimes(r result) (latency, ttff, gap float64) {
	latency = ms(b.clock.ran(r.send, r.send.Add(r.latency)))
	ttff = ms(b.clock.ran(r.send, r.send.Add(r.ttff)))
	if len(r.recv) < 2 {
		return latency, ttff, latency / float64(r.frames)
	}
	return latency, ttff, ms(b.clock.ran(r.recv[0], r.recv[len(r.recv)-1])) / float64(len(r.recv)-1)
}

// report prints one human-readable line per metric.
func report(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("perfbench:   %-34s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}
