package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// stealClock samples the CPU time the hypervisor stole from this virtual
// machine (the "steal" column of /proc/stat, summed over vCPUs), so that
// an interval can be charged only for the time the machine actually ran.
// On a shared host a neighbour can take the vCPUs away for seconds; that
// time says nothing about the program. Without steal accounting (bare
// metal, or no /proc/stat) every interval is charged in full.
type stealClock struct {
	mu  sync.Mutex
	at  []time.Time
	cum []float64 // stolen seconds per vCPU since the first sample

	stop chan struct{}
	done chan struct{}
}

// stealPeriod is the sampling period; /proc/stat counts in 10 ms ticks.
const stealPeriod = 20 * time.Millisecond

func startStealClock() *stealClock {
	c := &stealClock{stop: make(chan struct{}), done: make(chan struct{})}
	base, ok := readSteal()
	c.sample(base, ok)
	go func() {
		defer close(c.done)
		t := time.NewTicker(stealPeriod)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.sample(base, true)
			}
		}
	}()
	return c
}

func (c *stealClock) sample(base float64, ok bool) {
	v, readOK := readSteal()
	stolen := 0.0
	if ok && readOK {
		stolen = (v - base) / float64(runtime.NumCPU())
	}
	c.mu.Lock()
	c.at = append(c.at, time.Now())
	c.cum = append(c.cum, stolen)
	c.mu.Unlock()
}

// close stops sampling and waits for the sampler to exit.
func (c *stealClock) close() {
	close(c.stop)
	<-c.done
}

// stolenBy interpolates the stolen seconds per vCPU up to t.
func (c *stealClock) stolenBy(t time.Time) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := sort.Search(len(c.at), func(i int) bool { return c.at[i].After(t) })
	switch {
	case i == 0:
		return 0
	case i == len(c.at):
		return c.cum[i-1]
	}
	t0, t1 := c.at[i-1], c.at[i]
	f := float64(t.Sub(t0)) / float64(t1.Sub(t0))
	return c.cum[i-1] + f*(c.cum[i]-c.cum[i-1])
}

// ran is the part of [t0, t1] the machine was not stolen from.
func (c *stealClock) ran(t0, t1 time.Time) time.Duration {
	d := t1.Sub(t0) - time.Duration((c.stolenBy(t1)-c.stolenBy(t0))*float64(time.Second))
	if d < 0 {
		return 0
	}
	return d
}

// readSteal returns the machine's total stolen seconds, summed over CPUs.
func readSteal() (float64, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0, false
	}
	return ticks / 100, true // USER_HZ
}
