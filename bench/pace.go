package main

import (
	"encoding/json"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The reference box is a 2-vCPU virtual machine on a shared host, and the
// host decides how fast it runs: for seconds, minutes or an afternoon at a
// time every program on it, this one included, runs 10-25 % slower, then
// fast again (see README, Why times are paced). No run length the driver
// allows averages that out, so the benchmark measures it and takes it out: a
// pacer runs a small fixed kernel every few milliseconds throughout the
// measured phase, and every time and rate the run reports is scaled by how
// long the kernel took over the same seconds, relative to what it takes on
// the reference box left alone.

const (
	// refKernelUs is the kernel's median time on the reference box when the
	// host leaves it alone and the benchmark is serving: pace 1.
	refKernelUs = 25.0
	// paceEvery is the pause between two runs of the kernel: a hundred runs
	// to a one-second slice, for a third of a percent of one core.
	paceEvery = 10 * time.Millisecond
	// minPaceRuns is the least a pace is the median of.
	minPaceRuns = 5
	// A run of the kernel is kernelWarm untimed passes, then kernelTimed
	// timed ones.
	kernelWarm, kernelTimed = 4, 16
)

var kernelDoc = []byte(`{"sql":"SELECT COUNT(*) FROM title t, movie_info mi, cast_info ci, name n WHERE t.id = mi.movie_id AND t.id = ci.movie_id AND ci.person_id = n.id AND t.production_year > 1990 AND n.gender = 'f'","tenant":"bench","timeout_ms":250}`)

// kernelPass is a fixed piece of the byte-pushing a server does: validate a
// request body, format a string and two numbers, hash the body. It allocates
// nothing and calls nothing of this repository's, so what the program under
// test does to its heap does not reach it.
func kernelPass(buf []byte, h uint32) uint32 {
	if !json.Valid(kernelDoc) {
		h++
	}
	b := strconv.AppendQuote(buf[:0], "SELECT COUNT(*) FROM title t, movie_info mi WHERE t.id = mi.movie_id")
	b = strconv.AppendFloat(b, 123.456+float64(h%16), 'g', -1, 64)
	b = strconv.AppendInt(b, int64(h%16)*7919, 10)
	for _, c := range kernelDoc {
		h = (h ^ uint32(c)) * 16777619
	}
	return h + uint32(len(b))
}

// refKernel returns the time of kernelTimed passes, in microseconds, after
// kernelWarm untimed ones: whatever the program did to the caches since the
// last run is paid for before the clock starts, so that only the speed of the
// box is timed.
func refKernel(buf []byte, h *uint32) float64 {
	for i := 0; i < kernelWarm; i++ {
		*h = kernelPass(buf, *h)
	}
	start := time.Now()
	for i := 0; i < kernelTimed; i++ {
		*h = kernelPass(buf, *h)
	}
	return float64(time.Since(start)) / float64(time.Microsecond)
}

// pacer times refKernel every paceEvery until closed.
type pacer struct {
	mu   sync.Mutex
	at   []time.Time // ascending
	us   []float64
	sink uint32
	stop chan struct{}
	done chan struct{}
}

func startPacer() *pacer {
	p := &pacer{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(paceEvery)
		defer tick.Stop()
		buf := make([]byte, 0, 256)
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
			at := time.Now()
			us := refKernel(buf, &p.sink)
			p.mu.Lock()
			p.at, p.us = append(p.at, at), append(p.us, us)
			p.mu.Unlock()
		}
	}()
	return p
}

func (p *pacer) close() {
	close(p.stop)
	<-p.done
}

// pace says how slow the box was between from and to: the median time of the
// kernel's runs in the interval ÷ refKernelUs. A time measured in the interval
// is divided by it, a rate multiplied. An interval with fewer than
// minPaceRuns runs takes the pace of everything recorded so far.
func (p *pacer) pace(from, to time.Time) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	lo := sort.Search(len(p.at), func(i int) bool { return !p.at[i].Before(from) })
	hi := sort.Search(len(p.at), func(i int) bool { return p.at[i].After(to) })
	if hi-lo < minPaceRuns {
		lo, hi = 0, len(p.at)
	}
	if hi == lo {
		return 1
	}
	return median(p.us[lo:hi]) / refKernelUs
}
