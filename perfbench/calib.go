package main

import (
	"bytes"
	"compress/flate"
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"
)

// The benchmark runs on shared two-core virtual machines whose speed
// drifts by 10-30% over minutes as neighbours load the host: every
// instruction of the program, and of anything else, takes longer for a
// while. Ten runs in a row then spread by as much as that drift,
// whatever the program does. To take the drift out, a run calibrates
// before its first batch and after every batch with a fixed kernel: a
// small discrete-event simulation of its own plus JSON, compression,
// regexp and sorting from the standard library, so that like the program
// it has a hot loop and a wide code footprint and slows down under load
// roughly as the program does. The run's wall and CPU times, set-up
// included, are scaled
// by refCalib over the median calibration time, so they read as times on
// the reference host at its usual speed. The kernel is part of the
// benchmark, so a change to the program does not change it; the unscaled
// values go to metrics.tsv as raw.<metric>, the median calibration time
// as host.calib_ms.

// calibEvents and calibRounds size the kernel: discrete events, then
// rounds of standard-library work, per calibration goroutine.
const (
	calibEvents = 150_000
	calibRounds = 8
)

// refCalib is the calibration time on the reference host (a two-vCPU
// Xeon virtual machine at 2.0 GHz).
const refCalib = 90 * time.Millisecond

// speed collects a run's calibration times.
type speed struct {
	ms []float64
}

// newSpeed runs the kernel once untimed, so that the first calibration
// does not pay for growing the heap, then calibrates once.
func newSpeed() *speed {
	calibKernel()
	s := &speed{}
	s.calibrate()
	return s
}

// calibrate runs the kernel on the benchmark's two workers, from a
// collected heap, and records its wall time.
func (s *speed) calibrate() {
	runtime.GC()
	var wg sync.WaitGroup
	sums := make([]uint64, workers)
	t0 := time.Now()
	for w := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[w] = calibKernel()
		}()
	}
	wg.Wait()
	d := time.Since(t0)
	for _, v := range sums[1:] {
		if v != sums[0] {
			panic(fmt.Sprintf("calibration kernel is not deterministic: %d != %d", v, sums[0]))
		}
	}
	s.ms = append(s.ms, float64(d.Microseconds())/1000)
}

// setScaled reports setup_s, consensus_per_s, cpu_s and warm_study_ms
// from a run's samples: their medians scaled to the reference host, the
// unscaled medians as raw.<name>, and the median calibration time as
// host.calib_ms.
func (b *bench) setScaled(sp *speed, setups, rates, cpus, warm []float64) {
	cal := median(sp.ms)
	f := float64(refCalib.Milliseconds()) / cal // time on the reference host per time here
	b.set("setup_s", median(setups)*f)
	b.set("consensus_per_s", median(rates)/f)
	b.set("cpu_s", median(cpus)*f)
	b.set("warm_study_ms", median(warm)*f)
	b.set("raw.setup_s", median(setups))
	b.set("raw.consensus_per_s", median(rates))
	b.set("raw.cpu_s", median(cpus))
	b.set("raw.warm_study_ms", median(warm))
	b.set("host.calib_ms", cal)
}

// calibEvent is one pending event of the calibration kernel.
type calibEvent struct {
	t float64
	p int
}

// calibNode is the kernel's per-event garbage, as simulators allocate
// per event.
type calibNode struct {
	a, b uint64
	next *calibNode
}

// calibKernel is the calibration workload. It returns a checksum so the
// work cannot be optimised away.
func calibKernel() uint64 {
	return eventKernel(calibEvents) + libraryKernel(calibRounds)
}

// eventKernel is a discrete-event loop over a binary heap of 64K pending
// events with exponential delays, a marking updated per event, and a
// small allocation every 16 events.
func eventKernel(n int) uint64 {
	const size = 1 << 16
	heap := make([]calibEvent, 0, size)
	x := uint64(0x9e3779b97f4a7c15)
	uniform := func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return (float64(x>>11) + 0.5) / (1 << 53)
	}
	push := func(e calibEvent) {
		heap = append(heap, e)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if heap[p].t <= heap[i].t {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() calibEvent {
		e := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for i := 0; ; {
			l, r, m := 2*i+1, 2*i+2, i
			if l < len(heap) && heap[l].t < heap[m].t {
				m = l
			}
			if r < len(heap) && heap[r].t < heap[m].t {
				m = r
			}
			if m == i {
				break
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
		return e
	}
	for i := range size {
		push(calibEvent{uniform(), i})
	}
	var marking [256]int
	ring := make([]*calibNode, size)
	var acc uint64
	for i := range n {
		e := pop()
		marking[e.p&255]++
		if marking[(e.p+1)&255] > marking[e.p&255] {
			acc += uint64(e.p)
		}
		if i&15 == 0 {
			k := (i >> 4) % size
			ring[k] = &calibNode{a: x, b: acc, next: ring[(k+1)%size]}
		}
		push(calibEvent{e.t - math.Log(uniform())/(1+float64(e.p&7)), e.p*31 + 7})
	}
	return acc + uint64(marking[x&255])
}

// calibRecord is what libraryKernel encodes.
type calibRecord struct {
	Name string
	Vals []float64
	Tags map[string]int
}

var calibRe = regexp.MustCompile(`(\w+)@(\w+)\.(com|org)|p(\d+)q`)

// libraryKernel runs rounds of JSON encoding and decoding, flate
// compression, regexp matching and sorting on generated data.
func libraryKernel(rounds int) uint64 {
	x := uint64(0x2545f4914f6cdd1d)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	var sum uint64
	for range rounds {
		recs := make([]calibRecord, 200)
		for i := range recs {
			recs[i] = calibRecord{Name: strings.Repeat("n", i%13), Vals: []float64{float64(next() % 1000), float64(i)},
				Tags: map[string]int{"a": i, "b": int(next() % 7)}}
		}
		raw, err := json.Marshal(recs)
		if err != nil {
			panic(err)
		}
		var back []calibRecord
		if err := json.Unmarshal(raw, &back); err != nil {
			panic(err)
		}
		var buf bytes.Buffer
		w, err := flate.NewWriter(&buf, 5)
		if err != nil {
			panic(err)
		}
		_, _ = w.Write(raw)
		_ = w.Close()
		sum += uint64(len(back) + buf.Len() + len(calibRe.FindAllStringIndex(string(raw[:4096]), -1)))
		fs := make([]float64, 2000)
		for i := range fs {
			fs[i] = float64(next()%100000) / 7
		}
		slices.Sort(fs)
		sum += uint64(fs[len(fs)/2])
	}
	return sum
}
