package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"ctsan/campaign"
	"ctsan/internal/server"
)

// setupReps is how many times a library run repeats its set-up; setup_s
// reports the median.
const setupReps = 5

// warmPerBatch is how many warm_study_ms samples a library run takes
// after each batch. A cache-served library study takes milliseconds and
// varies with when the collector runs, so each sample is the mean of
// warmPerSample back-to-back runs.
const (
	warmPerBatch  = 2
	warmPerSample = 5
)

// runLibrarySweeps is the library tier: the generated study goes
// through campaign.Run on two workers, batch after batch, until the
// timed phase is over, and after each batch it is run fully
// cache-served. Every output must equal a serial (one-worker) reference
// run byte for byte.
func runLibrarySweeps(ctx context.Context, b *bench) error {
	spec, err := campaign.EncodeStudy(libraryStudy(b.seed, b.scale))
	if err != nil {
		return err
	}
	var study *campaign.Study
	var setups []float64
	for range setupReps {
		t0 := time.Now()
		study, err = librarySetup(ctx, spec)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	want, results, err := reference(ctx, study, 1)
	if err != nil {
		return err
	}
	for _, p := range groundTruth(study, results) {
		b.fail("ground truth: %s", p)
	}
	cache, err := warmCache(study, results)
	if err != nil {
		return err
	}

	// Times and rates are scaled to the reference host by calibration
	// runs between the batches (calib.go).
	// peak_rss_mb is the median over batches of this process's peak
	// during each, the library running in process.
	var walls, rates, cpus, warm, peaks []float64
	perBatch := instances(results)
	sp := newSpeed()
	end := time.Now().Add(b.seconds)
	for len(walls) == 0 || (time.Now().Before(end) && !b.traced) {
		var buf bytes.Buffer
		runtime.GC() // every batch starts from the same heap state
		if err := b.resetPeak(); err != nil {
			return err
		}
		c0, t0 := cpuTime(), time.Now()
		err := campaign.Run(ctx, study, campaign.WithWorkers(workers), campaign.WithSink(campaign.NewJSONLWriter(&buf)))
		wall, cpu := time.Since(t0).Seconds(), (cpuTime() - c0).Seconds()
		if err != nil {
			return err
		}
		b.compare("campaign.Run on 2 workers vs the serial reference", want, buf.Bytes())
		ms, err := b.warmSamples(ctx, study, cache, want)
		if err != nil {
			return err
		}
		peak, err := selfPeakMiB()
		if err != nil {
			return err
		}
		sp.calibrate()
		walls, cpus, peaks = append(walls, wall), append(cpus, cpu), append(peaks, peak)
		rates, warm = append(rates, float64(perBatch)/wall), append(warm, ms...)
	}

	b.setScaled(sp, setups, rates, cpus, warm)
	b.set("peak_rss_mb", median(peaks))
	fmt.Fprintf(b.log, "perfbench: %d batches of %d points, %d instances each\n", len(walls), len(study.Points), perBatch)
	if !b.traced {
		return nil
	}
	lay := &layers{b: b, study: study, results: results}
	replay, err := lay.measure(ctx, true)
	if err != nil {
		return err
	}
	b.set("trace.overhead_frac", replay.Seconds()/median(walls)-1)
	return nil
}

// librarySetup is the set-up a library user pays before the first timed
// study: decode and freeze the spec, then run one warm-up point per
// engine.
func librarySetup(ctx context.Context, spec []byte) (*campaign.Study, error) {
	study, err := campaign.DecodeStudy(spec)
	if err != nil {
		return nil, err
	}
	if _, err := study.FrozenPoints(); err != nil {
		return nil, err
	}
	seen := map[campaign.Engine]bool{}
	for _, p := range study.Points {
		if seen[p.Engine()] {
			continue
		}
		seen[p.Engine()] = true
		if err := campaign.Run(ctx, campaign.NewStudy("warm-up", p), campaign.WithWorkers(workers)); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return study, nil
}

// warmCache is the point cache the service uses, filled with the
// reference results of the study.
func warmCache(study *campaign.Study, results []*campaign.Result) (*server.Cache, error) {
	fps, err := study.FrozenPoints()
	if err != nil {
		return nil, err
	}
	cache := server.NewCache(256 << 20)
	for i, fp := range fps {
		cache.Put(fp.Hash, results[i])
	}
	return cache, nil
}

// warmSamples times fully cache-served runs of the study in process,
// campaign.Run with the filled point cache installed, and returns
// warmPerBatch samples in ms. Each run must still emit the reference
// bytes.
func (b *bench) warmSamples(ctx context.Context, study *campaign.Study, cache *server.Cache, want []byte) ([]float64, error) {
	var ms []float64
	outs := make([]bytes.Buffer, warmPerSample)
	for range warmPerBatch {
		runtime.GC()
		t0 := time.Now()
		for i := range outs {
			err := campaign.Run(ctx, study, campaign.WithWorkers(workers), campaign.WithPointCache(cache),
				campaign.WithSink(campaign.NewJSONLWriter(&outs[i])))
			if err != nil {
				return nil, err
			}
		}
		ms = append(ms, float64(time.Since(t0).Microseconds())/1000/warmPerSample)
		for i := range outs {
			b.compare("cache-served campaign.Run vs the reference", want, outs[i].Bytes())
			outs[i].Reset()
		}
	}
	return ms, nil
}

// cpuTime is the user plus system CPU of this process and of every child
// it has waited for.
func cpuTime() time.Duration {
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	tv := func(t syscall.Timeval) time.Duration { return time.Duration(t.Nano()) }
	return tv(self.Utime) + tv(self.Stime) + tv(kids.Utime) + tv(kids.Stime)
}

// resetPeak starts a new peak-RSS window: it resets this process's
// high-water mark (VmHWM, through /proc/self/clear_refs) and forgets the
// peaks of children reaped so far.
func (b *bench) resetPeak() error {
	b.mu.Lock()
	b.childRSS = 0
	b.mu.Unlock()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// selfPeakMiB is this process's largest resident set since resetPeak.
func selfPeakMiB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	m := hwmRe.FindSubmatch(status)
	if m == nil {
		return 0, fmt.Errorf("no VmHWM in /proc/self/status")
	}
	kib, err := strconv.ParseInt(string(m[1]), 10, 64)
	return float64(kib) / 1024, err
}

// childPeakMiB is the largest resident set of any child reaped since
// resetPeak. Children are read one by one: the process-wide children
// total would include whatever its parent shell ran before exec, such as
// the build.
func (b *bench) childPeakMiB() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return float64(b.childRSS) / 1024 // Linux reports KiB
}

var hwmRe = regexp.MustCompile(`VmHWM:\s+(\d+) kB`)

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
