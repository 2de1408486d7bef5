package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"ctsan/campaign"
	"ctsan/internal/checkpoint"
	"ctsan/internal/experiment"
	"ctsan/internal/metrics"
	"ctsan/internal/neko"
	"ctsan/internal/parallel"
	"ctsan/internal/sanmodel"
	"ctsan/internal/scenario"
	"ctsan/internal/stats"
	"ctsan/internal/trace"
)

// layers is the traced pass over one study whose untraced results are
// known. Every layer is timed from outside, through its public entry
// points, with a span per call; the engines are re-run by replaying each
// frozen point through the entry call and seed campaign.Run uses, and
// each replay must reproduce the untraced record.
type layers struct {
	b       *bench
	study   *campaign.Study
	results []*campaign.Result

	mu        sync.Mutex // guards the deciding-round totals below
	rounds    float64
	decisions int
}

// addRounds folds a deciding-round accumulator into the totals.
func (l *layers) addRounds(a *stats.Accumulator) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.rounds += a.Mean() * float64(a.N())
	l.decisions += a.N()
}

// measure runs every traced measurement of the study and returns the
// wall time of the replay. With profile set, the replay runs under the
// in-process CPU profiler and its fold gives the cpu_share metrics.
func (l *layers) measure(ctx context.Context, profile bool) (time.Duration, error) {
	records, err := l.codec()
	if err != nil {
		return 0, err
	}
	if err := l.checkpoint(records); err != nil {
		return 0, err
	}
	var prof bytes.Buffer
	if profile {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return 0, err
		}
	}
	wall, err := l.replay(ctx)
	if profile {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return 0, err
	}
	if profile {
		if err := l.b.setShares(prof.Bytes()); err != nil {
			return 0, err
		}
	}
	return wall, l.counts(ctx)
}

// setShares folds a CPU profile into the cpu_share metrics.
func (b *bench) setShares(profile []byte) error {
	shares, _, err := cpuShares(profile)
	if err != nil {
		return err
	}
	for pkg, v := range shares {
		b.set("cpu_share."+pkg, v)
	}
	return nil
}

func usPer(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / 1e3 / float64(n)
}

// codec times campaign.FrozenPoints (freeze plus PointHash), and
// EncodeShardRecord and VerifyShardRecord/DecodeResult on every result,
// and returns the encoded records.
func (l *layers) codec() ([][]byte, error) {
	rec := l.b.rec
	n := len(l.study.Points)
	reps := max(1, (1000+n-1)/n) // enough calls to time small studies
	var fps []campaign.FrozenPoint
	for range reps {
		err := rec.do(0, "campaign.freeze", l.study.Name, func(int64) error {
			var err error
			fps, err = l.study.FrozenPoints()
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	hashes := make([]string, n)
	for i, fp := range fps {
		hashes[i] = fp.Hash
	}
	records := make([][]byte, n)
	for range reps {
		for i, res := range l.results {
			err := rec.do(0, "campaign.encode", fps[i].Label, func(int64) error {
				var err error
				records[i], err = campaign.EncodeShardRecord(hashes[i], res)
				return err
			})
			if err != nil {
				return nil, err
			}
		}
	}
	for range reps {
		for i, line := range records {
			err := rec.do(0, "campaign.verify", fps[i].Label, func(int64) error {
				r, err := campaign.VerifyShardRecord(hashes, line)
				if err != nil {
					return err
				}
				_, err = r.DecodeResult()
				return err
			})
			if err != nil {
				return nil, err
			}
		}
	}
	lts := foldSelf(rec.snapshot())
	for _, name := range []string{"freeze", "encode", "verify"} {
		lt := byName(lts, "campaign."+name)
		per := "_us_per_record"
		if name == "freeze" {
			per = "_us_per_point"
		}
		l.b.set("campaign."+name+per, usPer(lt.Total, reps*n))
	}
	return records, nil
}

// checkpoint drives checkpoint.Open/Append with the workload's own
// records, cycled to a fixed number of appends, and reports the mean
// append time over the first and the last tenth. Bytes rewritten per
// record is computed from the file size after each append, because the
// store rewrites the whole file on every append.
func (l *layers) checkpoint(records [][]byte) error {
	appends := scaled(200, l.b.scale, 20)
	path := filepath.Join(l.b.tmp, "layer-checkpoint.jsonl")
	store, err := checkpoint.Open(path)
	if err != nil {
		return err
	}
	times := make([]time.Duration, appends)
	var rewritten int64
	for i := range appends {
		t0 := time.Now()
		err := l.b.rec.do(0, "checkpoint.append", fmt.Sprint(i), func(int64) error {
			return store.Append(records[i%len(records)])
		})
		times[i] = time.Since(t0)
		if err != nil {
			return err
		}
		st, err := os.Stat(path)
		if err != nil {
			return err
		}
		rewritten += st.Size()
	}
	tenth := max(1, appends/10)
	mean := func(ts []time.Duration) float64 {
		var sum time.Duration
		for _, t := range ts {
			sum += t
		}
		return ms(sum) / float64(len(ts))
	}
	l.b.set("checkpoint.append_ms_first", mean(times[:tenth]))
	l.b.set("checkpoint.append_ms_last", mean(times[appends-tenth:]))
	l.b.set("checkpoint.bytes_rewritten_per_record", float64(rewritten)/float64(appends))
	return os.Remove(path)
}

// replay re-runs every point through its engine entry call, engine by
// engine on two workers, and returns the wall time of the whole replay.
func (l *layers) replay(ctx context.Context) (time.Duration, error) {
	fps, err := l.study.FrozenPoints()
	if err != nil {
		return 0, err
	}
	groups := map[campaign.Engine][]int{}
	for i, fp := range fps {
		groups[fp.Engine] = append(groups[fp.Engine], i)
	}
	mallocs := map[campaign.Engine]uint64{}
	t0 := time.Now()
	err = l.b.rec.do(0, "replay", l.study.Name, func(root int64) error {
		for _, eng := range []campaign.Engine{campaign.SAN, campaign.Emulation, campaign.Scenario} {
			idx := groups[eng]
			if len(idx) == 0 {
				continue
			}
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			if err := parallel.ForEach(ctx, workers, len(idx), func(_, k int) error {
				i := idx[k]
				return l.b.rec.do(root, "replay.point", fps[i].Label, func(id int64) error {
					return l.replayPoint(ctx, id, fps[i].Point, l.results[i])
				})
			}); err != nil {
				return err
			}
			runtime.ReadMemStats(&ms1)
			mallocs[eng] = ms1.Mallocs - ms0.Mallocs
		}
		return nil
	})
	wall := time.Since(t0)
	if err != nil {
		return 0, err
	}

	var replicas, execs, units int
	var events uint64
	for i, fp := range fps {
		r := l.results[i]
		switch fp.Engine {
		case campaign.SAN:
			replicas += r.Replicas
		case campaign.Emulation:
			execs += r.Latency.N + r.Aborted
			events += r.Events
		case campaign.Scenario:
			units += r.Latency.N + r.Aborted
			events += r.Events
		}
	}
	lts := foldSelf(l.b.rec.snapshot())
	build, sim := byName(lts, "sanmodel.build"), byName(lts, "san.simulate")
	exp, scn := byName(lts, "experiment.run"), byName(lts, "scenario.run")
	l.b.set("sanmodel.build_us", usPer(build.Total, build.Count))
	l.b.set("san.replica_us", usPer(sim.Total-build.Total, replicas))
	if replicas > 0 {
		l.b.set("san.allocs_per_replica", float64(mallocs[campaign.SAN])/float64(replicas))
	}
	l.b.set("experiment.exec_us", usPer(exp.Total, execs))
	l.b.set("scenario.exec_us", usPer(scn.Total, units))
	if execs+units > 0 {
		l.b.set("des.events_per_consensus", float64(events)/float64(execs+units))
		l.b.set("experiment.allocs_per_consensus",
			float64(mallocs[campaign.Emulation]+mallocs[campaign.Scenario])/float64(execs+units))
	}
	if events > 0 {
		l.b.set("des.ns_per_event", float64((exp.Total+scn.Total).Nanoseconds())/float64(events))
	}
	return wall, nil
}

// summary flattens a digest the way campaign results do.
func summary(d *metrics.Digest) campaign.Summary {
	if d.N() == 0 {
		return campaign.Summary{}
	}
	ps := d.Quantiles(0.50, 0.90, 0.99)
	return campaign.Summary{N: d.N(), Mean: d.Mean(), CI90: d.CI(0.90), P50: ps[0], P90: ps[1], P99: ps[2], Min: d.Min(), Max: d.Max()}
}

// replayPoint runs one frozen point through the same engine entry call,
// inputs and seed campaign.Run uses (the point's own prepare step, with
// one inner worker, which many-point studies get anyway) and checks the
// outcome against the untraced result.
func (l *layers) replayPoint(ctx context.Context, parent int64, p campaign.Point, want *campaign.Result) error {
	rec := l.b.rec
	var got campaign.Result
	var err error
	switch q := p.(type) {
	case campaign.SANPoint:
		params := sanmodel.DefaultParams(q.N)
		if q.TSend > 0 {
			params.TSend, params.TReceive = q.TSend, q.TSend
		}
		params.Crashed = append(params.Crashed, q.Crashed...)
		if q.TMR > 0 {
			kind := sanmodel.FDDeterministic
			if q.FDExponential {
				kind = sanmodel.FDExponential
			}
			params.FD = sanmodel.FDModel{TMR: q.TMR, TM: q.TM, Kind: kind}
		}
		tmax := q.Tmax
		if tmax == 0 {
			tmax = 1e7
		}
		err = rec.do(parent, "sanmodel.build", q.Name, func(int64) error {
			_, err := sanmodel.Build(params)
			return err
		})
		if err == nil {
			err = rec.do(parent, "san.simulate", q.Name, func(int64) error {
				res, err := sanmodel.SimulateContext(ctx, params, q.Replicas, tmax, q.Seed, 1)
				if err == nil {
					got = campaign.Result{Latency: summary(&res.Digest), Aborted: res.Truncated}
				}
				return err
			})
		}
	case campaign.LatencyPoint:
		spec := experiment.LatencySpec{N: q.N, Executions: q.Executions, Gap: q.Gap, Warmup: q.Warmup,
			MaxRounds: q.MaxRounds, Deadline: q.Deadline, Seed: q.Seed}
		if q.TimeoutT > 0 {
			spec.FDMode, spec.TimeoutT, spec.PeriodTh = experiment.FDHeartbeat, q.TimeoutT, q.PeriodTh
		}
		for _, id := range q.Crashed {
			spec.Crashed = append(spec.Crashed, neko.ProcessID(id))
		}
		err = rec.do(parent, "experiment.run", q.Name, func(int64) error {
			res, err := experiment.RunLatencyContext(ctx, spec)
			if err == nil {
				l.addRounds(&res.Rounds)
				got = campaign.Result{Latency: summary(&res.Digest), Aborted: res.Aborted, Texp: res.Texp, Events: res.Events}
				if q.TimeoutT > 0 {
					got.TMR, got.TM = res.QoS.TMR, res.QoS.TM
				}
			}
			return err
		})
	case campaign.ScenarioPoint:
		s, serr := scenario.Get(q.Name)
		if serr != nil {
			return serr
		}
		spec := scenario.CampaignSpec{Scenarios: []*scenario.Scenario{s}, Replicas: q.Replicas,
			Executions: q.Executions, Workers: 1, Seed: q.Seed, MaxRounds: q.MaxRounds, Deadline: q.Deadline}
		err = rec.do(parent, "scenario.run", q.Name, func(int64) error {
			reps, err := scenario.RunCampaignContext(ctx, spec)
			if err == nil {
				r := reps[0]
				got = campaign.Result{Latency: summary(&r.Digest), Aborted: r.Aborted, Texp: r.Texp, Events: r.DESEvents,
					Suspicions: r.Suspicions, WrongSuspicions: r.WrongSuspicions, TMR: r.TMR, TM: r.TM}
			}
			return err
		})
	default:
		return fmt.Errorf("replay: unsupported point type %T", p)
	}
	if err != nil {
		return err
	}
	if got.Latency != want.Latency || got.Aborted != want.Aborted || got.Texp != want.Texp || got.Events != want.Events ||
		got.Suspicions != want.Suspicions || got.WrongSuspicions != want.WrongSuspicions || got.TMR != want.TMR || got.TM != want.TM {
		l.b.check(0, 1, "traced replay of "+want.Point)
	}
	return nil
}

// counts derives per-consensus message, drop, heartbeat and round counts
// from the event kinds of traced replicas (scenario.RunTraced) of every
// scenario point, and the wrong-suspicion total from the results. All of
// them are fixed by determinism.
func (l *layers) counts(ctx context.Context) error {
	var sends, drops, hbs, units int
	wrong := 0
	for i, p := range l.study.Points {
		q, ok := p.(campaign.ScenarioPoint)
		if !ok {
			continue
		}
		wrong += l.results[i].WrongSuspicions
		s, err := scenario.Get(q.Name)
		if err != nil {
			return err
		}
		traced, err := scenario.RunTraced(ctx, scenario.TraceSpec{Scenario: s, Replicas: min(q.Replicas, 2),
			Executions: q.Executions, Workers: workers, Seed: q.Seed, MaxRounds: q.MaxRounds,
			Deadline: q.Deadline, Cap: 1 << 19})
		if err != nil {
			return err
		}
		for _, tr := range traced {
			res := tr.Result
			if res.Trace.Dropped > 0 {
				l.b.fail("trace of %s replica %d overflowed its ring", q.Name, tr.Replica)
			}
			if q.Name == "rolling-crash" && q.Executions == 0 {
				if n := undetectedCrashes(res.Trace.Events); n > 0 {
					l.b.fail("%s replica %d: %d crashes went unsuspected by a surviving observer", q.Name, tr.Replica, n)
				}
			}
			for _, e := range res.Trace.Events {
				switch e.Kind {
				case trace.KindSend:
					sends++
				case trace.KindDrop:
					drops++
				case trace.KindHBEmit:
					hbs++
				}
			}
			units += res.Decided + res.Aborted
			l.addRounds(&res.Rounds)
		}
	}
	l.b.set("fd.wrong_suspicions", float64(wrong))
	if units > 0 {
		l.b.set("netsim.sends_per_consensus", float64(sends)/float64(units))
		l.b.set("netsim.drops_per_consensus", float64(drops)/float64(units))
		l.b.set("fd.heartbeats_per_consensus", float64(hbs)/float64(units))
	}
	if l.decisions > 0 {
		l.b.set("consensus.rounds_per_decision", l.rounds/float64(l.decisions))
	}
	return nil
}
