package main

import (
	"bytes"
	"context"
	"fmt"

	"ctsan/campaign"
	"ctsan/internal/scenario"
	"ctsan/internal/trace"
)

// reference runs the study in process through campaign.Run and returns
// its JSONL bytes and results: the ground truth every tier is compared
// with byte for byte.
func reference(ctx context.Context, study *campaign.Study, workers int) ([]byte, []*campaign.Result, error) {
	var buf bytes.Buffer
	var col campaign.Collect
	err := campaign.Run(ctx, study, campaign.WithWorkers(workers),
		campaign.WithSink(campaign.NewJSONLWriter(&buf)), campaign.WithSink(&col))
	if err != nil {
		return nil, nil, fmt.Errorf("reference run of %s: %w", study.Name, err)
	}
	return buf.Bytes(), col.Results, nil
}

// diffLines compares two JSONL documents line by line and returns how
// many of want's lines are missing or differ in got, plus got's extra
// lines.
func diffLines(want, got []byte) int {
	w := bytes.Split(bytes.TrimSuffix(want, []byte("\n")), []byte("\n"))
	g := bytes.Split(bytes.TrimSuffix(got, []byte("\n")), []byte("\n"))
	if len(got) == 0 {
		g = nil
	}
	bad := 0
	for i := range w {
		if i >= len(g) || !bytes.Equal(w[i], g[i]) {
			bad++
		}
	}
	if len(g) > len(w) {
		bad += len(g) - len(w)
	}
	if bad == 0 && !bytes.Equal(want, got) {
		bad = 1 // same lines, different framing
	}
	return bad
}

// groundTruth applies the self-checks the repository's own tests rely on
// to a study's results, independent of any reference run:
//
//   - every unit either decided or aborted: decided plus aborted equals
//     the executions (replicas for SAN points) the point asked for;
//   - the fault-free scenario (paper-baseline) has no wrong suspicions;
//   - in rolling-crash (3 crashes, 4 surviving observers at n=5) every
//     observer suspects every crash once, so right suspicions equal
//     crashes × observers × replicas, less the crashes an observer was
//     already (wrongly) suspecting when they happened: those add no new
//     suspicion and count among the wrong ones. The traced run checks
//     the same property exactly, crash by crash (undetectedCrashes).
//
// It returns one message per violated check.
func groundTruth(study *campaign.Study, results []*campaign.Result) []string {
	var bad []string
	if len(results) != len(study.Points) {
		return []string{fmt.Sprintf("%s: %d results for %d points", study.Name, len(results), len(study.Points))}
	}
	for i, p := range study.Points {
		r := results[i]
		units := r.Latency.N + r.Aborted
		want := 0
		switch q := p.(type) {
		case campaign.LatencyPoint:
			want = q.Executions
		case campaign.SANPoint:
			want = q.Replicas
		case campaign.ScenarioPoint:
			execs := q.Executions
			if execs == 0 {
				s, err := scenario.Get(q.Name)
				if err != nil {
					bad = append(bad, fmt.Sprintf("point %d: %v", i, err))
					continue
				}
				execs = s.Executions
			}
			want = r.Replicas * execs
			right := r.Suspicions - r.WrongSuspicions
			if q.Name == "paper-baseline" && r.WrongSuspicions != 0 {
				bad = append(bad, fmt.Sprintf("point %d (%s): %d wrong suspicions without faults", i, q.Name, r.WrongSuspicions))
			}
			if want := 3 * 4 * r.Replicas; q.Name == "rolling-crash" && q.Executions == 0 &&
				(right > want || right < want-r.WrongSuspicions) {
				bad = append(bad, fmt.Sprintf("point %d (%s): %d right and %d wrong suspicions, want %d right less at most the wrong ones",
					i, q.Name, right, r.WrongSuspicions, want))
			}
		}
		if units != want {
			bad = append(bad, fmt.Sprintf("point %d (%s): decided+aborted = %d, want %d", i, r.Point, units, want))
		}
	}
	return bad
}

// undetectedCrashes replays a traced replica's events in execution order
// and counts (crash, observer) pairs where an observer that was up never
// suspected the crashed process before it recovered (or the trace
// ended). An observer already suspecting the process when it crashed
// counts as detecting it.
func undetectedCrashes(events []trace.Event) int {
	type pair struct{ p, q int32 }
	suspecting := map[pair]bool{}
	down := map[int32]bool{}
	pending := map[pair]bool{}
	procs := map[int32]bool{}
	missed := 0
	for _, e := range events {
		switch e.Kind {
		case trace.KindSuspect:
			suspecting[pair{e.P, e.Q}] = true
			delete(pending, pair{e.P, e.Q})
			procs[e.P], procs[e.Q] = true, true
		case trace.KindTrust:
			suspecting[pair{e.P, e.Q}] = false
			procs[e.P], procs[e.Q] = true, true
		case trace.KindHBEmit:
			procs[e.P] = true
		case trace.KindCrash:
			down[e.P] = true
			for o := range procs {
				if o != e.P && !down[o] && !suspecting[pair{o, e.P}] {
					pending[pair{o, e.P}] = true
				}
			}
		case trace.KindRecover:
			down[e.P] = false
			for k := range pending {
				if k.q == e.P {
					missed++
					delete(pending, k)
				}
			}
		}
	}
	return missed + len(pending)
}

// instances counts the consensus instances a result simulated: SAN
// replicas plus emulated executions, decided or aborted.
func instances(results []*campaign.Result) int {
	n := 0
	for _, r := range results {
		n += r.Latency.N + r.Aborted
	}
	return n
}
