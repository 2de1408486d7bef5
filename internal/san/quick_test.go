package san

import (
	"fmt"
	"testing"
	"testing/quick"

	"ctsan/internal/dist"
	"ctsan/internal/rng"
)

// buildRandomModel constructs a random but well-formed SAN: a ring of
// places connected by timed activities with random delays, plus gated
// instantaneous activities, gate-free instantaneous activities competing
// for a shared resource in FIFO order (some tied on both priority and
// key), duplicate input arcs, and activities with both arcs and gates,
// exercising every engine feature and both enabling paths of the
// simulator (counted input arcs and declared dependencies).
func buildRandomModel(r *rng.Stream) (*Model, *Place) {
	m := NewModel("random")
	n := 3 + r.Intn(6)
	places := make([]*Place, n)
	for i := range places {
		init := 0
		if i == 0 || r.Float64() < 0.5 { // a marked ring never starves
			init = 1 + r.Intn(2)
		}
		places[i] = m.Place(name("p", i), init)
	}
	resource := m.Place("resource", 1)
	done := m.Place("done", 0)
	// Queues for a resource shared by gate-free instantaneous seizes; the
	// last queue is served by two seizes tied on priority and FIFO key.
	shared := m.Place("shared", 1+r.Intn(2))
	queues := make([]*Place, 3)
	for k := range queues {
		queues[k] = m.Place(name("q", k), r.Intn(2))
	}
	// pair only ever gains and loses tokens two at a time, so the
	// duplicate-arc activity below never drives it negative.
	pair := m.Place("pair", 2*r.Intn(2))
	for i := 0; i < n; i++ {
		src := places[i]
		dst := places[(i+1)%n]
		var d dist.Dist
		switch r.Intn(3) {
		case 0:
			d = dist.Det(0.1 + r.Float64())
		case 1:
			d = dist.Exp(0.5 + r.Float64())
		default:
			d = dist.U(0.1, 0.2+r.Float64())
		}
		a := m.Timed(name("t", i), Fixed(d)).Input(src)
		extra := []*Place{queues[r.Intn(len(queues))]}
		if r.Float64() < 0.3 {
			extra = append(extra, pair, pair)
		}
		if r.Float64() < 0.5 {
			a.Case(0.4).Output(dst)
			a.Case(0.6).Output(append([]*Place{dst, done}, extra...)...)
		} else {
			a.Output(append([]*Place{dst, done}, extra...)...)
		}
	}
	for k, q := range queues {
		busy := m.Place(name("busy", k), 0)
		prio := r.Intn(2)
		m.Instant(name("seize", k), prio).Input(q, shared).FIFO(q).Output(busy)
		if k == len(queues)-1 {
			m.Instant("seizeTwin", prio).Input(q, shared).FIFO(q).Output(busy)
		}
		m.Timed(name("serve", k), Fixed(dist.Exp(0.2+r.Float64()))).Input(busy).Output(shared)
	}
	// Two gate-free activities without FIFO keys tied on priority: the
	// earlier-created one must always win.
	tiePrio := r.Intn(3)
	tieOut := m.Place("tieOut", 0)
	m.Instant("tieFirst", tiePrio).Input(places[0]).Output(tieOut)
	m.Instant("tieSecond", tiePrio).Input(places[0]).Output(tieOut)
	m.Timed("tieBack", Fixed(dist.Exp(1))).Input(tieOut).Output(places[1%n])
	// A gated instantaneous activity consuming the resource when a place
	// is doubly marked.
	watch := places[r.Intn(n)]
	sink := m.Place("sink", 0)
	m.Instant("gated", 1).
		Input(resource).
		FIFO(resource).
		InputGate("ge2", []*Place{watch}, func(mk *Marking) bool { return mk.Get(watch) >= 2 }, nil).
		OutputGate("drain", func(mk *Marking) {
			mk.Set(watch, 0)
			mk.Add(sink, 1)
		})
	// Duplicate input arcs: one completion removes two tokens.
	m.Instant("dup", r.Intn(3)).Input(pair, pair).Output(sink)
	// A timed activity with both an input arc and a gate.
	m.Timed("drainSink", Fixed(dist.Exp(1))).
		Input(sink).
		InputGate("sharedBusy", []*Place{shared}, func(mk *Marking) bool { return mk.Get(shared) == 0 }, nil).
		Output(done)
	return m, done
}

func name(prefix string, i int) string { return prefix + string(rune('a'+i)) }

// firing is one OnFire observation.
type firing struct {
	at       float64
	activity int
	caseIdx  int
}

// trajectory is everything observable about one run: the stop time, the
// full completion sequence, and the final marking.
type trajectory struct {
	at      float64
	stopped bool
	fires   []firing
	marking []int
}

// record runs s to tmax or stop and captures its trajectory.
func record(s *Sim, tmax float64, stop func(*Marking) bool) trajectory {
	var tr trajectory
	s.OnFire(func(a *Activity, c int) {
		tr.fires = append(tr.fires, firing{s.Now(), a.idx, c})
	})
	tr.at, tr.stopped = s.Run(tmax, stop)
	for _, p := range s.model.places {
		tr.marking = append(tr.marking, s.Marking().Get(p))
	}
	return tr
}

// diff describes the first difference between two trajectories, or "".
func (a trajectory) diff(b trajectory) string {
	for i := 0; i < len(a.fires) && i < len(b.fires); i++ {
		if a.fires[i] != b.fires[i] {
			return fmt.Sprintf("completion %d: %+v != %+v", i, a.fires[i], b.fires[i])
		}
	}
	if len(a.fires) != len(b.fires) {
		return fmt.Sprintf("%d completions != %d", len(a.fires), len(b.fires))
	}
	if a.at != b.at || a.stopped != b.stopped {
		return fmt.Sprintf("stop (%v, %v) != (%v, %v)", a.at, a.stopped, b.at, b.stopped)
	}
	for i := range a.marking {
		if a.marking[i] != b.marking[i] {
			return fmt.Sprintf("final marking of place %d: %d != %d", i, a.marking[i], b.marking[i])
		}
	}
	return ""
}

// TestQuickDepTrackingEquivalence: on random models, the incremental
// simulator and the full-rescan simulator must produce identical
// trajectories (every completion with its case, and the final marking),
// and a reused simulator after Reset must replay a fresh one exactly.
func TestQuickDepTrackingEquivalence(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		gen := rng.New(seed)
		model, done := buildRandomModel(gen)
		stop := func(mk *Marking) bool { return mk.Get(done) >= 20 }
		run := func(full bool) trajectory {
			s := NewSim(model, rng.New(seed^0xabc))
			s.SetFullRescan(full)
			return record(s, 50, stop)
		}
		ref := run(true)
		if d := run(false).diff(ref); d != "" {
			t.Logf("seed %d: incremental vs full rescan: %s", seed, d)
			return false
		}
		reused := NewSim(model, rng.New(seed))
		reused.Run(50, stop)
		reused.Reset(rng.New(seed ^ 0xabc))
		if d := record(reused, 50, stop).diff(ref); d != "" {
			t.Logf("seed %d: Reset vs NewSim: %s", seed, d)
			return false
		}
		return len(ref.fires) > 0
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMarkingsNonNegative: markings never go negative under any
// random trajectory (the engine would panic; this asserts it does not).
func TestQuickMarkingsNonNegative(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		gen := rng.New(seed)
		model, _ := buildRandomModel(gen)
		s := NewSim(model, rng.New(seed))
		s.Run(20, nil)
		for _, p := range model.Places() {
			if s.Marking().Get(p) < 0 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDeterminism: identical seeds give identical trajectories.
func TestQuickDeterminism(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		gen := rng.New(seed)
		model, done := buildRandomModel(gen)
		run := func() (float64, uint64) {
			s := NewSim(model, rng.New(seed))
			at, _ := s.Run(30, func(mk *Marking) bool { return mk.Get(done) >= 10 })
			return at, s.Fired()
		}
		t1, f1 := run()
		t2, f2 := run()
		return t1 == t2 && f1 == f2
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
