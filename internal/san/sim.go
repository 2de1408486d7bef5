package san

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"ctsan/internal/des"
	"ctsan/internal/rng"
)

// Sim executes one stochastic realization of a SAN model. Create it with
// NewSim, then call Run. The same Model may back many Sims.
//
// The work per completion tracks what the completion changed, not the
// model's size — essential for the paper's consensus model, whose joined
// submodels have hundreds of activities, most of them waiting on a few
// shared resource places. Two enabling paths share that property:
//
//   - Watched inputs, for instantaneous activities without gates (the
//     seize steps of every resource). Such an activity is enabled exactly
//     when all its input places are marked. While it is not in the
//     enabled set, it waits on one of its input places that is empty;
//     only that place becoming marked wakes it, to wait on its next empty
//     input or to join the set. A place becoming empty wakes nobody: an
//     activity in the set whose input emptied is found when the next
//     activity to complete is chosen, and goes back to waiting. So a busy
//     resource place costs nothing per write, and a freed one costs one
//     check per activity queued on it.
//   - Declared dependencies, for timed and gated activities: an activity
//     is re-evaluated only when a place it depends on (default input arcs
//     plus declared gate Reads) changes marking. Timed activities are
//     re-armed in the order they were touched, which fixes the order of
//     their delay draws from the random stream.
//
// Enabled instantaneous activities live in a dense set; the next one to
// complete is the maximum of (priority, earliest FIFO arrival, earliest
// creation), so the set needs no ordering of its own. SetFullRescan
// re-evaluates every activity instead, as a reference for tests.
type Sim struct {
	model   *Model
	marking Marking
	sim     des.Sim
	rand    *rng.Stream
	onFire  func(a *Activity, caseIdx int)
	fired   uint64

	armed   []des.Handle // per activity; meaningful when isArmed
	isArmed []bool
	fireFns []func() // per timed activity; reused across armings and Resets

	deps       []int // timed or gated activities by place: deps[depStart[p]:depStart[p+1]]
	depStart   []int
	pending    []int
	inPending  []bool
	timedTouch []int // timed activities to (re)examine at the end of settle
	inTouch    []bool

	// Activities on the watched-input path that are not in instOn wait
	// in one singly linked list per place.
	watchHead []int // place idx -> first waiting activity, or -1
	watchNext []int // activity idx -> next activity waiting on the same place, or -1

	instOn  []int // enabled instantaneous activities, unordered
	instPos []int // activity idx -> position in instOn, or -1

	init      simState // the state NewSim starts from; Reset copies it back
	written   []int    // places written since NewSim or Reset, for Reset to restore
	isWritten []bool
	// fromStart is set until the first settle, which re-arms in creation
	// order: from the initial marking, every timed activity counts as
	// touched.
	fromStart bool

	fullRescan bool
	instLimit  int
}

// simState is the part of a Sim's initial state that Reset restores by
// copying rather than recomputing.
type simState struct {
	marking    []int
	watchHead  []int
	watchNext  []int
	instOn     []int
	timedTouch []int // timed activities enabled in the initial marking
}

// NewSim prepares a simulation of the model with the given random stream.
// It panics if the model fails Validate; validate explicitly for a
// recoverable error.
func NewSim(m *Model, r *rng.Stream) *Sim {
	root := m.rootModel()
	if err := root.Validate(); err != nil {
		panic(err)
	}
	nA, nP := len(root.activities), len(root.places)
	s := &Sim{
		model:     root,
		rand:      r,
		armed:     make([]des.Handle, nA),
		isArmed:   make([]bool, nA),
		fireFns:   make([]func(), nA),
		inPending: make([]bool, nA),
		inTouch:   make([]bool, nA),
		watchHead: make([]int, nP),
		watchNext: make([]int, nA),
		instPos:   make([]int, nA),
		isWritten: make([]bool, nP),
		instLimit: 1_000_000,
	}
	s.marking = Marking{
		m:    make([]int, nP),
		arr:  make([][]float64, nP),
		head: make([]int, nP),
	}
	for _, p := range root.places {
		s.marking.m[p.idx] = p.initial
		s.watchHead[p.idx] = -1
		for k := 0; k < p.initial; k++ {
			s.marking.arr[p.idx] = append(s.marking.arr[p.idx], 0)
		}
	}
	s.deps, s.depStart = dependents(root)
	for _, a := range root.activities {
		s.instPos[a.idx] = -1
		if a.watched() {
			s.wait(a)
			continue
		}
		if !a.timed {
			s.setInst(a.idx, a.enabled(&s.marking))
			continue
		}
		if a.enabled(&s.marking) {
			s.touch(a.idx)
		}
		// One completion closure per timed activity, allocated once:
		// arming an activity must not allocate in the steady state.
		s.fireFns[a.idx] = func() { s.fire(a) }
	}
	s.fromStart = true
	s.init = simState{
		marking:    append([]int(nil), s.marking.m...),
		watchHead:  append([]int(nil), s.watchHead...),
		watchNext:  append([]int(nil), s.watchNext...),
		instOn:     append([]int(nil), s.instOn...),
		timedTouch: append([]int(nil), s.timedTouch...),
	}
	return s
}

// dependents indexes, for every place, the activities outside the watched
// path that depend on it (input arcs and gate Reads), each once and in
// creation order. Place p's are deps[start[p]:start[p+1]].
func dependents(root *Model) (deps, start []int) {
	nP := len(root.places)
	stamp := make([]int, nP) // stamp[p] == a.idx+1: p already listed for a
	visit := func(fn func(p, a int)) {
		clear(stamp)
		for _, a := range root.activities {
			if a.watched() {
				continue
			}
			see := func(p *Place) {
				if stamp[p.idx] != a.idx+1 {
					stamp[p.idx] = a.idx + 1
					fn(p.idx, a.idx)
				}
			}
			for _, p := range a.inputs {
				see(p)
			}
			for _, g := range a.gates {
				for _, p := range g.Reads {
					see(p)
				}
			}
		}
	}
	start = make([]int, nP+1)
	visit(func(p, _ int) { start[p+1]++ })
	for p := 0; p < nP; p++ {
		start[p+1] += start[p]
	}
	deps = make([]int, start[nP])
	next := append([]int(nil), start[:nP]...)
	visit(func(p, a int) {
		deps[next[p]] = a
		next[p]++
	})
	return deps, start
}

// Reset returns the simulator to the model's initial marking with a fresh
// random stream, reusing every internal allocation (marking arrays,
// dependency index, event pool). It is observably equivalent to
// NewSim(model, r) but allocation-free, which matters in Monte-Carlo
// replica loops where a worker runs thousands of realizations. The OnFire
// observer, full-rescan mode, and instantaneous-loop limit are preserved.
func (s *Sim) Reset(r *rng.Stream) {
	s.rand = r
	s.fired = 0
	s.sim.Reset()
	mk := &s.marking
	s.noteWritten() // writes made after Run returned
	for _, i := range s.written {
		s.isWritten[i] = false
		n := s.init.marking[i]
		mk.m[i] = n
		mk.arr[i] = mk.arr[i][:0]
		mk.head[i] = 0
		for k := 0; k < n; k++ {
			mk.arr[i] = append(mk.arr[i], 0)
		}
	}
	s.written = s.written[:0]
	mk.dirty = mk.dirty[:0]
	mk.now = 0
	copy(s.watchHead, s.init.watchHead)
	copy(s.watchNext, s.init.watchNext)
	clear(s.isArmed)
	// Empty after a completed Run, but not after NewSim or a Run cut
	// short by a panic.
	for _, ai := range s.pending {
		s.inPending[ai] = false
	}
	s.pending = s.pending[:0]
	for _, ai := range s.timedTouch {
		s.inTouch[ai] = false
	}
	s.timedTouch = s.timedTouch[:0]
	for _, ai := range s.init.timedTouch {
		s.touch(ai)
	}
	for _, ai := range s.instOn {
		s.instPos[ai] = -1
	}
	s.instOn = s.instOn[:0]
	for _, ai := range s.init.instOn {
		s.setInst(ai, true)
	}
	s.fromStart = true
}

// SetFullRescan forces re-evaluation of every activity after every
// completion, on top of the incremental paths: every instantaneous
// activity before each selection, and every timed activity, in creation
// order after the touched ones, before re-arming. With correct gate Reads
// declarations the trajectory is identical to the incremental one, so
// tests use it as the reference. Slow. The reference keeps no waiting
// lists, so switch modes only before Run or right after Reset.
func (s *Sim) SetFullRescan(on bool) { s.fullRescan = on }

// Marking exposes the live marking (for reward observation between events).
func (s *Sim) Marking() *Marking { return &s.marking }

// Now returns the current virtual time in milliseconds.
func (s *Sim) Now() float64 { return s.sim.Now() }

// Fired returns the number of activity completions so far.
func (s *Sim) Fired() uint64 { return s.fired }

// OnFire registers an observer invoked after every activity completion,
// with the completed activity and chosen case index. Used for reward
// variables ("impulse rewards" in SAN terminology).
func (s *Sim) OnFire(fn func(a *Activity, caseIdx int)) { s.onFire = fn }

// enqueue marks activity ai for re-evaluation.
func (s *Sim) enqueue(ai int) {
	if !s.inPending[ai] {
		s.inPending[ai] = true
		s.pending = append(s.pending, ai)
	}
}

// setInst adds instantaneous activity ai to the enabled set or removes it.
func (s *Sim) setInst(ai int, on bool) {
	pos := s.instPos[ai]
	switch {
	case on && pos < 0:
		s.instPos[ai] = len(s.instOn)
		s.instOn = append(s.instOn, ai)
	case !on && pos >= 0:
		last := s.instOn[len(s.instOn)-1]
		s.instOn[pos] = last
		s.instPos[last] = pos
		s.instOn = s.instOn[:len(s.instOn)-1]
		s.instPos[ai] = -1
	}
}

// watched reports whether a is on the watched-input path: instantaneous
// and enabled exactly when every input place is marked.
func (a *Activity) watched() bool { return !a.timed && len(a.gates) == 0 }

// wait parks watched activity a on its first empty input place, or adds
// it to the enabled set if it has none.
func (s *Sim) wait(a *Activity) {
	for _, p := range a.inputs {
		if s.marking.m[p.idx] == 0 {
			s.watchNext[a.idx] = s.watchHead[p.idx]
			s.watchHead[p.idx] = a.idx
			return
		}
	}
	s.setInst(a.idx, true)
}

// noteWritten records the places in the write log for Reset.
func (s *Sim) noteWritten() {
	for _, pi := range s.marking.dirty {
		if !s.isWritten[pi] {
			s.isWritten[pi] = true
			s.written = append(s.written, pi)
		}
	}
}

// drainDirty propagates marking writes: activities waiting on a place
// that is now marked move on, and dependents are queued for
// re-evaluation in write order.
func (s *Sim) drainDirty() {
	s.noteWritten()
	for _, pi := range s.marking.dirty {
		// The full-rescan reference does not use the waiting lists.
		if s.marking.m[pi] > 0 && !s.fullRescan {
			ai := s.watchHead[pi]
			s.watchHead[pi] = -1
			for ai >= 0 {
				next := s.watchNext[ai]
				s.wait(s.model.activities[ai])
				ai = next
			}
		}
		for _, ai := range s.deps[s.depStart[pi]:s.depStart[pi+1]] {
			s.enqueue(ai)
		}
	}
	s.marking.dirty = s.marking.dirty[:0]
}

// refreshPending folds the pending set into the enabled-instantaneous set
// and the touched-timed list.
func (s *Sim) refreshPending() {
	for _, ai := range s.pending {
		s.inPending[ai] = false
		a := s.model.activities[ai]
		if a.timed {
			s.touch(ai)
			continue
		}
		s.setInst(ai, a.enabled(&s.marking))
	}
	s.pending = s.pending[:0]
	if s.fullRescan {
		for i, a := range s.model.activities {
			if !a.timed {
				s.setInst(i, a.enabled(&s.marking))
			}
		}
	}
}

// touch queues timed activity ai for re-arming at the end of settle.
func (s *Sim) touch(ai int) {
	if !s.inTouch[ai] {
		s.inTouch[ai] = true
		s.timedTouch = append(s.timedTouch, ai)
	}
}

// nextInst returns the enabled instantaneous activity to complete next:
// highest priority, then oldest token in its FIFO queue (activities
// without one come first), then earliest created. It returns nil when
// none is enabled. Watched activities whose inputs emptied since they
// joined the set go back to waiting here.
func (s *Sim) nextInst() *Activity {
	var best *Activity
	bestKey := 0.0
	for i := 0; i < len(s.instOn); {
		ai := s.instOn[i]
		a := s.model.activities[ai]
		if a.watched() && !s.allMarked(a) {
			s.setInst(ai, false) // moves the last entry to i
			s.wait(a)
			continue
		}
		i++
		key := math.Inf(-1)
		if a.fifoKey != nil {
			key = s.marking.OldestArrival(a.fifoKey)
		}
		if best == nil || a.priority > best.priority ||
			a.priority == best.priority && (key < bestKey || key == bestKey && a.idx < best.idx) {
			best = a
			bestKey = key
		}
	}
	return best
}

// allMarked reports whether every input place of a holds a token.
func (s *Sim) allMarked(a *Activity) bool {
	for _, p := range a.inputs {
		if s.marking.m[p.idx] == 0 {
			return false
		}
	}
	return true
}

// settle completes enabled instantaneous activities until none is
// enabled, then re-arms timed activities to match the final marking.
func (s *Sim) settle() {
	s.drainDirty()
	for iter := 0; ; iter++ {
		if iter >= s.instLimit {
			panic(fmt.Sprintf("san: instantaneous activity loop in model %q", s.model.name))
		}
		s.refreshPending()
		best := s.nextInst()
		if best == nil {
			break
		}
		s.complete(best)
		s.drainDirty()
	}
	if s.fullRescan {
		// After the touched ones, in creation order: with correct
		// dependency declarations these are no-ops, so the arming order
		// (and hence every delay draw) matches the incremental path.
		for i, a := range s.model.activities {
			if a.timed {
				s.touch(i)
			}
		}
	}
	if s.fromStart {
		// Untouched timed activities that were disabled initially still
		// are, so re-arming the touched ones in creation order is
		// re-arming every one of them.
		slices.Sort(s.timedTouch)
		s.fromStart = false
	}
	// Re-arm touched timed activities against the stable marking.
	for _, ai := range s.timedTouch {
		s.inTouch[ai] = false
		a := s.model.activities[ai]
		en := a.enabled(&s.marking)
		switch {
		case en && !s.isArmed[a.idx]:
			d := a.delay(&s.marking).Sample(s.rand)
			s.isArmed[a.idx] = true
			s.armed[a.idx] = s.sim.After(d, s.fireFns[a.idx])
		case !en && s.isArmed[a.idx]:
			s.sim.Cancel(s.armed[a.idx])
			s.isArmed[a.idx] = false
		}
	}
	s.timedTouch = s.timedTouch[:0]
}

// fire handles the scheduled completion of a timed activity.
func (s *Sim) fire(a *Activity) {
	s.isArmed[a.idx] = false
	s.enqueue(a.idx) // may need re-arming if still enabled afterwards
	// The activity was continuously enabled since arming (we cancel on
	// disable), but a same-timestamp event may have disabled it; re-check.
	if !a.enabled(&s.marking) {
		s.settle()
		return
	}
	s.complete(a)
	s.settle()
}

// complete applies the effect of an activity completion: input arcs and
// gate functions, case selection, then output arcs and gate functions.
func (s *Sim) complete(a *Activity) {
	s.marking.now = s.sim.Now()
	for _, p := range a.inputs {
		s.marking.Add(p, -1)
	}
	for _, g := range a.gates {
		if g.Fn != nil {
			g.Fn(&s.marking)
		}
	}
	caseIdx := 0
	if len(a.cases) > 1 {
		u := s.rand.Float64()
		acc := 0.0
		for i, c := range a.cases {
			acc += c.p
			if u < acc || i == len(a.cases)-1 {
				caseIdx = i
				break
			}
		}
	}
	if len(a.cases) > 0 {
		c := a.cases[caseIdx]
		for _, p := range c.outputs {
			s.marking.Add(p, 1)
		}
		for _, g := range c.gates {
			g.Fn(&s.marking)
		}
	}
	s.fired++
	if s.onFire != nil {
		s.onFire(a, caseIdx)
	}
}

// Run simulates until stop returns true (checked after each completion and
// once before the first), no activity is enabled, or the virtual clock
// exceeds tmax. It returns the stop time and whether stop was satisfied.
func (s *Sim) Run(tmax float64, stop func(mk *Marking) bool) (t float64, stopped bool) {
	s.settle()
	if stop != nil && stop(&s.marking) {
		return s.sim.Now(), true
	}
	for {
		nt, ok := s.sim.PeekTime()
		if !ok || nt > tmax {
			return s.sim.Now(), false
		}
		s.sim.Step()
		if stop != nil && stop(&s.marking) {
			return s.sim.Now(), true
		}
	}
}

// EnabledActivities returns the names of currently enabled activities,
// sorted; useful in tests and debugging.
func (s *Sim) EnabledActivities() []string {
	var names []string
	for _, a := range s.model.activities {
		if a.enabled(&s.marking) {
			names = append(names, a.name)
		}
	}
	sort.Strings(names)
	return names
}
