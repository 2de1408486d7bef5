package main

import (
	"math"
	"math/rand/v2"

	"ctsan/campaign"
	"ctsan/internal/scenario"
)

// gen turns a workload seed into study specs. Every point gets its shape
// and an explicit Seed from the stream, so the program under test sees
// only the generated spec. The composition of each study, and the
// replica and execution counts of the library studies, are fixed; the
// seed moves parameters and point seeds. The cost of a study then varies
// little from seed to seed, which keeps runs with different seeds
// comparable.
type gen struct{ r *rand.Rand }

func newGen(seed uint64, stream uint64) *gen {
	return &gen{r: rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))}
}

// around returns x scaled by a uniform factor in [1-frac, 1+frac],
// rounded to 4 significant digits so specs stay readable.
func (g *gen) around(x, frac float64) float64 {
	v := x * (1 + frac*(2*g.r.Float64()-1))
	p := math.Pow(10, 3-math.Floor(math.Log10(v)))
	return math.Round(v*p) / p
}

// count returns n scaled like around, at least 1.
func (g *gen) count(n int, frac float64) int {
	return max(1, int(math.Round(float64(n)*(1+frac*(2*g.r.Float64()-1)))))
}

// seed returns a non-zero point seed (0 would mean "derive one").
func (g *gen) seed() uint64 {
	for {
		if s := g.r.Uint64(); s != 0 {
			return s
		}
	}
}

// scaled shrinks a size for smoke runs, keeping it at least lo.
func scaled(n int, scale float64, lo int) int {
	return max(lo, int(math.Round(float64(n)*scale)))
}

// libraryStudy is the library-sweeps workload: the paper's SAN model
// sweeps followed by the emulated fault points, in one study. Each part
// lists its points heaviest first and ends with light ones, so that two
// workers taking points in index order finish close together and a
// batch's wall time does not hinge on which point comes last.
func libraryStudy(seed uint64, scale float64) *campaign.Study {
	s := campaign.NewStudy("library-sweeps")
	addSANSweeps(s, newGen(seed, 1), scale)
	addFaultPoints(s, newGen(seed, 2), scale)
	return s
}

// addSANSweeps adds the SAN points: Fig 7b's t_send grid at n=5, Table
// 1's crash cases at n=3/5, and Fig 9b's class-3 points with
// deterministic and exponential FD sojourns.
func addSANSweeps(s *campaign.Study, g *gen, scale float64) {
	reps := scaled(2000, scale, 4)
	class3 := func(n int) {
		for _, exp := range []bool{false, true} {
			for _, tmr := range []float64{100, 400} {
				s.Add(campaign.SANPoint{N: n, TMR: g.around(tmr, 0.2), TM: g.around(5, 0.2),
					FDExponential: exp, Replicas: reps, Seed: g.seed()})
			}
		}
	}
	table1 := func(n int) {
		for _, crashed := range [][]int{nil, {1}, {2}} {
			s.Add(campaign.SANPoint{N: n, Crashed: crashed, Replicas: reps, Seed: g.seed()})
		}
	}
	class3(5)
	for _, ts := range []float64{0.005, 0.010, 0.015, 0.020, 0.025, 0.035} {
		s.Add(campaign.SANPoint{N: 5, TSend: g.around(ts, 0.1), Replicas: reps, Seed: g.seed()})
	}
	table1(5)
	class3(3)
	table1(3)
}

// addFaultPoints adds the emulation and scenario points: Fig 7a oracle
// points at n=3/5/7, class-2 crashed points, class-3 heartbeat points
// over a T grid, and every registry scenario with replicas.
func addFaultPoints(s *campaign.Study, g *gen, scale float64) {
	execs := func(n int) int { return scaled(n, scale, 4) }
	oracle := func(n int, crashed ...int) {
		s.Add(campaign.LatencyPoint{N: n, Crashed: crashed, Executions: execs(8000), Seed: g.seed()})
	}
	oracle(7)
	oracle(5)
	oracle(5, 1)
	oracle(5, 2)
	for _, t := range []float64{5, 10, 20, 40} {
		s.Add(campaign.LatencyPoint{N: 3, TimeoutT: g.around(t, 0.1), Executions: execs(3000), Seed: g.seed()})
	}
	for _, name := range scenario.Names() {
		s.Add(campaign.ScenarioPoint{Name: name, Replicas: scaled(10, scale, 1), Seed: g.seed()})
	}
	oracle(3)
	oracle(3, 1)
	oracle(3, 2)
}

// tinyStudy is one study of the tiers-small-points workload: points
// small enough that per-point costs (process start, freeze, hashing,
// record codecs, checkpoint appends, HTTP, leases) dominate simulation.
func tinyStudy(name string, seed, stream uint64, points int) *campaign.Study {
	g := newGen(seed, stream)
	s := campaign.NewStudy(name)
	ns := []int{3, 5, 7}
	for i := range points {
		n := ns[(i/4)%len(ns)]
		switch i % 4 {
		case 0:
			s.Add(campaign.SANPoint{N: n, Replicas: g.count(80, 0.3), TSend: g.around(0.025, 0.2), Seed: g.seed()})
		case 1:
			s.Add(campaign.SANPoint{N: n, Replicas: g.count(80, 0.3), Crashed: []int{1 + g.r.IntN(2)}, Seed: g.seed()})
		case 2:
			s.Add(campaign.LatencyPoint{N: n, Executions: g.count(80, 0.3), Seed: g.seed()})
		default:
			s.Add(campaign.LatencyPoint{N: n, Executions: g.count(80, 0.3), TimeoutT: g.around(20, 0.5), Seed: g.seed()})
		}
	}
	return s
}

// tiersStudies returns the tiers-small-points studies: A (sharded run,
// then a cold local submission), B (a cold fleet submission; its points
// are disjoint from A's), and C (written into the service's cache
// directory before start-up, so start-up has records to warm-load).
func tiersStudies(seed uint64, scale float64) (a, b, c *campaign.Study) {
	n := scaled(250, scale, 8)
	return tinyStudy("tiers-a", seed, 3, n), tinyStudy("tiers-b", seed, 4, n), tinyStudy("tiers-c", seed, 5, scaled(200, scale, 4))
}
