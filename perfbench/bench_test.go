package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"ctsan/campaign"
	"ctsan/internal/rng"
	"ctsan/internal/trace"
)

func encode(t *testing.T, s *campaign.Study) []byte {
	t.Helper()
	raw, err := campaign.EncodeStudy(s)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestSpecsDeterministicPerSeed(t *testing.T) {
	gens := map[string]func(seed uint64) []*campaign.Study{
		"library-sweeps": func(seed uint64) []*campaign.Study { return []*campaign.Study{libraryStudy(seed, 1)} },
		"tiers-small-points": func(seed uint64) []*campaign.Study {
			a, b, c := tiersStudies(seed, 1)
			return []*campaign.Study{a, b, c}
		},
	}
	for name, gen := range gens {
		one, again, other := gen(7), gen(7), gen(8)
		for i := range one {
			if !bytes.Equal(encode(t, one[i]), encode(t, again[i])) {
				t.Errorf("%s study %d: seed 7 gave two different specs", name, i)
			}
			if bytes.Equal(encode(t, one[i]), encode(t, other[i])) {
				t.Errorf("%s study %d: seeds 7 and 8 gave the same spec", name, i)
			}
		}
	}
	// The tiers studies must not share points: B is cold after A.
	a, b, c := tiersStudies(3, 1)
	seen := map[string]bool{}
	for _, s := range []*campaign.Study{a, b, c} {
		fps, err := s.FrozenPoints()
		if err != nil {
			t.Fatal(err)
		}
		for _, fp := range fps {
			if seen[fp.Hash] {
				t.Fatalf("point %s of %s also appears in another tiers study", fp.Label, s.Name)
			}
			seen[fp.Hash] = true
		}
	}
}

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricDefinitions(t *testing.T) {
	if len(endToEnd) < 1 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(endToEnd))
	}
	if len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(perLayer))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRe.MatchString(d.Name) || !unitRe.MatchString(d.Unit) {
			t.Errorf("bad metric name or unit: %q %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %s defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !seen["setup_s"] || endToEnd[0] != (metricDef{"setup_s", "s", "lower", maxBound()}) {
		t.Errorf("setup_s must be the first end-to-end metric, in s, lower is better, with the largest bound")
	}
}

func maxBound() float64 {
	m := 0.0
	for _, d := range endToEnd {
		m = max(m, d.Bound)
	}
	return m
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root
// in step with the metrics and workloads this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), program has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, program has %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "perfbench" {
		t.Errorf("run_seconds %d, paths %v", doc.RunSeconds, doc.Paths)
	}
}

// TestFoldSelf checks the self-time fold on a hand-built tree: children
// that overlap count once, a child's time outside its parent is ignored,
// and grandchildren only reduce their own parent.
func TestFoldSelf(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "leaf", Start: 15, End: 20},
		{ID: 6, Name: "a", Start: 200, End: 210},
	}
	want := map[string]layerTime{
		"root": {Name: "root", Count: 1, Total: 100, Self: 40}, // covered: [10,60] and [90,100]
		"a":    {Name: "a", Count: 2, Total: 40, Self: 35},     // 30-5, plus 10
		"b":    {Name: "b", Count: 1, Total: 30, Self: 30},
		"c":    {Name: "c", Count: 1, Total: 30, Self: 30},
		"leaf": {Name: "leaf", Count: 1, Total: 5, Self: 5},
	}
	got := foldSelf(spans)
	if len(got) != len(want) {
		t.Fatalf("fold has %d names, want %d: %+v", len(got), len(want), got)
	}
	for _, lt := range got {
		if lt != want[lt.Name] {
			t.Errorf("%s: got %+v, want %+v", lt.Name, lt, want[lt.Name])
		}
	}
	if got[0].Name != "root" {
		t.Errorf("fold not sorted by self time: %+v", got)
	}
}

func TestLayerOfName(t *testing.T) {
	cases := map[string]string{
		"ctsan/internal/des.(*Kernel).Run":                     "des",
		"ctsan/internal/san.(*Sim).settle":                     "san",
		"ctsan/campaign.run.func1":                             "campaign",
		"ctsan/internal/atomicio.WriteFile":                    "checkpoint",
		"runtime.mallocgc":                                     "runtime",
		"internal/runtime/maps.(*Map).getWithKey":              "runtime",
		"slices.SortFunc[go.shape.[]ctsan/internal/des.event]": "",
		"encoding/json.Marshal":                                "",
		"main.main":                                            "",
	}
	for sym, want := range cases {
		if got := layerOfName(sym); got != want {
			t.Errorf("layerOfName(%q) = %q, want %q", sym, got, want)
		}
	}
}

// TestCPUShares profiles a loop in the rng package and checks the fold
// attributes its samples to rng rather than to another layer.
func TestCPUShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	s := rng.New(1)
	var sink uint64
	for end := time.Now().Add(400 * time.Millisecond); time.Now().Before(end); {
		for range 10000 {
			sink += s.Uint64()
		}
	}
	pprof.StopCPUProfile()
	shares, total, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 || shares["rng"] <= 0 {
		t.Fatalf("rng share %.2f of %d ns sampled (sink %d)", shares["rng"], total, sink)
	}
	for pkg, v := range shares {
		if pkg != "rng" && pkg != "runtime" && v > shares["rng"] {
			t.Errorf("%s share %.2f exceeds rng's %.2f in an rng loop", pkg, v, shares["rng"])
		}
	}
	if len(shares) != len(cpuSharePkgs) {
		t.Errorf("%d shares, want one per package (%d)", len(shares), len(cpuSharePkgs))
	}
}

func TestUndetectedCrashes(t *testing.T) {
	ev := func(k trace.Kind, p, q int32) trace.Event { return trace.Event{Kind: k, P: p, Q: q} }
	hb := []trace.Event{ev(trace.KindHBEmit, 1, 0), ev(trace.KindHBEmit, 2, 0), ev(trace.KindHBEmit, 3, 0)}
	cases := map[string]struct {
		events []trace.Event
		want   int
	}{
		"both observers suspect": {append(hb[:3:3], ev(trace.KindCrash, 3, 0), ev(trace.KindSuspect, 1, 3),
			ev(trace.KindSuspect, 2, 3), ev(trace.KindRecover, 3, 0), ev(trace.KindTrust, 1, 3)), 0},
		"already suspecting at the crash": {append(hb[:3:3], ev(trace.KindSuspect, 1, 3), ev(trace.KindCrash, 3, 0),
			ev(trace.KindSuspect, 2, 3), ev(trace.KindRecover, 3, 0)), 0},
		"one observer never suspects": {append(hb[:3:3], ev(trace.KindCrash, 3, 0), ev(trace.KindSuspect, 1, 3),
			ev(trace.KindRecover, 3, 0)), 1},
		"trace ends before detection": {append(hb[:3:3], ev(trace.KindCrash, 3, 0)), 2},
		"suspected then trusted before the crash": {append(hb[:3:3], ev(trace.KindSuspect, 1, 3), ev(trace.KindTrust, 1, 3),
			ev(trace.KindCrash, 3, 0), ev(trace.KindSuspect, 2, 3), ev(trace.KindRecover, 3, 0)), 1},
	}
	for name, c := range cases {
		if got := undetectedCrashes(c.events); got != c.want {
			t.Errorf("%s: %d undetected, want %d", name, got, c.want)
		}
	}
}

func TestDiffLines(t *testing.T) {
	ref := []byte("a\nb\nc\n")
	for got, want := range map[string]int{
		"a\nb\nc\n":    0,
		"a\nB\nc\n":    1,
		"a\nb\n":       1,
		"a\nb\nc\nd\n": 1,
		"":             3,
		"a\nb\nc":      1,
	} {
		if n := diffLines(ref, []byte(got)); n != want {
			t.Errorf("diffLines(%q) = %d, want %d", got, n, want)
		}
	}
}

// TestSmoke runs every workload at a minimal size, untraced and traced,
// and requires its correctness gate to pass and every metric to be
// reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binaries and runs every workload")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/ctsan", "./cmd/ctsand")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := cli([]string{"-workload", w.name, "-seed", "5", "-seconds", "1", "-trace", trace,
					"-scale", "0.02", "-bin", bin, "-out", t.TempDir()}, &stdout, &stderr)
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v\n%s", err, stderr.String())
				}
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, result %+v\n%s", code, res, stderr.String())
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s missing or in the wrong unit: %+v", d.Name, m)
					}
					if trace == "0" && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
				}
			})
		}
	}
}
