// Command perfbench is the repository's end-to-end benchmark. From a
// workload name and a seed it generates study specs, drives them through
// the shipped code (the campaign library, or the ctsan and ctsand
// binaries), checks every output byte against an in-process reference
// run, and prints its metrics as one JSON object on the last line of
// standard output. See README.md for the workloads and metrics.
//
//	bash perfbench/run.sh --workload library-sweeps --seed 1 --seconds 45 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// workers is the fixed worker budget of every workload: two busy
// workers, whatever the host's CPU count.
const workers = 2

// runLimit bounds one run; children still alive at the limit are killed
// and the run fails.
const runLimit = 150 * time.Second

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(ctx context.Context, b *bench) error
}

var workloads = []workload{
	{"library-sweeps", "SAN model sweeps and emulated fault points through campaign.Run on 2 workers; san and des/netsim/neko/fd/consensus do the work", runLibrarySweeps},
	{"tiers-small-points", "tiny points through ctsan run, ctsand and its fleet, 2 busy workers; per-point process, codec, checkpoint and HTTP costs dominate", runTiers},
}

// bench is the state of one run.
type bench struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	scale   float64 // study size multiplier; 1 for measured runs
	bin     string  // directory holding the ctsan and ctsand binaries
	tmp     string  // scratch directory of this run, removed at exit
	out     string  // directory for spans, the layer table and metrics
	log     io.Writer
	rec     *recorder // nil in untraced runs

	mu        sync.Mutex // guards the outcome below; replays report from workers
	attempted int
	failed    int
	problems  []string
	metrics   map[string]float64
	children  []*child
	childRSS  int64 // largest peak RSS of a child reaped since resetPeak, KiB
	dumps     int
}

// fail records a correctness problem; any problem fails the run.
func (b *bench) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.problems = append(b.problems, msg)
	fmt.Fprintln(b.log, "perfbench: FAIL:", msg)
}

// check adds points compared against the reference and those that
// failed the comparison.
func (b *bench) check(points, bad int, what string) {
	b.mu.Lock()
	b.attempted += points
	b.failed += bad
	b.mu.Unlock()
	if bad > 0 {
		b.fail("%s: %d of %d points differ from the reference or are missing", what, bad, points)
	}
}

// compare checks got against the reference bytes want, point by point
// (one JSONL line each). On a mismatch both documents are kept in the
// result directory for diagnosis.
func (b *bench) compare(what string, want, got []byte) {
	bad := diffLines(want, got)
	b.check(bytes.Count(want, []byte("\n")), bad, what)
	if bad > 0 {
		b.mu.Lock()
		b.dumps++
		n := b.dumps
		b.mu.Unlock()
		base := filepath.Join(b.out, fmt.Sprintf("mismatch-%03d", n))
		_ = os.WriteFile(base+".want.jsonl", want, 0o644)
		_ = os.WriteFile(base+".got.jsonl", got, 0o644)
	}
}

func (b *bench) set(name string, v float64) { b.metrics[name] = v }

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 45, "how long the timed phase measures")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	scale := fs.Float64("scale", 1, "study size multiplier (smoke tests use a small one)")
	bin := fs.String("bin", "", "directory holding the ctsan and ctsand binaries (required)")
	out := fs.String("out", "", "result directory (default <bin>/results/<workload>-s<seed>-t<trace>)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	switch {
	case wl == nil:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, workloadNames())
		return 2
	case *seconds < 1 || *trace < 0 || *trace > 1 || *scale <= 0 || *bin == "":
		fmt.Fprintln(stderr, "perfbench: need -seconds >= 1, -trace 0 or 1, -scale > 0 and -bin")
		return 2
	}
	if *out == "" {
		// The default directory is the benchmark's own: clear what an
		// earlier run with the same arguments left there.
		*out = filepath.Join(*bin, "results", fmt.Sprintf("%s-s%d-t%d", wl.name, *seed, *trace))
		if err := os.RemoveAll(*out); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(filepath.Join(*bin, "tmp"), 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(filepath.Join(*bin, "tmp"), "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	b := &bench{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *trace == 1,
		scale: *scale, bin: *bin, tmp: tmp, out: *out, log: stderr,
		metrics: map[string]float64{},
	}
	if b.traced {
		b.rec = newRecorder()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()

	if err := wl.run(ctx, b); err != nil {
		b.fail("%s: %v", wl.name, err)
	}
	b.reapAll()
	if b.attempted == 0 {
		b.fail("no point was checked against the reference")
	}
	if !b.traced {
		b.set("ok_frac", 1-float64(b.failed)/float64(max(b.attempted, 1)))
	}
	if err := b.writeFiles(); err != nil {
		b.fail("writing results: %v", err)
	}
	line, err := b.resultLine()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if len(b.problems) > 0 {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine renders the final line: the end-to-end metrics of an
// untraced run, or the per-layer metrics of a traced one. A workload
// leaves a layer it does not exercise unset, which reads as 0; an unset
// end-to-end metric is a failure.
func (b *bench) resultLine() ([]byte, error) {
	defs := endToEnd
	if b.traced {
		defs = perLayer
	}
	out := resultLine{Attempted: max(b.attempted, 1), Failed: b.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := b.metrics[d.Name]
		if !ok && !b.traced {
			b.fail("end-to-end metric %s was not measured", d.Name)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if b.failed == 0 && len(b.problems) > 0 {
		out.Failed = 1
	}
	out.Correct = len(b.problems) == 0
	return json.Marshal(out)
}

// writeFiles writes the run's metrics, and for a traced run its spans and
// the per-layer self-time table, into the result directory.
func (b *bench) writeFiles() error {
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, n := range names {
		fmt.Fprintf(&sb, "%s\t%v\n", n, b.metrics[n])
	}
	if err := os.WriteFile(filepath.Join(b.out, "metrics.tsv"), []byte(sb.String()), 0o644); err != nil {
		return err
	}
	if !b.traced {
		return nil
	}
	spans := b.rec.snapshot()
	if err := writeSpans(filepath.Join(b.out, "spans.jsonl"), spans); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(b.out, "layers.txt"))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := writeLayerTable(f, foldSelf(spans)); err != nil {
		return err
	}
	return f.Close()
}
