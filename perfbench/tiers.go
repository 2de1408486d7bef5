package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"

	"ctsan/campaign"
	"ctsan/internal/checkpoint"
	"ctsan/internal/server"
)

// The tiers-small-points workload drives the shipped binaries. Each
// batch starts a fresh ctsand on an ephemeral port and a fresh cache
// directory, then runs four phases:
//
//  1. ctsan run -shards 2 -workers 1 on study A;
//  2. a cold submission of A to ctsand -workers 2 -max-active 1;
//  3. a cold ?mode=fleet submission of study B, served by two
//     ctsan worker -workers 1 -study-id processes;
//  4. repeated warm resubmissions of A and B, fully cache-served, so the
//     fleet grants no lease.
//
// Every output is compared byte for byte with in-process campaign.Run
// references of A and B.

// fleetWorkers is the number of ctsan worker processes serving the fleet
// phase, each on workers/fleetWorkers goroutines. It is 1 because ctsand
// can stream a fleet study out of grid order when two uploads finish
// together: the ledger flushes each upload's contiguous prefix under its
// lock, but the handlers append the flushed lines to the result stream
// after releasing it, in whichever order they get there. With one worker
// no two uploads overlap. Raise it to 2 once the append happens in
// flush order.
const fleetWorkers = 1

// tierWarmReps is how many times each batch resubmits A and B once
// they are cached.
const tierWarmReps = 10

var listenRe = regexp.MustCompile(`listening on http://([^/\s]+)/`)

// tiers holds one run's inputs and references.
type tiers struct {
	b                *bench
	specA            string // A's spec file, for ctsan run and merge
	rawA, rawB       []byte
	warmup           []byte // the per-batch warm-up study spec
	refA, refB       []byte
	instA, instB     int
	cacheRecords     [][]byte // study C's records, warm-loaded at start-up
	pointsA, pointsB int
	studyA           *campaign.Study
	resultsA         []*campaign.Result
}

// batchOut is what one batch measured.
type batchOut struct {
	setup   float64 // seconds
	wall13  float64 // phases 1-3, seconds
	wall    float64 // phases 1-4, seconds
	cpu     float64 // seconds, benchmark plus every child
	warmMS  []float64
	phase24 float64 // phases 2-4, seconds (sizes the service profile)
}

func runTiers(ctx context.Context, b *bench) error {
	t, err := prepareTiers(ctx, b)
	if err != nil {
		return err
	}
	// Times and rates are scaled to the reference host by calibration
	// runs between the batches, when no child is running (calib.go).
	// peak_rss_mb is the median over batches of the largest peak of the
	// program's processes (ctsand, ctsan run and its shards, ctsan
	// worker) in each; the benchmark process is the load generator.
	var setups, rates, cpus, warm, walls, service, peaks []float64
	sp := newSpeed()
	end := time.Now().Add(b.seconds)
	for len(walls) == 0 || (time.Now().Before(end) && !b.traced) {
		if err := b.resetPeak(); err != nil {
			return err
		}
		o, err := t.batch(ctx, nil)
		if err != nil {
			return err
		}
		b.forgetExited()
		sp.calibrate()
		setups, cpus, walls = append(setups, o.setup), append(cpus, o.cpu), append(walls, o.wall)
		peaks = append(peaks, b.childPeakMiB())
		service = append(service, o.phase24)
		rates = append(rates, float64(2*t.instA+t.instB)/o.wall13)
		warm = append(warm, o.warmMS...)
	}
	b.setScaled(sp, setups, rates, cpus, warm)
	b.set("peak_rss_mb", median(peaks))
	fmt.Fprintf(b.log, "perfbench: %d batches of %d+%d points\n", len(walls), t.pointsA, t.pointsB)
	if !b.traced {
		return nil
	}
	tr := &tracedBatch{profileSeconds: int(math.Ceil(median(service)))}
	o, err := t.batch(ctx, tr)
	if err != nil {
		return err
	}
	b.set("trace.overhead_frac", o.wall/median(walls)-1)
	if err := t.tracedMetrics(tr); err != nil {
		return err
	}
	lay := &layers{b: b, study: t.studyA, results: t.resultsA}
	_, err = lay.measure(ctx, false)
	return err
}

// prepareTiers generates the studies, writes their specs, and computes
// the in-process references (untimed).
func prepareTiers(ctx context.Context, b *bench) (*tiers, error) {
	a, bs, c := tiersStudies(b.seed, b.scale)
	t := &tiers{b: b, pointsA: len(a.Points), pointsB: len(bs.Points)}
	var err error
	if t.rawA, err = campaign.EncodeStudy(a); err != nil {
		return nil, err
	}
	if t.rawB, err = campaign.EncodeStudy(bs); err != nil {
		return nil, err
	}
	w := campaign.NewStudy("warm-up", a.Points[0], a.Points[2])
	for i, p := range w.Points { // fresh seeds: the warm-up must miss the cache
		switch q := p.(type) {
		case campaign.SANPoint:
			q.Seed ^= 0x5eed
			w.Points[i] = q
		case campaign.LatencyPoint:
			q.Seed ^= 0x5eed
			w.Points[i] = q
		}
	}
	if t.warmup, err = campaign.EncodeStudy(w); err != nil {
		return nil, err
	}
	t.specA = filepath.Join(b.tmp, "a.json")
	if err := os.WriteFile(t.specA, t.rawA, 0o644); err != nil {
		return nil, err
	}
	if t.studyA, err = campaign.DecodeStudy(t.rawA); err != nil {
		return nil, err
	}
	var resB []*campaign.Result
	if t.refA, t.resultsA, err = reference(ctx, t.studyA, workers); err != nil {
		return nil, err
	}
	if t.refB, resB, err = reference(ctx, bs, workers); err != nil {
		return nil, err
	}
	for _, p := range append(groundTruth(t.studyA, t.resultsA), groundTruth(bs, resB)...) {
		b.fail("ground truth: %s", p)
	}
	t.instA, t.instB = instances(t.resultsA), instances(resB)

	_, resC, err := reference(ctx, c, workers)
	if err != nil {
		return nil, err
	}
	fpc, err := c.FrozenPoints()
	if err != nil {
		return nil, err
	}
	for i, r := range resC {
		line, err := campaign.EncodeShardRecord(fpc[i].Hash, r)
		if err != nil {
			return nil, err
		}
		t.cacheRecords = append(t.cacheRecords, line)
	}
	return t, nil
}

// tracedBatch collects what the traced batch observes beyond timings.
type tracedBatch struct {
	profileSeconds int
	profile        []byte
	shardLog       string
	mergeS         float64
	submitMS       []float64
	queueMS        []float64
	firstMS        []float64
	busy           []int
	hits, lookups  int64
	vars           map[string]json.Number
}

// batch runs set-up and the four phases once. With tr set it is the
// traced batch: spans around every call, a CPU profile of ctsand over
// phases 2-4, status sampling during the fleet phase and the service
// counters afterwards.
func (t *tiers) batch(ctx context.Context, tr *tracedBatch) (*batchOut, error) {
	b := t.b
	rec := b.rec
	if tr == nil {
		rec = nil
	}
	dir, err := os.MkdirTemp(b.tmp, "batch-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cacheDir := filepath.Join(dir, "cache")
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return nil, err
	}
	store, err := checkpoint.Open(filepath.Join(cacheDir, server.SpillFile))
	if err != nil {
		return nil, err
	}
	if err := store.AppendBatch(t.cacheRecords); err != nil {
		return nil, err
	}

	out := &batchOut{}
	var root int64
	var svc *child
	var api *client
	// The traced batch profiles ctsand from phase 2 on; the profile
	// request is cancelled if the batch fails, and always waited for.
	profCtx, profCancel := context.WithCancel(ctx)
	defer profCancel()
	var profDone chan error
	err = rec.do(0, "tiers.batch", "", func(id int64) error {
		root = id
		t0 := time.Now()
		if err := rec.do(root, "ctsand.setup", "", func(int64) error {
			svc, api, err = t.startService(ctx, cacheDir)
			return err
		}); err != nil {
			return err
		}
		out.setup = time.Since(t0).Seconds()

		svcCPU0, err := procCPU(svc.cmd.Process.Pid)
		if err != nil {
			return err
		}
		cpu0, start := cpuTime(), time.Now()
		if err := rec.do(root, "ctsan.run", "A", func(int64) error {
			return t.phaseShards(ctx, dir, tr)
		}); err != nil {
			return err
		}
		p2 := time.Now()
		if tr != nil {
			profDone = make(chan error, 1)
			go func() {
				var err error
				tr.profile, err = api.get(profCtx, fmt.Sprintf("/debug/pprof/profile?seconds=%d", tr.profileSeconds))
				profDone <- err
			}()
		}
		if err := rec.do(root, "server.cold", "A+B", func(id int64) error {
			return t.phaseService(ctx, api, rec, id, dir, tr)
		}); err != nil {
			return err
		}
		out.wall13 = time.Since(start).Seconds()
		if tr != nil {
			if tr.vars, err = api.vars(ctx); err != nil {
				return err
			}
		}
		for range tierWarmReps {
			for _, st := range []struct{ raw, ref []byte }{{t.rawA, t.refA}, {t.rawB, t.refB}} {
				w0 := time.Now()
				sub, err := t.submit(ctx, api, rec, root, st.raw, "local", st.ref)
				if err != nil {
					return err
				}
				sub.warm = true
				if err := t.collect(ctx, api, rec, root, sub, tr); err != nil {
					return err
				}
				out.warmMS = append(out.warmMS, float64(time.Since(w0).Microseconds())/1000)
			}
		}
		out.wall = time.Since(start).Seconds()
		out.phase24 = time.Since(p2).Seconds()
		fmt.Fprintf(b.log, "perfbench: batch: set-up %.3fs, shards %.3fs, service %.3fs, warm %.3fs\n",
			out.setup, out.wall-out.phase24, out.wall13-(out.wall-out.phase24), out.wall-out.wall13)
		svcCPU1, err := procCPU(svc.cmd.Process.Pid)
		if err != nil {
			return err
		}
		out.cpu = (cpuTime() - cpu0 + svcCPU1 - svcCPU0).Seconds()
		if tr != nil {
			t0 := time.Now()
			if err := t.merge(ctx, dir); err != nil {
				return err
			}
			tr.mergeS = time.Since(t0).Seconds()
		}
		return nil
	})
	if profDone != nil {
		if err != nil {
			profCancel()
		}
		if perr := <-profDone; perr != nil && err == nil {
			err = fmt.Errorf("ctsand profile: %w", perr)
		}
	}
	if api != nil {
		api.close()
	}
	if svc != nil {
		if serr := svc.stop(20 * time.Second); serr != nil && err == nil {
			err = serr
		}
	}
	return out, err
}

// startService starts ctsand on an ephemeral port over cacheDir, waits
// for its listen line, decodes and freezes both specs, and runs one
// warm-up study (one SAN and one emulation point) through it.
func (t *tiers) startService(ctx context.Context, cacheDir string) (*child, *client, error) {
	svc, err := t.b.start("ctsand", "ctsand", "-addr", "127.0.0.1:0", "-workers", strconv.Itoa(workers),
		"-max-active", "1", "-cache-dir", cacheDir, "-seed", "1")
	if err != nil {
		return nil, nil, err
	}
	addr, err := svc.waitOutput(ctx, listenRe, 30*time.Second)
	if err != nil {
		return svc, nil, err
	}
	api := newClient("http://" + addr)
	for _, raw := range [][]byte{t.rawA, t.rawB} {
		s, err := campaign.DecodeStudy(raw)
		if err != nil {
			return svc, api, err
		}
		if _, err := s.FrozenPoints(); err != nil {
			return svc, api, err
		}
	}
	id, err := api.submit(ctx, t.warmup, "local")
	if err != nil {
		return svc, api, err
	}
	if _, _, err := api.results(ctx, id); err != nil {
		return svc, api, err
	}
	return svc, api, nil
}

// phaseShards is phase 1: ctsan run over study A with two shard
// subprocesses of one worker each.
func (t *tiers) phaseShards(ctx context.Context, dir string, tr *tracedBatch) error {
	outPath := filepath.Join(dir, "shards.jsonl")
	c, err := t.b.start("ctsan run", "ctsan", "run", "-study", t.specA, "-seed", "1", "-shards", "2",
		"-procs", strconv.Itoa(workers), "-workers", "1", "-dir", filepath.Join(dir, "shards"), "-o", outPath)
	if err != nil {
		return err
	}
	if err := c.wait(ctx, 120*time.Second); err != nil {
		return err
	}
	if tr != nil {
		tr.shardLog, _ = c.out.snapshot()
	}
	got, err := os.ReadFile(outPath)
	if err != nil {
		return err
	}
	t.b.compare("ctsan run -shards 2", t.refA, got)
	return nil
}

// merge times ctsan merge over phase 1's checkpoint directory.
func (t *tiers) merge(ctx context.Context, dir string) error {
	outPath := filepath.Join(dir, "merged.jsonl")
	c, err := t.b.start("ctsan merge", "ctsan", "merge", "-study", t.specA, "-seed", "1",
		"-dir", filepath.Join(dir, "shards"), "-o", outPath)
	if err != nil {
		return err
	}
	if err := c.wait(ctx, 60*time.Second); err != nil {
		return err
	}
	got, err := os.ReadFile(outPath)
	if err != nil {
		return err
	}
	t.b.compare("ctsan merge", t.refA, got)
	return nil
}

// submission is one study submitted to the service.
type submission struct {
	id, mode string
	ref      []byte
	t0       time.Time // when the POST was sent
	accepted time.Time // when its response arrived
	warm     bool      // fully cache-served
}

// submit posts one study spec.
func (t *tiers) submit(ctx context.Context, api *client, rec *recorder, parent int64, raw []byte, mode string, ref []byte) (*submission, error) {
	s := &submission{mode: mode, ref: ref, t0: time.Now()}
	err := rec.do(parent, "server.submit", mode, func(int64) error {
		var err error
		s.id, err = api.submit(ctx, raw, mode)
		return err
	})
	s.accepted = time.Now()
	return s, err
}

// collect reads a submitted study's result stream to the end and
// compares it with the reference. In the traced batch it also records
// the submit, first-result and queue-wait times and, for cache-served
// studies, the hit counts.
func (t *tiers) collect(ctx context.Context, api *client, rec *recorder, parent int64, s *submission, tr *tracedBatch) error {
	var body []byte
	var first time.Time
	if err := rec.do(parent, "server.stream", s.id, func(int64) error {
		var err error
		body, first, err = api.results(ctx, s.id)
		return err
	}); err != nil {
		return err
	}
	t.b.compare("ctsand "+s.mode+" study", s.ref, body)
	if tr == nil {
		return nil
	}
	tr.submitMS = append(tr.submitMS, ms(s.accepted.Sub(s.t0)))
	if !first.IsZero() {
		tr.firstMS = append(tr.firstMS, ms(first.Sub(s.t0)))
	}
	st, err := api.status(ctx, s.id)
	if err != nil {
		return err
	}
	tr.queueMS = append(tr.queueMS, queueWait(st))
	if s.warm {
		tr.hits += st.CacheHits
		tr.lookups += st.CacheHits + st.CacheMisses
	}
	return nil
}

// phaseService is phases 2 and 3: a cold local submission of A, then a
// cold fleet submission of B served by two pinned workers.
//
// B is submitted while A holds the service's only slot, and nothing
// reads B's status until B is done. A fleet study that starts while its
// status is being read can deadlock ctsand: leaseMgr.preserve holds the
// ledger lock while it counts cache lookups under the study lock, and
// study.snapshot holds the study lock while it reads the ledger. Queued
// behind A, B's submit response is rendered before B starts.
//
// Each worker must exit by itself once the study is done ("study is
// done") before the service stops, because a pinned worker retries
// forever against a service that is gone.
func (t *tiers) phaseService(ctx context.Context, api *client, rec *recorder, parent int64, dir string, tr *tracedBatch) error {
	subA, err := t.submit(ctx, api, rec, parent, t.rawA, "local", t.refA)
	if err != nil {
		return err
	}
	subB, err := t.submit(ctx, api, rec, parent, t.rawB, "fleet", t.refB)
	if err != nil {
		return err
	}
	var kids []*child
	for i := range fleetWorkers {
		name := fmt.Sprintf("w%d", i)
		c, err := t.b.start("ctsan worker "+name, "ctsan", "worker", "-server", api.base, "-study-id", subB.id,
			"-workers", strconv.Itoa(workers/fleetWorkers), "-name", name, "-dir", filepath.Join(dir, name))
		if err != nil {
			return err
		}
		kids = append(kids, c)
	}
	if err := t.collect(ctx, api, rec, parent, subA, tr); err != nil {
		return err
	}
	// B's results are read once both workers are gone, not followed
	// live: ctsand can end a fleet study's live stream before the lines
	// of its last upload are appended (the ledger signals done under its
	// lock, the upload handler appends after releasing it), so a live
	// reader may miss the tail. The replay after the last upload is
	// complete.
	if err := rec.do(parent, "server.fleet", subB.id, func(int64) error {
		for tr != nil && !exited(kids) {
			vars, err := api.vars(ctx)
			if err != nil {
				return err
			}
			n, _ := vars["ctsan.fleet_workers_busy"].Int64()
			tr.busy = append(tr.busy, int(n))
			select {
			case <-time.After(20 * time.Millisecond):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		for _, c := range kids {
			werr := c.wait(ctx, 60*time.Second)
			if text, _ := c.out.snapshot(); werr == nil && !strings.Contains(text, "is done") {
				werr = fmt.Errorf("%s exited without reporting the study done:\n%s", c.name, tail(text))
			}
			if werr != nil {
				t.b.check(0, 1, werr.Error())
				continue
			}
			rec.add(parent, "ctsan.worker", c.name, c.started, c.exitedAt)
		}
		return nil
	}); err != nil {
		return err
	}
	return t.collect(ctx, api, rec, parent, subB, tr)
}

// exited reports whether every child has exited.
func exited(kids []*child) bool {
	for _, c := range kids {
		select {
		case <-c.done:
		default:
			return false
		}
	}
	return true
}

// tracedMetrics turns the traced batch's observations into the shard
// and server per-layer metrics and the service's CPU shares.
func (t *tiers) tracedMetrics(tr *tracedBatch) error {
	b := t.b
	b.set("shard.attempts", float64(len(regexp.MustCompile(`attempt \d+/\d+ starting`).FindAllString(tr.shardLog, -1))))
	b.set("shard.retries", float64(len(regexp.MustCompile(`failed \(.*\), retrying`).FindAllString(tr.shardLog, -1))))
	b.set("shard.merge_s", tr.mergeS)
	b.set("server.submit_ms", median(tr.submitMS))
	b.set("server.queue_wait_ms", median(tr.queueMS))
	b.set("server.first_result_ms", median(tr.firstMS))
	if tr.lookups > 0 {
		b.set("server.cache_hit_frac", float64(tr.hits)/float64(tr.lookups))
	}
	v := func(m map[string]json.Number, name string) float64 {
		f, _ := m["ctsan."+name].Float64()
		return f
	}
	b.set("server.leases_granted", v(tr.vars, "leases_granted"))
	b.set("server.leases_expired", v(tr.vars, "leases_expired"))
	b.set("server.points_requeued", v(tr.vars, "lease_points_requeued"))
	b.set("server.upload_rejected", v(tr.vars, "upload_rejected"))
	b.set("server.upload_bytes_per_point", v(tr.vars, "upload_bytes")/float64(t.pointsB))
	busy := 0
	for _, n := range tr.busy {
		busy += n
	}
	if len(tr.busy) > 0 {
		b.set("server.workers_busy_frac", float64(busy)/float64(len(tr.busy))/fleetWorkers)
	}
	return b.setShares(tr.profile)
}

// procCPU reads a running process's user plus system CPU from
// /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	const clkTck = 100 // USER_HZ, fixed at 100 on Linux
	return time.Duration(utime+stime) * time.Second / clkTck, nil
}

// queueWait is a finished study's started minus submitted time, in ms.
func queueWait(st server.Status) float64 {
	sub, err1 := time.Parse(time.RFC3339Nano, st.Submitted)
	start, err2 := time.Parse(time.RFC3339Nano, st.Started)
	if err1 != nil || err2 != nil {
		return 0
	}
	return ms(start.Sub(sub))
}

// client is the benchmark's HTTP client for one ctsand: at most two
// connections (the API and, in the traced batch, the profile request).
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(msg)))
	}
	return resp, nil
}

// send makes a request and returns the whole response body.
func (c *client) send(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	resp, err := c.do(ctx, method, path, body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

func (c *client) get(ctx context.Context, path string) ([]byte, error) {
	return c.send(ctx, http.MethodGet, path, nil)
}

// submit posts a study spec and returns the study ID.
func (c *client) submit(ctx context.Context, spec []byte, mode string) (string, error) {
	body, err := c.send(ctx, http.MethodPost, "/api/v1/studies?seed=1&mode="+mode, spec)
	if err != nil {
		return "", err
	}
	var st server.Status
	return st.ID, json.Unmarshal(body, &st)
}

// results reads a study's JSONL stream to its end and reports when the
// first line arrived. A study that fails ends its stream early, which
// the byte comparison with the reference reports.
func (c *client) results(ctx context.Context, id string) ([]byte, time.Time, error) {
	resp, err := c.do(ctx, http.MethodGet, "/api/v1/studies/"+id+"/results", nil)
	if err != nil {
		return nil, time.Time{}, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	var first time.Time
	r := bufio.NewReader(resp.Body)
	for {
		line, err := r.ReadBytes('\n')
		if len(line) > 0 && first.IsZero() {
			first = time.Now()
		}
		buf.Write(line)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, first, err
		}
	}
	return buf.Bytes(), first, nil
}

func (c *client) status(ctx context.Context, id string) (server.Status, error) {
	var st server.Status
	body, err := c.get(ctx, "/api/v1/studies/"+id)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(body, &st)
}

// vars reads the service's expvar counters.
func (c *client) vars(ctx context.Context) (map[string]json.Number, error) {
	body, err := c.get(ctx, "/debug/vars")
	if err != nil {
		return nil, err
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		return nil, err
	}
	out := map[string]json.Number{}
	for k, v := range raw {
		var n json.Number
		if json.Unmarshal(v, &n) == nil {
			out[k] = n
		}
	}
	return out, nil
}
