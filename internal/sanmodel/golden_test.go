package sanmodel_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"ctsan/campaign"
	"ctsan/internal/sanmodel"
)

var update = flag.Bool("update", false, "rewrite testdata/campaign_golden.jsonl from the current engine")

const goldenPath = "testdata/campaign_golden.jsonl"

// goldenStudy covers every structural variant of the consensus model the
// campaign API can express: n = 3/5/7, a crashed coordinator and a crashed
// participant, class-3 failure detectors with deterministic and exponential
// sojourns, and a t_send override.
func goldenStudy() *campaign.Study {
	const r = 300
	return campaign.NewStudy("san-golden",
		campaign.SANPoint{Name: "n3", N: 3, Replicas: r},
		campaign.SANPoint{Name: "n5", N: 5, Replicas: r},
		campaign.SANPoint{Name: "n7", N: 7, Replicas: r},
		campaign.SANPoint{Name: "n5 crash-coord", N: 5, Replicas: r, Crashed: []int{1}},
		campaign.SANPoint{Name: "n5 crash-part", N: 5, Replicas: r, Crashed: []int{3}},
		campaign.SANPoint{Name: "n3 fd-det", N: 3, Replicas: r, TMR: 15, TM: 2},
		campaign.SANPoint{Name: "n5 fd-exp", N: 5, Replicas: r, TMR: 15, TM: 2, FDExponential: true},
		campaign.SANPoint{Name: "n7 crash-coord fd-exp", N: 7, Replicas: r, Crashed: []int{1}, TMR: 20, TM: 2, FDExponential: true},
		campaign.SANPoint{Name: "n3 tsend", N: 3, Replicas: r, TSend: 0.05},
	)
}

// ablation is a model variant that only sanmodel.Params can express.
type ablation struct {
	name   string
	params func() sanmodel.Params
}

func goldenAblations() []ablation {
	return []ablation{
		{"unicast-broadcast n3", func() sanmodel.Params {
			p := sanmodel.DefaultParams(3)
			p.UnicastBroadcast = true
			return p
		}},
		{"unicast-broadcast n3 crash-part", func() sanmodel.Params {
			p := sanmodel.DefaultParams(3)
			p.UnicastBroadcast = true
			p.Crashed = []int{2}
			return p
		}},
		{"fd-correlated n5", func() sanmodel.Params {
			p := sanmodel.DefaultParams(5)
			p.FD = sanmodel.FDModel{TMR: 10, TM: 2, Kind: sanmodel.FDExponential}
			p.FDCorrelated = true
			return p
		}},
	}
}

// samplesHash fingerprints every retained sample bit for bit, so a golden
// line pins the whole replica sequence, not only the summary statistics.
func samplesHash(xs []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenBytes renders the study's JSONL stream, one samples-hash line per
// point, then one line per ablation.
func goldenBytes(t *testing.T, workers int) []byte {
	t.Helper()
	var buf bytes.Buffer
	var coll campaign.Collect
	if err := campaign.Run(context.Background(), goldenStudy(),
		campaign.WithSeed(7),
		campaign.WithWorkers(workers),
		campaign.WithSink(campaign.NewJSONLWriter(&buf)),
		campaign.WithSink(&coll),
	); err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(&buf)
	for _, r := range coll.Results {
		if err := enc.Encode(map[string]any{"point": r.Point, "samples_sha256": samplesHash(r.Samples())}); err != nil {
			t.Fatal(err)
		}
	}
	for i, ab := range goldenAblations() {
		res, err := sanmodel.SimulateContext(context.Background(), ab.params(), 300, 1e7, uint64(100+i), workers)
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(map[string]any{
			"ablation":       ab.name,
			"n":              res.Digest.N(),
			"truncated":      res.Truncated,
			"mean_ms":        res.Digest.Mean(),
			"samples_sha256": samplesHash(res.Digest.Exact()),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestCampaignGolden pins the SAN engine's output bytes across versions:
// any change to the simulator that alters a single replica's trajectory
// (RNG draw order, tie-breaking among instantaneous activities, enabling
// semantics) changes this stream. Regenerate with -update only for an
// intended change of the model's semantics.
func TestCampaignGolden(t *testing.T) {
	got := goldenBytes(t, 1)
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("workers=1: SAN campaign output differs from %s:\n got: %s\nwant: %s", goldenPath, got, want)
	}
	if got2 := goldenBytes(t, 2); !bytes.Equal(got2, want) {
		t.Fatalf("workers=2: SAN campaign output differs from %s:\n got: %s\nwant: %s", goldenPath, got2, want)
	}
}
