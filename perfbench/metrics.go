package main

// metricDef declares one reported metric. The same names, units and
// bounds appear in BENCHMARK.json at the repository root; a test keeps
// the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, reported by
// untraced runs of every workload. The bounds are wide because the
// benchmark runs on shared two-core virtual machines whose speed drifts
// by 10-30% over minutes. The time metrics are scaled to the reference
// host (calib.go): in sets of ten seeds on such a host the quartile
// spread of consensus_per_s was 0.05-0.09 scaled against 0.21-0.28
// unscaled on library-sweeps, and 0.06-0.10 against 0.10-0.17 on
// tiers-small-points.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"consensus_per_s", "1/s", "higher", 0.25},
	{"warm_study_ms", "ms", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.2},
	{"ok_frac", "ratio", "higher", 0.01},
}

// cpuSharePkgs are the packages the traced run's CPU profile is folded
// into (cpu_share.<pkg>): the self time of layers below the engine entry
// points, which no span taken from outside the program can reach.
var cpuSharePkgs = []string{
	"des", "netsim", "neko", "fd", "consensus", "san", "sanmodel", "rng", "dist",
	"metrics", "scenario", "experiment", "campaign", "parallel", "checkpoint", "server", "runtime",
}

// perLayer are the metrics of single layers, reported by traced runs.
// A workload reports 0 for a layer it does not exercise (the library
// workload starts no process and no service).
var perLayer = append([]metricDef{
	{"campaign.freeze_us_per_point", "us", "lower", 0},
	{"campaign.encode_us_per_record", "us", "lower", 0},
	{"campaign.verify_us_per_record", "us", "lower", 0},
	{"sanmodel.build_us", "us", "lower", 0},
	{"san.replica_us", "us", "lower", 0},
	{"san.allocs_per_replica", "count", "lower", 0},
	{"experiment.exec_us", "us", "lower", 0},
	{"scenario.exec_us", "us", "lower", 0},
	{"des.events_per_consensus", "count", "lower", 0},
	{"des.ns_per_event", "ns", "lower", 0},
	{"experiment.allocs_per_consensus", "count", "lower", 0},
	{"netsim.sends_per_consensus", "count", "lower", 0},
	{"netsim.drops_per_consensus", "count", "lower", 0},
	{"consensus.rounds_per_decision", "count", "lower", 0},
	{"fd.heartbeats_per_consensus", "count", "lower", 0},
	{"fd.wrong_suspicions", "count", "lower", 0},
	{"checkpoint.append_ms_first", "ms", "lower", 0},
	{"checkpoint.append_ms_last", "ms", "lower", 0},
	{"checkpoint.bytes_rewritten_per_record", "B", "lower", 0},
	{"shard.attempts", "count", "lower", 0},
	{"shard.retries", "count", "lower", 0},
	{"shard.merge_s", "s", "lower", 0},
	{"server.submit_ms", "ms", "lower", 0},
	{"server.queue_wait_ms", "ms", "lower", 0},
	{"server.first_result_ms", "ms", "lower", 0},
	{"server.cache_hit_frac", "ratio", "higher", 0},
	{"server.leases_granted", "count", "lower", 0},
	{"server.leases_expired", "count", "lower", 0},
	{"server.points_requeued", "count", "lower", 0},
	{"server.upload_bytes_per_point", "B", "lower", 0},
	{"server.upload_rejected", "count", "lower", 0},
	{"server.workers_busy_frac", "ratio", "higher", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
}, cpuShareDefs()...)

func cpuShareDefs() []metricDef {
	defs := make([]metricDef, len(cpuSharePkgs))
	for i, p := range cpuSharePkgs {
		defs[i] = metricDef{"cpu_share." + p, "ratio", "lower", 0}
	}
	return defs
}
