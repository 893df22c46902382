package main

import (
	"time"

	"vmalloc/internal/loadgen"
	"vmalloc/internal/model"
	"vmalloc/internal/workload"
)

// tableIIFleet is vmserve's default generated fleet: 50 servers from the
// paper's Table II catalog with a 2-minute transition time, shuffled by
// the seed.
func tableIIFleet(seed int64) []model.Server {
	inst, err := workload.Generate(workload.Spec{NumVMs: 1, MeanInterArrival: 1, MeanLength: 1},
		workload.FleetSpec{NumServers: 50, TransitionTime: 2}, seed)
	if err != nil {
		panic(err) // the spec is a constant
	}
	return inst.Servers
}

// bigHosts is dense-host's fleet: four hosts of 1024 CPUs and 2048 GB
// each, Table II type-5's power curve scaled to that size.
func bigHosts(int64) []model.Server {
	out := make([]model.Server, 4)
	for i := range out {
		out[i] = model.Server{
			ID: i + 1, Type: "big-1024",
			Capacity: model.Resources{CPU: 1024, Mem: 2048},
			PIdle:    3157, PPeak: 7458, TransitionTime: 2,
		}
	}
	return out
}

// The service workloads. Their sizes are chosen so one round takes one
// to three seconds on a 2-CPU machine, and a 10-second run leaves at
// least ten samples beyond every reported percentile.
var (
	gateDiurnal = &svcSpec{
		shards: 2, gate: true, telemetry: true,
		interval: 8 * time.Millisecond,
		fleet:    tableIIFleet,
		schedule: loadgen.ScheduleSpec{
			Profile:         loadgen.DiurnalProfile{MeanInterArrival: 0.24, PeakToTrough: 2, Period: 240},
			NumVMs:          2000,
			MeanLength:      60,
			ReleaseFraction: 0.2,
		},
		consolidateEvery: 20,
		readEvery:        64,
	}
	denseHost = &svcSpec{
		shards: 1,
		fleet:  bigHosts,
		schedule: loadgen.ScheduleSpec{
			Profile:         loadgen.PoissonProfile{MeanInterArrival: 1.0 / 32},
			NumVMs:          1900,
			MeanLength:      denseMeanLength,
			ReleaseFraction: 0.05,
			Classes:         []model.VMClass{model.ClassStandard},
		},
		chunk: 8,
		shape: smallVMs,
	}
	durableChurn = &svcSpec{
		shards: 1, telemetry: true, durable: true,
		fleet: tableIIFleet,
		schedule: loadgen.ScheduleSpec{
			Profile:         loadgen.PoissonProfile{MeanInterArrival: 0.4},
			NumVMs:          1000,
			MeanLength:      60,
			ReleaseFraction: 0.4,
		},
		chunk:     1,
		readEvery: 8,
	}
)

// denseMeanLength is dense-host's mean VM lifetime in minutes.
const denseMeanLength = 300

// smallVMs rewrites every demand of a schedule to Table I's standard-2
// shape (2 CPUs, 3.75 GB) and caps each lifetime at twice the mean:
// dense-host's small, long-lived VMs. With one shape, a full 1024-CPU
// host holds exactly 512 of them, so the peak density — which sets the
// ledger's cost — is the same for every seed; with the cap, how long a
// host stays awake after the arrivals stop no longer hangs on the one
// longest exponential draw, which made energy_wmin swing by a fifth
// between seeds.
func smallVMs(s *loadgen.Schedule, _ int64) {
	vt := model.VMTypeCatalog()[1]
	const maxLen = 2 * denseMeanLength
	for i := range s.Steps {
		for j := range s.Steps[i].Admits {
			a := &s.Steps[i].Admits[j]
			a.Type, a.Demand = vt.Name, vt.Resources()
			a.DurationMinutes = min(a.DurationMinutes, maxLen)
		}
	}
}

// workloadDef runs one workload; it measures every metric in endToEnd
// and perLayer, and may measure more.
type workloadDef struct {
	run func(cfg runConfig, rep *report) error
}

var workloads = map[string]workloadDef{
	"gate-diurnal":  {run: func(cfg runConfig, rep *report) error { return runService(gateDiurnal, cfg, rep) }},
	"dense-host":    {run: func(cfg runConfig, rep *report) error { return runService(denseHost, cfg, rep) }},
	"durable-churn": {run: func(cfg runConfig, rep *report) error { return runService(durableChurn, cfg, rep) }},
	"paper-offline": {run: runOffline},
}

// endToEnd and perLayer are the metrics the result line carries, in
// BENCHMARK.json's order: every workload reports each of them. The other
// metrics a workload measures are printed above the result line only.
var (
	endToEnd = []string{"admit_ops_s", "admit_p50_ms", "energy_wmin", "accepted_ratio", "setup_s", "heap_peak_mb"}
	perLayer = []string{"online.scan_p50_us", "online.commit_p50_us",
		"timeline.residents_per_server", "timeline.add_p50_us", "timeline.remove_p50_us", "timeline.maxusage_p50_ns",
		"energy.incremental_p50_ns"}
)

// units maps every metric to its unit.
var units = map[string]string{
	"admit_ops_s": "ops/s", "admit_p50_ms": "ms", "admit_p99_ms": "ms",
	"release_p50_ms": "ms", "state_read_p50_ms": "ms", "energy_wmin": "W.min",
	"accepted_ratio": "fraction", "reduction_ratio": "fraction",
	"recovery_s": "s", "setup_s": "s", "heap_peak_mb": "MiB",

	"loadgen.late_p99_ms": "ms", "loadgen.retries": "count",
	"shard.admit_self_p50_us": "us", "shard.state_self_p50_us": "us", "shard.calls_per_op": "calls/op",
	"clusterhttp.admit_self_p50_us": "us", "clusterhttp.state_p50_us": "us", "clusterhttp.bytes_per_vm": "B/VM",
	"cluster.queue_p50_us": "us", "cluster.vms_per_batch": "VMs/batch", "cluster.batches_per_fsync": "batches/fsync",
	"cluster.journal_p50_us": "us", "cluster.fsync_p50_us": "us", "cluster.fsync_p99_us": "us",
	"cluster.journal_bytes_per_op": "B/op", "cluster.snapshots": "count",
	"cluster.consolidate_p50_ms": "ms", "cluster.advance_total_s": "s",
	"online.scan_p50_us": "us", "online.commit_p50_us": "us", "online.candidates_per_vm": "servers/VM",
	"online.pruned_ratio":           "fraction",
	"timeline.residents_per_server": "VMs/server", "timeline.add_p50_us": "us",
	"timeline.remove_p50_us": "us", "timeline.maxusage_p50_ns": "ns",
	"obs.spans_per_op": "spans/op", "obs.decisions_per_op": "decisions/op",
	"core.candidates_per_vm": "servers/VM", "core.rejected_ratio": "fraction", "core.worker_busy_ratio": "fraction",
	"energy.incremental_p50_ns": "ns", "energy.evaluate_ms": "ms", "baseline.ffps_s": "s",
	"bench.trace_overhead_ratio": "ratio",
}
