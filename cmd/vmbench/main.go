// Command vmbench captures the repo's committed performance baseline:
// it measures the numbers regressions hide in — end-to-end admission
// throughput through the vmserve HTTP stack, group-commit admission
// throughput against a real fsync-on journal, the candidate scan cost
// per VM placed (full scan and feasibility-index scan), and the journal
// fsync tail — and writes them as one JSON document (the newest
// BENCH_*.json at the repo root is the committed snapshot; `make
// baseline` refreshes it).
//
// Everything runs in-process against real components: a volatile
// cluster behind the real clusterhttp handler driven by the real
// loadgen client for throughput, an online fleet for the scan
// micro-benchmarks, and journaled clusters with fsync enabled for the
// group-commit and fsync-latency numbers. Numbers are machine-dependent;
// -compare refuses to judge documents whose hardware fingerprint (goos,
// goarch, numCPU, gomaxprocs) differs.
//
// Usage:
//
//	vmbench -out BENCH_8.json
//	vmbench -out - -compare BENCH_8.json   # exit 1 on >25% regression
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"vmalloc/internal/api"
	"vmalloc/internal/cluster"
	"vmalloc/internal/clusterhttp"
	"vmalloc/internal/loadgen"
	"vmalloc/internal/model"
	"vmalloc/internal/obs"
	"vmalloc/internal/online"
)

// Result is the committed baseline document.
type Result struct {
	GoVersion string `json:"goVersion"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"numCPU"`
	// GOMAXPROCS is the effective scheduler width the run actually had —
	// NumCPU alone under-describes the machine when the runtime was
	// capped (e.g. in a container).
	GOMAXPROCS int `json:"gomaxprocs"`
	// Parallelism is the cluster scan-worker setting used by the
	// throughput benchmarks (0 = automatic).
	Parallelism int `json:"parallelism"`
	// Timestamp is when this baseline was captured (RFC 3339, UTC).
	Timestamp string `json:"timestamp"`

	// Admission throughput through the full HTTP stack (volatile).
	AdmitOps         int     `json:"admitOps"`
	AdmitChunk       int     `json:"admitChunk"`
	AdmissionsPerSec float64 `json:"admissionsPerSec"`

	// Admission throughput against a real fsync-on journal with
	// concurrent single-admission clients: the group-commit number.
	GroupAdmitOps          int     `json:"groupAdmitOps"`
	GroupAdmitClients      int     `json:"groupAdmitClients"`
	GroupAdmissionsPerSec  float64 `json:"groupAdmissionsPerSec"`
	GroupCommitFsyncGroups uint64  `json:"groupCommitFsyncGroups"`

	// Candidate scan cost. ScanNsPerVM grows a fleet from empty with
	// online.MinCostPolicy's full scan (comparable across baselines).
	// The Loaded/Indexed pair scans one fixed, mostly-saturated fleet —
	// the fleet shape the feasibility index exists for — with the full
	// scan and with FleetView.Candidates + argmin over the survivors.
	ScanVMs            int     `json:"scanVMs"`
	ScanServers        int     `json:"scanServers"`
	ScanNsPerVM        float64 `json:"scanNsPerVM"`
	LoadedScanNsPerVM  float64 `json:"loadedScanNsPerVM"`
	IndexedScanNsPerVM float64 `json:"indexedScanNsPerVM"`

	// Journal fsync latency, sampled from single-admission batches.
	FsyncSamples      int     `json:"fsyncSamples"`
	JournalFsyncP50Ms float64 `json:"journalFsyncP50Ms"`
	JournalFsyncP99Ms float64 `json:"journalFsyncP99Ms"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vmbench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("vmbench", flag.ContinueOnError)
	var (
		out          = fs.String("out", "BENCH_8.json", "write the baseline JSON here (\"-\" = stdout only)")
		compare      = fs.String("compare", "", "baseline JSON to diff against; exit 1 on >25% regression in scanNsPerVM or admissionsPerSec")
		admits       = fs.Int("admits", 4000, "admissions to push through the HTTP stack")
		chunk        = fs.Int("chunk", 100, "admissions per HTTP call")
		groupAdmits  = fs.Int("group-admits", 2000, "admissions to push through the fsync-on group-commit journal")
		groupClients = fs.Int("group-clients", 32, "concurrent clients for the group-commit benchmark")
		scanVMs      = fs.Int("scan-vms", 2000, "VMs to place in the scan micro-benchmark")
		scanServers  = fs.Int("scan-servers", 256, "fleet size for the scan micro-benchmark")
		fsyncSamples = fs.Int("fsync-samples", 400, "journaled single-admission batches to sample")
		parallel     = fs.Int("parallel", 0, "cluster scan workers for the throughput benchmarks (0 = automatic)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	res := Result{
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Parallelism: *parallel,
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
	}
	ctx := context.Background()

	if err := benchAdmissions(ctx, *admits, *chunk, *parallel, &res); err != nil {
		return fmt.Errorf("admission throughput: %w", err)
	}
	if err := benchGroupCommit(ctx, *groupAdmits, *groupClients, *parallel, &res); err != nil {
		return fmt.Errorf("group-commit throughput: %w", err)
	}
	if err := benchScan(*scanVMs, *scanServers, &res); err != nil {
		return fmt.Errorf("candidate scan: %w", err)
	}
	if err := benchFsync(ctx, *fsyncSamples, &res); err != nil {
		return fmt.Errorf("journal fsync: %w", err)
	}

	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if _, err := w.Write(data); err != nil {
		return err
	}
	if *out != "" && *out != "-" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
	}
	if *compare != "" {
		return compareBaseline(*compare, res, w)
	}
	return nil
}

// regressionBudget is how much worse than the committed baseline a
// number may be before the diff fails: 25%.
const regressionBudget = 1.25

// compareBaseline diffs res against a committed baseline document. A
// baseline from different hardware (goos/goarch/numCPU/gomaxprocs) is
// incomparable: the diff is skipped with a notice, not failed — old
// documents that predate the gomaxprocs stamp match any width.
func compareBaseline(path string, res Result, w io.Writer) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Result
	if err := json.Unmarshal(b, &base); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	if base.GOOS != res.GOOS || base.GOARCH != res.GOARCH || base.NumCPU != res.NumCPU ||
		(base.GOMAXPROCS != 0 && base.GOMAXPROCS != res.GOMAXPROCS) {
		fmt.Fprintf(w, "bench-diff: SKIPPED — %s was captured on %s/%s numCPU=%d gomaxprocs=%d, this run is %s/%s numCPU=%d gomaxprocs=%d: incomparable hardware\n",
			path, base.GOOS, base.GOARCH, base.NumCPU, base.GOMAXPROCS,
			res.GOOS, res.GOARCH, res.NumCPU, res.GOMAXPROCS)
		return nil
	}
	failed := false
	// scanNsPerVM: lower is better.
	if base.ScanNsPerVM > 0 && res.ScanNsPerVM > base.ScanNsPerVM*regressionBudget {
		failed = true
		fmt.Fprintf(w, "bench-diff: FAIL scanNsPerVM %.1f > %.1f (baseline %.1f +25%%)\n",
			res.ScanNsPerVM, base.ScanNsPerVM*regressionBudget, base.ScanNsPerVM)
	}
	// admissionsPerSec: higher is better.
	if base.AdmissionsPerSec > 0 && res.AdmissionsPerSec < base.AdmissionsPerSec/regressionBudget {
		failed = true
		fmt.Fprintf(w, "bench-diff: FAIL admissionsPerSec %.1f < %.1f (baseline %.1f -25%%)\n",
			res.AdmissionsPerSec, base.AdmissionsPerSec/regressionBudget, base.AdmissionsPerSec)
	}
	if failed {
		return fmt.Errorf("performance regressed >25%% against %s", path)
	}
	fmt.Fprintf(w, "bench-diff: OK against %s (scanNsPerVM %.1f vs %.1f, admissionsPerSec %.1f vs %.1f)\n",
		path, res.ScanNsPerVM, base.ScanNsPerVM, res.AdmissionsPerSec, base.AdmissionsPerSec)
	return nil
}

// benchServers is a fleet big enough that every benchmark admission is
// accepted: throughput should measure the placement path, not the
// cheaper rejection path.
func benchServers(n int) []model.Server {
	out := make([]model.Server, n)
	for i := range out {
		out[i] = model.Server{
			ID:             i + 1,
			Capacity:       model.Resources{CPU: 128, Mem: 256},
			PIdle:          100,
			PPeak:          200,
			TransitionTime: 1,
		}
	}
	return out
}

// benchAdmissions measures end-to-end admissions/sec: loadgen client →
// HTTP → handler → micro-batch pipeline → placement, on a volatile
// cluster.
func benchAdmissions(ctx context.Context, n, chunk, parallel int, res *Result) error {
	cl, err := cluster.Open(cluster.Config{Servers: benchServers(64), IdleTimeout: 5, Parallelism: parallel})
	if err != nil {
		return err
	}
	defer cl.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: clusterhttp.New(cl, clusterhttp.Config{})}
	go srv.Serve(ln)
	defer srv.Close()

	client := loadgen.NewClient("http://" + ln.Addr().String())
	start := time.Now()
	for id := 1; id <= n; id += chunk {
		batch := make([]api.AdmitRequest, 0, chunk)
		for j := id; j < id+chunk && j <= n; j++ {
			batch = append(batch, api.AdmitRequest{
				ID:              j,
				Demand:          model.Resources{CPU: 1, Mem: 1},
				DurationMinutes: 60,
			})
		}
		adms, err := client.Admit(ctx, batch)
		if err != nil {
			return err
		}
		for _, a := range adms {
			if !a.Accepted {
				return fmt.Errorf("vm %d rejected (%s): size the bench fleet up", a.ID, a.Reason)
			}
		}
	}
	res.AdmitOps = n
	res.AdmitChunk = chunk
	res.AdmissionsPerSec = float64(n) / time.Since(start).Seconds()
	return nil
}

// benchGroupCommit measures durable admissions/sec: concurrent clients
// each admitting one VM at a time against a journal with fsync
// ON. Group commit shares each fsync across the batches in flight, so
// this number tracks the journal's real throughput ceiling.
func benchGroupCommit(ctx context.Context, n, clients, parallel int, res *Result) error {
	dir, err := os.MkdirTemp("", "vmbench-group-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cl, err := cluster.Open(cluster.Config{
		Servers:       benchServers(64),
		IdleTimeout:   5,
		Parallelism:   parallel,
		Dir:           dir,
		SnapshotEvery: -1,
	})
	if err != nil {
		return err
	}
	defer cl.Close()

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		ferr error
	)
	start := time.Now()
	per := n / clients
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				id := c*per + k + 1
				adms, err := cl.Admit(ctx, []cluster.VMRequest{{
					ID:              id,
					Demand:          model.Resources{CPU: 0.1, Mem: 0.1},
					DurationMinutes: 60,
				}})
				if err == nil && (len(adms) != 1 || !adms[0].Accepted) {
					err = fmt.Errorf("vm %d rejected: size the bench fleet up", id)
				}
				if err != nil {
					mu.Lock()
					if ferr == nil {
						ferr = err
					}
					mu.Unlock()
					return
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if ferr != nil {
		return ferr
	}
	ops := per * clients
	res.GroupAdmitOps = ops
	res.GroupAdmitClients = clients
	res.GroupAdmissionsPerSec = float64(ops) / elapsed.Seconds()
	res.GroupCommitFsyncGroups = groupCount(cl)
	return nil
}

// groupCount scrapes the fsync-group counter from the cluster's metrics
// exposition (the counter has no programmatic getter; the text format is
// the public surface).
func groupCount(cl *cluster.Cluster) uint64 {
	var buf bytes.Buffer
	if err := cl.WriteMetrics(&buf); err != nil {
		return 0
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "vmalloc_cluster_fsync_groups_total ") {
			v, err := strconv.ParseUint(strings.TrimPrefix(line, "vmalloc_cluster_fsync_groups_total "), 10, 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}

// benchScan times online.MinCostPolicy placements over a growing fleet
// two ways: the policy's full scan (every server scored), and the
// feasibility-index path (FleetView.Candidates prunes, then the argmin
// runs over the survivors) — the scan every cluster admission pays.
func benchScan(n, servers int, res *Result) error {
	pol := &online.MinCostPolicy{}

	fl := online.NewFleet(benchServers(servers), 5)
	fl.AdvanceTo(1)
	var total time.Duration
	for id := 1; id <= n; id++ {
		v := model.VM{ID: id, Demand: model.Resources{CPU: 1, Mem: 1}, Start: 1, End: 1 << 20}
		t0 := time.Now()
		idx, err := pol.Place(fl.View(), v)
		total += time.Since(t0)
		if err != nil {
			return fmt.Errorf("placing vm %d: %w", id, err)
		}
		if _, err := fl.Commit(idx, v); err != nil {
			return fmt.Errorf("committing vm %d: %w", id, err)
		}
	}
	res.ScanVMs = n
	res.ScanServers = servers
	res.ScanNsPerVM = float64(total.Nanoseconds()) / float64(n)

	// The loaded-fleet pair: saturate all but a handful of servers with
	// capacity-filling long VMs, then time repeated scans for a small VM
	// (no commits — the fleet state is held fixed) through both paths.
	fl = online.NewFleet(benchServers(servers), 5)
	fl.AdvanceTo(1)
	free := servers / 32
	if free < 1 {
		free = 1
	}
	for i := 0; i < servers-free; i++ {
		full := model.VM{ID: 1_000_000 + i, Demand: model.Resources{CPU: 128, Mem: 256}, Start: 1, End: 1 << 20}
		if _, err := fl.Commit(i, full); err != nil {
			return fmt.Errorf("saturating server %d: %w", i, err)
		}
	}
	v := model.VM{ID: 1, Demand: model.Resources{CPU: 1, Mem: 1}, Start: 1, End: 1 << 19}
	fv := fl.View()
	var loaded time.Duration
	for k := 0; k < n; k++ {
		t0 := time.Now()
		if _, err := pol.Place(fv, v); err != nil {
			return fmt.Errorf("loaded scan: %w", err)
		}
		loaded += time.Since(t0)
	}
	res.LoadedScanNsPerVM = float64(loaded.Nanoseconds()) / float64(n)

	buf := make([]int, 0, servers)
	var indexed time.Duration
	for k := 0; k < n; k++ {
		t0 := time.Now()
		cands, _ := fv.Candidates(v, buf[:0])
		buf = cands
		idx, best := -1, 0.0
		for _, i := range cands {
			if cost, ok := pol.Score(fv, v, i); ok && (idx < 0 || cost < best) {
				idx, best = i, cost
			}
		}
		indexed += time.Since(t0)
		if idx < 0 {
			return fmt.Errorf("indexed scan found no host")
		}
	}
	res.IndexedScanNsPerVM = float64(indexed.Nanoseconds()) / float64(n)
	return nil
}

// benchFsync samples the journal's per-batch fsync from the flight
// recorder's sync stage: a journaled cluster (fsync ON), one admission
// per batch, sequentially, so every sample is one real fsync.
func benchFsync(ctx context.Context, samples int, res *Result) error {
	dir, err := os.MkdirTemp("", "vmbench-journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rec := obs.NewFlightRecorder(samples + 16)
	cl, err := cluster.Open(cluster.Config{
		Servers:       benchServers(64),
		IdleTimeout:   5,
		Dir:           dir,
		SnapshotEvery: -1,
		Recorder:      rec,
	})
	if err != nil {
		return err
	}
	defer cl.Close()

	for i := 0; i < samples; i++ {
		adms, err := cl.Admit(ctx, []cluster.VMRequest{{
			Demand:          model.Resources{CPU: 1, Mem: 1},
			DurationMinutes: 30,
		}})
		if err != nil {
			return err
		}
		if len(adms) != 1 || !adms[0].Accepted {
			return fmt.Errorf("sample %d not accepted: %+v", i, adms)
		}
	}

	var syncs []time.Duration
	for _, d := range rec.Decisions(obs.Filter{Op: obs.OpAdmit}) {
		if d.Stages.Sync > 0 {
			syncs = append(syncs, d.Stages.Sync)
		}
	}
	if len(syncs) == 0 {
		return fmt.Errorf("no fsync samples recorded")
	}
	sort.Slice(syncs, func(i, j int) bool { return syncs[i] < syncs[j] })
	res.FsyncSamples = len(syncs)
	res.JournalFsyncP50Ms = float64(percentile(syncs, 50).Nanoseconds()) / 1e6
	res.JournalFsyncP99Ms = float64(percentile(syncs, 99).Nanoseconds()) / 1e6
	return nil
}

// percentile returns the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := (p*len(sorted) + 99) / 100
	if i < 1 {
		i = 1
	}
	return sorted[i-1]
}
