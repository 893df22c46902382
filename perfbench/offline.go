package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"vmalloc/internal/baseline"
	"vmalloc/internal/core"
	"vmalloc/internal/energy"
	"vmalloc/internal/ilp"
	"vmalloc/internal/model"
	"vmalloc/internal/workload"
)

// offRound is one paper-offline round: MinCost and FFPS over one §IV-B
// instance at BenchmarkMinCostParallel's scale.
type offRound struct {
	vms                  int
	setup, mincost, ffps time.Duration
	emc, eff             float64
	input                int
	stats                core.AllocStats
	digest               string
	// heap is the peak live heap in MiB while MinCost ran (untraced
	// rounds).
	heap float64
	// Traced rounds only.
	spans     []span
	online    onlineReplay
	residents float64
}

// offlineInstance generates the §IV-B instance: 5000 VMs on 500 Table
// II servers, as BenchmarkMinCostParallel uses, drawn from the seed.
func offlineInstance(cfg runConfig) (model.Instance, error) {
	return workload.Generate(
		workload.Spec{NumVMs: cfg.scale(5000), MeanInterArrival: 0.5, MeanLength: 120},
		workload.FleetSpec{NumServers: 500, TransitionTime: 1}, cfg.seed)
}

func offlineRound(ctx context.Context, cfg runConfig, tr *tracer) (*offRound, error) {
	t0 := time.Now()
	inst, err := offlineInstance(cfg)
	if err != nil {
		return nil, err
	}
	r := &offRound{vms: len(inst.VMs), setup: time.Since(t0)}

	var mc, ff *core.Result
	var mcErr, ffErr error
	var peak func() float64
	if tr == nil {
		runtime.GC() // every round's MinCost starts from the same heap
		peak = sampleHeap()
	}
	r.mincost = tr.timed(layerCore, "MinCost.Allocate", func() { mc, mcErr = core.NewMinCost().Allocate(ctx, inst) })
	if peak != nil {
		r.heap = peak()
	}
	if mcErr != nil {
		return nil, fmt.Errorf("MinCost: %w", mcErr)
	}
	r.ffps = tr.timed(layerBaseline, "FFPS.Allocate", func() {
		ff, ffErr = baseline.NewFFPS(core.WithSeed(cfg.seed)).Allocate(ctx, inst)
	})
	if ffErr != nil {
		return nil, fmt.Errorf("FFPS: %w", ffErr)
	}
	h := sha256.New()
	for _, res := range []*core.Result{mc, ff} {
		if err := ilp.CheckPlacement(inst, res.Placement); err != nil {
			return nil, fmt.Errorf("%s placement: %w", res.Allocator, err)
		}
		var e energy.Breakdown
		var eerr error
		tr.timed(layerEnergy, "EvaluateObjective", func() { e, eerr = energy.EvaluateObjective(inst, res.Placement) })
		if eerr != nil {
			return nil, fmt.Errorf("%s: %w", res.Allocator, eerr)
		}
		if d := math.Abs(e.Total() - res.Energy.Total()); d > 1e-9*math.Abs(e.Total()) {
			return nil, fmt.Errorf("%s reports energy %v, EvaluateObjective gives %v", res.Allocator, res.Energy.Total(), e.Total())
		}
		ids := make([]int, 0, len(res.Placement))
		for id := range res.Placement {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		fmt.Fprintf(h, "%s\n", res.Allocator)
		for _, id := range ids {
			fmt.Fprintf(h, "%d %d\n", id, res.Placement[id])
		}
	}
	r.emc, r.eff = mc.Energy.Total(), ff.Energy.Total()
	if !(r.emc < r.eff) {
		return nil, fmt.Errorf("MinCost energy %v is not below FFPS energy %v", r.emc, r.eff)
	}
	if mc.Stats == nil {
		return nil, fmt.Errorf("MinCost returned no stats")
	}
	r.stats = *mc.Stats
	r.digest = hex.EncodeToString(h.Sum(nil))
	if tr != nil {
		if r.online, err = replayOnline(tr, inst); err != nil {
			return nil, fmt.Errorf("online replay: %w", err)
		}
		set := placementSet(inst, mc.Placement)
		r.residents = set.liveAt(peakOf(inst.VMs)).residentsPerServer()
		replayLedgers(tr, []placedSet{set})
		replayIncremental(tr, []placedSet{set})
		r.spans = tr.take()
	}
	return r, nil
}

// sampleHeap polls the live heap, as the most recent collection measured
// it, until the returned function is called, which returns the peak in
// MiB.
func sampleHeap() func() float64 {
	var peak uint64
	done := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			peak = max(peak, liveHeap())
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		<-stopped
		return float64(max(peak, liveHeap())) / (1 << 20)
	}
}

func runOffline(cfg runConfig, rep *report) error {
	ctx := context.Background()
	plain, traced, err := rounds(cfg, func(input int, tr *tracer) (*offRound, error) {
		rep.attempted += 2
		r, err := offlineRound(ctx, cfg.forInput(input), tr)
		if err != nil {
			rep.failed++
			return nil, err
		}
		r.input = input
		return r, nil
	})
	if err != nil {
		return err
	}
	all := append(slices.Clone(plain), traced...)
	var energy, reduction []float64
	var vms, placed int
	for i, ref := range firstOfInput(all, func(r *offRound) int { return r.input }) {
		r := all[i]
		if r == ref {
			rep.note("input %d: %d VMs; MinCost %.6g W.min, FFPS %.6g W.min; placements %s",
				r.input, r.vms, r.emc, r.eff, r.digest[:16])
			energy = append(energy, r.emc)
			reduction = append(reduction, (r.eff-r.emc)/r.eff)
			vms += r.vms
			placed += r.stats.VMsPlaced
			continue
		}
		if r.digest != ref.digest {
			return fmt.Errorf("round %d placement digest %s differs from input %d's first round's %s", i, r.digest, r.input, ref.digest)
		}
	}
	rep.note("%d untraced, %d traced rounds; every repeated input reproduced its placements", len(plain), len(traced))
	ref := plain[0]
	v := rep.values
	if !cfg.trace {
		setup, err := setupTime(cfg, func(cfg runConfig) (time.Duration, error) {
			t0 := time.Now()
			_, err := offlineInstance(cfg)
			return time.Since(t0), err
		})
		if err != nil {
			return err
		}
		var rate, lat []float64
		heap := map[int][]float64{} // by input
		for i, r := range plain {
			rep.note("round %d: input %d, setup %.4gs, MinCost %.4g ms, FFPS %.4g ms, heap peak %.4g MiB",
				i, r.input, r.setup.Seconds(), ms(r.mincost), ms(r.ffps), r.heap)
			rate = append(rate, float64(r.vms)/r.mincost.Seconds())
			lat = append(lat, ms(r.mincost))
			heap[r.input] = append(heap[r.input], r.heap)
		}
		rep.note("MinCost Allocate: n=%d rounds, median %.4g ms", len(lat), median(slices.Clone(lat)))
		v["admit_ops_s"] = median(rate)
		v["admit_p50_ms"] = median(lat)
		v["energy_wmin"] = mean(energy)
		v["accepted_ratio"] = float64(placed) / float64(vms)
		v["reduction_ratio"] = mean(reduction)
		v["setup_s"] = setup
		// The peak is steady for one input but differs by a fifth between
		// inputs, so a median over rounds would jump with how many rounds
		// each input got.
		var peaks []float64
		for _, xs := range heap {
			peaks = append(peaks, median(xs))
		}
		v["heap_peak_mb"] = mean(peaks)
		return nil
	}

	var spans []span
	var wall time.Duration
	var mcs, ffs, busy, residents []float64
	var considered, pruned int
	for _, r := range traced {
		spans = append(spans, r.spans...)
		wall += r.mincost + r.ffps
		if r.input == ref.input {
			mcs = append(mcs, r.mincost.Seconds())
		}
		ffs = append(ffs, r.ffps.Seconds())
		busy = append(busy, r.stats.WorkerUtilization)
		residents = append(residents, r.residents)
		considered += r.online.considered
		pruned += r.online.pruned
	}
	rep.spans = spans
	on := traced[0].online
	rep.note("online replay: %d of %d VMs accepted", on.accepted, on.vms)
	st := traced[0].stats
	v["core.candidates_per_vm"] = float64(st.CandidatesEvaluated) / float64(st.VMsPlaced)
	v["core.rejected_ratio"] = float64(st.FeasibilityRejections) / float64(st.CandidatesEvaluated)
	v["core.worker_busy_ratio"] = median(busy)
	v["baseline.ffps_s"] = median(ffs)
	v["online.pruned_ratio"] = float64(pruned) / float64(considered)
	v["timeline.residents_per_server"] = median(residents)
	v["bench.trace_overhead_ratio"] = median(mcs)/ref.mincost.Seconds() - 1

	byLayer := map[string][]float64{}
	calls := map[string][]float64{} // per-call ns
	for _, s := range spans {
		byLayer[s.Layer] = append(byLayer[s.Layer], ms(s.duration()))
		calls[s.Name] = append(calls[s.Name], s.perCallNs())
	}
	for _, p := range []struct {
		name, call string
		scale      float64
	}{
		{"online.scan_p50_us", "scan", 1e3}, {"online.commit_p50_us", "commit", 1e3},
		{"timeline.add_p50_us", "Ledger.Add", 1e3}, {"timeline.remove_p50_us", "Ledger.Remove", 1e3},
		{"timeline.maxusage_p50_ns", "Ledger.MaxUsage", 1},
		{"energy.incremental_p50_ns", "ServerState.IncrementalCost", 1},
	} {
		xs := make([]float64, 0, len(calls[p.call]))
		for _, x := range calls[p.call] {
			xs = append(xs, x/p.scale)
		}
		rep.pct(p.name, xs, 50)
	}
	v["energy.evaluate_ms"] = median(calls["EvaluateObjective"]) / 1e6
	for _, layer := range []string{layerCore, layerBaseline, layerEnergy, layerOnline, layerTimeline} {
		rep.rows = append(rep.rows, newRow(layer, byLayer[layer], wall))
	}
	return nil
}
