package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"vmalloc/internal/loadgen"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// tmp holds journal directories and crash images.
	tmp string
	// smoke shrinks every input twentyfold for tests; percentiles whose
	// sample-size rule fails are then left out instead of failing.
	smoke bool
}

// setupReps is how many set-ups an untraced run times after its rounds,
// so setup_s is a median of enough samples to be steady.
const setupReps = 50

// setupTime is the median of setupReps set-ups over the run's inputs in
// turn, each timed alone after a forced collection, so that how much
// garbage the last round left, and whether a collection is under way,
// does not land in it.
func setupTime(cfg runConfig, once func(cfg runConfig) (time.Duration, error)) (float64, error) {
	xs := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		d, err := once(cfg.forInput(i % inputs))
		if err != nil {
			return 0, err
		}
		xs = append(xs, d.Seconds())
	}
	return median(xs), nil
}

func (c runConfig) scale(n int) int {
	if c.smoke {
		return max(n/20, 20)
	}
	return n
}

func (c runConfig) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// report is what a run prints.
type report struct {
	attempted, failed int
	values            map[string]float64
	notes             []string
	rows              []layerRow
	spans             []span
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// layerRow is one line of the traced run's per-layer table.
type layerRow struct {
	layer     string
	n         int
	p50, tail float64 // ms
	tailP     float64
	share     float64 // of traced wall time
}

// pct sets values[name] to percentile p of samples — for a tail
// percentile, the median over consecutive blocks that each support it —
// and notes the sample count with the highest percentile the pooled
// samples support. Too few samples leave the metric out, with a note; a
// metric of the result line that is left out fails the run.
func (r *report) pct(name string, samples []float64, p float64) {
	n := len(samples)
	var v float64
	var err error
	blocks := 1
	if p > 50 {
		v, blocks, err = blockPercentile(samples, p)
	} else {
		v, err = percentile(slices.Clone(samples), p)
	}
	if err != nil {
		r.note("%s: %v (left out)", name, err)
		return
	}
	r.values[name] = v
	tp, _ := tailPercentile(n)
	tv, _ := percentile(slices.Clone(samples), tp)
	r.note("%s: n=%d in %d blocks, p%g=%.4g; pooled p%g=%.4g", name, n, blocks, p, v, tp, tv)
}

// inputs is how many inputs a run draws from its seed. Rounds take
// them in turn, so a run's figures pool several schedules or instances
// and hang less on one draw: with one input per run, gate-diurnal's
// median admit latency spread 0.14 of its median across five seeds,
// while one seed run three times spread 0.04.
const inputs = 4

// forInput is the configuration of input k of the run: input 0 is the
// seed's own.
func (c runConfig) forInput(k int) runConfig {
	c.seed += int64(k) * 1_000_000_007
	return c
}

// rounds runs round until the configured time is used up, passing each
// the input it runs: 0, 1, … inputs-1, 0, …. A traced invocation runs
// its first round untraced, on input 0, as the reference for the digest
// check and the tracing overhead, and the rest traced, from input 0 on.
func rounds[R any](cfg runConfig, round func(input int, tr *tracer) (R, error)) (plain, traced []R, err error) {
	start := time.Now()
	for {
		var tr *tracer
		input := len(plain) % inputs
		if cfg.trace && len(plain) > 0 {
			tr = &tracer{}
			input = len(traced) % inputs
		}
		r, err := round(input, tr)
		if err != nil {
			return nil, nil, err
		}
		if tr != nil {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		if time.Since(start) >= cfg.duration() && (!cfg.trace || len(traced) > 0) {
			return plain, traced, nil
		}
	}
}

// firstOfInput pairs every round with the first round of its input; a
// first round is paired with itself.
func firstOfInput[R any](all []R, input func(R) int) []R {
	first := map[int]R{}
	out := make([]R, len(all))
	for i, r := range all {
		f, ok := first[input(r)]
		if !ok {
			f = r
			first[input(r)] = r
		}
		out[i] = f
	}
	return out
}

func runService(w *svcSpec, cfg runConfig, rep *report) error {
	ctx := context.Background()
	plain, traced, err := rounds(cfg, func(input int, tr *tracer) (*svcRound, error) {
		r, err := w.round(ctx, cfg.forInput(input), tr)
		if r != nil {
			r.input = input
			rep.attempted += r.calls
			rep.failed += r.failed
		}
		return r, err
	})
	if err != nil {
		return err
	}
	all := append(slices.Clone(plain), traced...)
	var energy []float64
	for i, ref := range firstOfInput(all, func(r *svcRound) int { return r.input }) {
		r := all[i]
		if r == ref {
			rep.note("input %d: %d sent, %.4f accepted, %.1f residents per busy server at peak, %.6g W.min; digests: outcome %s state %s",
				r.input, r.sent, float64(r.accepted)/float64(r.sent), r.residentsPerServer, r.energy, r.outcome[:16], r.state[:16])
			energy = append(energy, r.energy)
			continue
		}
		if r.outcome != ref.outcome || r.state != ref.state {
			return fmt.Errorf("round %d digests (outcome %s, state %s) differ from input %d's first round (outcome %s, state %s)",
				i, r.outcome, r.state, r.input, ref.outcome, ref.state)
		}
	}
	rep.note("%d untraced, %d traced rounds; every repeated input reproduced its digests", len(plain), len(traced))
	if cfg.trace {
		serviceLayers(w, plain[0], traced, rep)
		return nil
	}

	setup, err := setupTime(cfg, w.setupOnce)
	if err != nil {
		return err
	}
	var admit, rel, read, late, recovery, heap []float64
	var sent, acc int
	var busy time.Duration
	for i, r := range plain {
		rep.note("round %d: setup %.4gs, %d calls in %.4gs, admit median %.4g ms",
			i, r.setup.Seconds(), r.calls, r.wall.Seconds(), median(slices.Clone(r.admitLat)))
		admit = append(admit, r.admitLat...)
		rel = append(rel, r.relLat...)
		read = append(read, r.readLat...)
		late = append(late, r.late...)
		recovery = append(recovery, r.recovery...)
		heap = append(heap, float64(r.heapPeak)/(1<<20))
		sent += r.sent
		acc += r.accepted
		busy += r.admitting
	}
	v := rep.values
	v["admit_ops_s"] = float64(sent) / busy.Seconds()
	v["energy_wmin"] = mean(energy)
	v["accepted_ratio"] = float64(acc) / float64(sent)
	v["setup_s"] = setup
	v["heap_peak_mb"] = median(heap)
	if len(recovery) > 0 {
		v["recovery_s"] = median(recovery)
	}
	for _, p := range []struct {
		name    string
		samples []float64
		p       float64
	}{
		{"admit_p50_ms", admit, 50}, {"admit_p99_ms", admit, 99},
		{"release_p50_ms", rel, 50}, {"state_read_p50_ms", read, 50},
	} {
		if len(p.samples) == 0 {
			continue
		}
		rep.pct(p.name, p.samples, p.p)
	}
	if len(late) > 0 {
		if tp, ok := tailPercentile(len(late)); ok {
			lv, _ := percentile(late, tp)
			rep.note("generator lateness: n=%d p%g=%.4g ms", len(late), tp, lv)
		}
	}
	return nil
}

// newRow summarises one layer's per-call times (ms) against the traced
// wall time.
func newRow(layer string, samples []float64, wall time.Duration) layerRow {
	row := layerRow{layer: layer, n: len(samples), p50: median(slices.Clone(samples))}
	var sum float64
	for _, x := range samples {
		sum += x
	}
	row.share = sum / ms(wall)
	if tp, ok := tailPercentile(len(samples)); ok {
		row.tailP = tp
		row.tail, _ = percentile(slices.Clone(samples), tp)
	}
	return row
}

func spanKey(s span) string {
	return fmt.Sprint(s.Shard, s.Trace, s.Name, s.Batch, s.Start.UnixNano(), s.Dur)
}

// serviceLayers computes the per-layer metrics and table from the
// traced rounds.
func serviceLayers(w *svcSpec, ref *svcRound, traced []*svcRound, rep *report) {
	var spans []span
	var wall time.Duration
	var walls []float64
	counters := make(loadgen.Metrics)
	var calls, accepted, retries int
	var decisions int64
	var jBytes int64
	var jMuts int
	var late, cons, ticks, residents []float64
	for _, r := range traced {
		spans = append(spans, r.spans...)
		wall += r.wall
		if r.input == ref.input {
			walls = append(walls, r.wall.Seconds())
		}
		for k, v := range r.counters {
			counters[k] += v
		}
		calls += r.calls
		accepted += r.accepted
		retries += r.retries
		decisions += r.decisions
		jBytes += r.journalBytes
		jMuts += r.journalMutations
		late = append(late, r.late...)
		cons = append(cons, r.consLat...)
		ticks = append(ticks, r.tickTotal.Seconds())
		residents = append(residents, r.residentsPerServer)
	}
	rep.spans = spans

	// Index the spans: handler calls by trace, program stages by trace
	// and shard (deduplicated: a batch-wide stage is recorded once per VM).
	var gates, handlers, clients []span
	handlersByTrace := map[string][]interval{}
	stages := map[string][]interval{}
	stageSamples := map[string][]float64{}
	seen := map[string]bool{}
	// Replayed calls: per-call ns by call, whole-span ms by layer.
	replaySamples := map[string][]float64{}
	replayRows := map[string][]float64{}
	for _, s := range spans {
		switch {
		case strings.HasPrefix(s.Name, "program."):
			k := spanKey(s)
			if seen[k] {
				continue
			}
			seen[k] = true
			name := strings.TrimPrefix(s.Name, "program.")
			stageSamples[name] = append(stageSamples[name], us(s.duration()))
			switch name {
			case "queue", "scan", "commit", "journal", "fsync":
				stages[s.Trace+"/"+s.Shard] = append(stages[s.Trace+"/"+s.Shard], s.interval())
			}
		case s.Layer == layerShard && s.Shard == "gate":
			gates = append(gates, s)
		case s.Layer == layerClusterHTTP:
			handlers = append(handlers, s)
			handlersByTrace[s.Trace] = append(handlersByTrace[s.Trace], s.interval())
		case s.Layer == layerLoadgen:
			clients = append(clients, s)
		case s.Layer == layerTimeline || s.Layer == layerEnergy:
			replaySamples[s.Name] = append(replaySamples[s.Name], s.perCallNs())
			replayRows[s.Layer] = append(replayRows[s.Layer], ms(s.duration()))
		}
	}

	v := rep.values
	var rows []layerRow
	addRow := func(layer string, samples []float64) {
		if len(samples) > 0 {
			rows = append(rows, newRow(layer, samples, wall))
		}
	}

	// loadgen: client calls minus the server-side handling they cover.
	var clientSelf []float64
	gatesByTrace := map[string][]interval{}
	for _, g := range gates {
		gatesByTrace[g.Trace] = append(gatesByTrace[g.Trace], g.interval())
	}
	for _, c := range clients {
		children := gatesByTrace[c.Trace]
		if w.gate {
			clientSelf = append(clientSelf, ms(selfTime(c.interval(), children)))
		} else {
			clientSelf = append(clientSelf, ms(selfTime(c.interval(), handlersByTrace[c.Trace])))
		}
	}
	addRow(layerLoadgen, clientSelf)

	// shard: gate handler time minus the shard handler calls it covers.
	if w.gate {
		var self, admitSelf, stateSelf []float64
		fan := 0
		for _, g := range gates {
			children := handlersByTrace[g.Trace]
			fan += len(children)
			d := us(selfTime(g.interval(), children))
			self = append(self, d/1000)
			switch g.Name {
			case "POST /v1/vms":
				admitSelf = append(admitSelf, d)
			case "GET /v1/state":
				stateSelf = append(stateSelf, d)
			}
		}
		addRow(layerShard, self)
		rep.pct("shard.admit_self_p50_us", admitSelf, 50)
		rep.pct("shard.state_self_p50_us", stateSelf, 50)
		v["shard.calls_per_op"] = float64(fan) / float64(len(gates))
	}

	// clusterhttp: handler time minus the pipeline stages it covers.
	var hSelf, admitSelf, stateDur []float64
	var admitBytes int64
	for _, h := range handlers {
		d := us(selfTime(h.interval(), stages[h.Trace+"/"+h.Shard]))
		hSelf = append(hSelf, d/1000)
		switch h.Name {
		case "POST /v1/vms":
			admitSelf = append(admitSelf, d)
			admitBytes += h.Bytes
		case "GET /v1/state":
			stateDur = append(stateDur, us(h.duration()))
		}
	}
	addRow(layerClusterHTTP, hSelf)
	rep.pct("clusterhttp.admit_self_p50_us", admitSelf, 50)
	if len(stateDur) > 0 {
		rep.pct("clusterhttp.state_p50_us", stateDur, 50)
	}
	if accepted > 0 {
		v["clusterhttp.bytes_per_vm"] = float64(admitBytes) / float64(accepted)
	}

	var clusterRow []float64
	for _, name := range []string{"queue", "journal", "fsync"} {
		for _, x := range stageSamples[name] {
			clusterRow = append(clusterRow, x/1000)
		}
	}
	addRow(layerCluster, clusterRow)
	var onlineRow []float64
	for _, name := range []string{"scan", "commit"} {
		for _, x := range stageSamples[name] {
			onlineRow = append(onlineRow, x/1000)
		}
	}
	addRow(layerOnline, onlineRow)
	addRow(layerTimeline, replayRows[layerTimeline])
	addRow(layerEnergy, replayRows[layerEnergy])
	rep.rows = rows

	for _, p := range []struct {
		name, stage string
		p           float64
	}{
		{"cluster.queue_p50_us", "queue", 50}, {"cluster.journal_p50_us", "journal", 50},
		{"cluster.fsync_p50_us", "fsync", 50}, {"cluster.fsync_p99_us", "fsync", 99},
		{"online.scan_p50_us", "scan", 50}, {"online.commit_p50_us", "commit", 50},
	} {
		if len(stageSamples[p.stage]) == 0 {
			continue
		}
		rep.pct(p.name, stageSamples[p.stage], p.p)
	}
	for _, p := range []struct {
		name, call string
		scale      float64
	}{
		{"timeline.add_p50_us", "Ledger.Add", 1e3}, {"timeline.remove_p50_us", "Ledger.Remove", 1e3},
		{"timeline.maxusage_p50_ns", "Ledger.MaxUsage", 1},
		{"energy.incremental_p50_ns", "ServerState.IncrementalCost", 1},
	} {
		xs := make([]float64, 0, len(replaySamples[p.call]))
		for _, x := range replaySamples[p.call] {
			xs = append(xs, x/p.scale)
		}
		rep.pct(p.name, xs, 50)
	}

	c := func(name string) float64 { return counters["vmalloc_cluster_"+name] }
	if c("batches_total") > 0 {
		v["cluster.vms_per_batch"] = c("admissions_total") / c("batches_total")
	}
	if c("fsync_groups_total") > 0 {
		v["cluster.batches_per_fsync"] = c("batches_total") / c("fsync_groups_total")
	}
	if placed := c("admissions_total") + c("rejections_total"); placed > 0 {
		v["online.candidates_per_vm"] = c("scan_candidates_total") / placed
	}
	if c("scan_candidates_total") > 0 {
		v["online.pruned_ratio"] = c("scan_index_pruned_total") / c("scan_candidates_total")
	}
	v["cluster.snapshots"] = c("snapshots_total") / float64(len(traced))
	if jMuts > 0 {
		v["cluster.journal_bytes_per_op"] = float64(jBytes) / float64(jMuts)
	}
	v["cluster.advance_total_s"] = median(ticks)
	if len(cons) > 0 {
		rep.pct("cluster.consolidate_p50_ms", cons, 50)
	}
	if len(late) > 0 {
		rep.pct("loadgen.late_p99_ms", late, 99)
	}
	v["loadgen.retries"] = float64(retries)
	v["timeline.residents_per_server"] = median(residents)
	v["obs.spans_per_op"] = counters["vmalloc_trace_spans_total"] / float64(calls)
	v["obs.decisions_per_op"] = float64(decisions) / float64(calls)
	v["bench.trace_overhead_ratio"] = median(walls)/ref.wall.Seconds() - 1
}
