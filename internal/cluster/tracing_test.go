package cluster

import (
	"context"
	"math"
	"testing"
	"time"

	"vmalloc/internal/model"
	"vmalloc/internal/obs"
)

// TestStageSpanEmission: with a span store configured, every traced
// admission leaves its stage timings as spans under the caller's trace
// id, linked to the flight-recorder decision via the same trace id —
// and an untraced call records nothing.
func TestStageSpanEmission(t *testing.T) {
	rec := obs.NewFlightRecorder(64)
	spans := obs.NewSpanStore(256)
	c := mustOpen(t, Config{Servers: testServers(2), IdleTimeout: 2, Recorder: rec, Spans: spans})
	defer c.Close()

	tc := obs.NewTraceContext()
	ctx := obs.WithTraceContext(context.Background(), tc)
	ctx = obs.WithRequestID(ctx, "trace-test-id")
	ctx = obs.WithDecodeSpan(ctx, 3*time.Millisecond)
	adms, err := c.Admit(ctx, []VMRequest{
		{ID: 1, Demand: model.Resources{CPU: 1, Mem: 1}, DurationMinutes: 30},
		{ID: 2, Demand: model.Resources{CPU: 999, Mem: 999}, DurationMinutes: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !adms[0].Accepted || adms[1].Accepted {
		t.Fatalf("admissions %+v", adms)
	}

	all := spans.Spans(obs.SpanFilter{TraceID: tc.TraceID})
	if len(all) == 0 {
		t.Fatal("no spans recorded for the trace")
	}
	byName := map[string][]obs.Span{}
	for _, sp := range all {
		if sp.Parent != tc.SpanID {
			t.Errorf("span %s parent %q, want caller span %q", sp.Name, sp.Parent, tc.SpanID)
		}
		if sp.Duration <= 0 || sp.SpanID == "" {
			t.Errorf("malformed span %+v", sp)
		}
		byName[sp.Name] = append(byName[sp.Name], sp)
	}
	// Both VMs went through decode and the scan; only the accepted one
	// committed.
	if got := len(byName[obs.SpanDecode]); got != 2 {
		t.Errorf("%d decode spans, want 2", got)
	}
	if got := len(byName[obs.SpanScan]); got != 2 {
		t.Errorf("%d scan spans, want 2", got)
	}
	if got := len(byName[obs.SpanCommit]); got != 1 {
		t.Errorf("%d commit spans, want 1", got)
	}
	commit := byName[obs.SpanCommit][0]
	if commit.VM != 1 || commit.Op != obs.OpAdmit || commit.Batch == 0 {
		t.Errorf("commit span %+v", commit)
	}

	// The flight-recorder decisions carry the same trace id, linking
	// /v1/debug/decisions to /v1/debug/traces.
	for _, d := range rec.Decisions(obs.Filter{}) {
		if d.TraceID != tc.TraceID {
			t.Errorf("decision for vm %d trace id %q, want %q", d.VM, d.TraceID, tc.TraceID)
		}
	}

	// An untraced admission must not grow the store.
	before := spans.Seq()
	if _, err := c.Admit(context.Background(), []VMRequest{
		{ID: 3, Demand: model.Resources{CPU: 1, Mem: 1}, DurationMinutes: 30},
	}); err != nil {
		t.Fatal(err)
	}
	if spans.Seq() != before {
		t.Fatalf("untraced admission recorded %d spans", spans.Seq()-before)
	}
}

// TestEnergySampling: the recorder's series is strictly monotone in
// clock, its newest cumulative total matches State().TotalEnergy
// exactly, and integrating the rate over the series reproduces the
// ledger's delta — the /v1/debug/energy acceptance property.
func TestEnergySampling(t *testing.T) {
	energy := obs.NewEnergyRecorder(128)
	c := mustOpen(t, Config{Servers: testServers(4), IdleTimeout: 2, Energy: energy})
	defer c.Close()

	ctx := context.Background()
	mustAdmit(t, c,
		VMRequest{ID: 1, Demand: model.Resources{CPU: 1, Mem: 1}, DurationMinutes: 120},
		VMRequest{ID: 2, Demand: model.Resources{CPU: 2, Mem: 2}, DurationMinutes: 120},
	)
	for _, minute := range []int{10, 20, 45} {
		if err := c.AdvanceTo(minute); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Release(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.AdvanceTo(90); err != nil {
		t.Fatal(err)
	}

	samples := energy.Samples(-1, 0)
	if len(samples) < 4 {
		t.Fatalf("only %d samples recorded", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].Clock <= samples[i-1].Clock {
			t.Fatalf("non-monotone clock series at %d: %+v", i, samples)
		}
		if samples[i].TotalWattMinutes < samples[i-1].TotalWattMinutes {
			t.Fatalf("energy ledger went backwards at %d", i)
		}
	}

	st := c.State()
	last := samples[len(samples)-1]
	if last.Clock != st.Now {
		t.Fatalf("newest sample clock %d, state now %d", last.Clock, st.Now)
	}
	if last.TotalWattMinutes != st.TotalEnergy {
		t.Fatalf("newest sample total %g, state energy %g (want exact equality)",
			last.TotalWattMinutes, st.TotalEnergy)
	}

	// ∫rate dt over the series == E_last − E_first, within float rounding.
	var integral float64
	for i := 1; i < len(samples); i++ {
		integral += samples[i].RateWatts * float64(samples[i].Clock-samples[i-1].Clock) / 60
	}
	want := last.TotalWattMinutes - samples[0].TotalWattMinutes
	if math.Abs(integral-want) > 1e-6*math.Max(1, math.Abs(want)) {
		t.Fatalf("rate integral %g != ΔTotal %g", integral, want)
	}

	// Utilization fields are populated while servers are active.
	if last.Active == 0 || last.Residents != 1 {
		t.Fatalf("newest sample fleet view %+v", last)
	}
	cu, ok := last.Classes["default"]
	if !ok || cu.Active != last.Active || cu.Utilization <= 0 || cu.Utilization > 1 {
		t.Fatalf("class usage %+v", last.Classes)
	}
}

// TestStageSpansMatchDecisions: every traced path through the cluster —
// a batch with an admit, an infeasible reject and a normalise reject, a
// manual migration, a consolidation pass, an adoption and a release —
// leaves stage spans that agree with its flight-recorder decision: each
// span lasts exactly the decision's stage duration, each timed stage has
// its span, children sit inside their parents, one op's stages run in
// pipeline order without overlapping, and each group commit leaves one
// fsync span per call however many VMs it made durable.
func TestStageSpansMatchDecisions(t *testing.T) {
	rec := obs.NewFlightRecorder(64)
	spans := obs.NewSpanStore(512)
	cfg := Config{
		Servers: testServers(3), IdleTimeout: 2, MigrationCostPerGB: 0.5,
		Dir: t.TempDir(), Recorder: rec, Spans: spans,
	}
	c := mustOpen(t, cfg)
	defer c.Close()
	traced := func(decode time.Duration) (context.Context, obs.TraceContext) {
		tc := obs.NewTraceContext()
		return obs.WithDecodeSpan(obs.WithTraceContext(context.Background(), tc), decode), tc
	}

	ctx, admitTC := traced(2 * time.Millisecond)
	adms, err := c.Admit(ctx, []VMRequest{
		{ID: 1, Demand: model.Resources{CPU: 2, Mem: 2}, Start: 1, DurationMinutes: 50},
		{ID: 2, Demand: model.Resources{CPU: 2, Mem: 2}, Start: 1, DurationMinutes: 60},
		{ID: 3, Demand: model.Resources{CPU: 999, Mem: 999}, DurationMinutes: 30},
		{ID: 4, Demand: model.Resources{CPU: 1, Mem: 1}, DurationMinutes: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !adms[0].Accepted || !adms[1].Accepted || adms[2].Accepted || adms[3].Accepted {
		t.Fatalf("admissions %+v", adms)
	}
	// Split the two VMs over two servers so the pass has a drain to run.
	src := c.State().VMs[0].Server
	ctx, migrateTC := traced(2 * time.Millisecond)
	if _, err := c.Migrate(ctx, 2, cfg.Servers[(src+1)%3].ID); err != nil {
		t.Fatal(err)
	}
	if err := c.AdvanceTo(10); err != nil {
		t.Fatal(err)
	}
	ctx, passTC := traced(0)
	res, err := c.Consolidate(ctx, ConsolidateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed == 0 {
		t.Fatalf("consolidation moved nothing: %+v", res)
	}
	ctx, adoptTC := traced(2 * time.Millisecond)
	if _, _, err := c.Adopt(ctx, adoptVM(50, 5, 80), 5); err != nil {
		t.Fatal(err)
	}
	ctx, releaseTC := traced(0)
	if _, err := c.Release(ctx, 50); err != nil {
		t.Fatal(err)
	}

	type opKey struct {
		trace, op string
		vm        int
		batch     uint64
	}
	decisions := map[opKey]obs.Decision{}
	for _, d := range rec.Decisions(obs.Filter{}) {
		decisions[opKey{d.TraceID, d.Op, d.VM, d.Batch}] = d
	}
	all := spans.Spans(obs.SpanFilter{})
	byID := map[string]obs.Span{}
	for _, sp := range all {
		byID[sp.SpanID] = sp
	}
	stage := func(d obs.Decision, name string) (time.Duration, bool) {
		switch name {
		case obs.SpanDecode:
			return d.Stages.Decode, true
		case obs.SpanQueue:
			return d.Stages.QueueWait, true
		case obs.SpanScan:
			return d.Stages.Scan, true
		case obs.SpanCommit:
			return d.Stages.Commit, true
		case obs.SpanJournal:
			return d.Stages.Journal, true
		case obs.SpanSync:
			return d.Stages.Sync, true
		}
		return 0, false
	}
	pipeline := []string{obs.SpanDecode, obs.SpanQueue, obs.SpanScan, obs.SpanCommit, obs.SpanJournal, obs.SpanSync}
	end := func(sp obs.Span) time.Time { return sp.Start.Add(sp.Duration) }

	opStages := map[opKey]map[string]obs.Span{}
	fsyncs := map[string]int{}
	for _, sp := range all {
		if sp.Start.IsZero() {
			t.Errorf("%s span without a start: %+v", sp.Name, sp)
		}
		if p, ok := byID[sp.Parent]; ok && (sp.Start.Before(p.Start) || end(sp).After(end(p))) {
			t.Errorf("%s span [%v, %v] outside its %s parent [%v, %v]",
				sp.Name, sp.Start, end(sp), p.Name, p.Start, end(p))
		}
		k := opKey{sp.TraceID, sp.Op, sp.VM, sp.Batch}
		d, isDecision := decisions[k]
		want, isStage := stage(d, sp.Name)
		if !isStage {
			continue
		}
		if !isDecision {
			t.Errorf("%s span %+v matches no decision", sp.Name, sp)
			continue
		}
		if sp.Duration != want {
			t.Errorf("%s span of %s vm %d lasts %v, its decision says %v", sp.Name, sp.Op, sp.VM, sp.Duration, want)
		}
		if opStages[k] == nil {
			opStages[k] = map[string]obs.Span{}
		}
		if _, dup := opStages[k][sp.Name]; dup {
			t.Errorf("two %s spans for %s vm %d", sp.Name, sp.Op, sp.VM)
		}
		opStages[k][sp.Name] = sp
		if sp.Name == obs.SpanSync {
			fsyncs[sp.TraceID]++
		}
	}
	for k, d := range decisions {
		var prev obs.Span
		for _, name := range pipeline {
			sp, ok := opStages[k][name]
			// fsync spans are one per commit and call, not per VM:
			// counted below.
			if dur, _ := stage(d, name); dur > 0 && !ok && name != obs.SpanSync {
				t.Errorf("%s vm %d: decision has a %v %s stage but no span", d.Op, d.VM, dur, name)
			}
			if !ok {
				continue
			}
			if prev.Name != "" && sp.Start.Before(end(prev)) {
				t.Errorf("%s vm %d: %s starts at %v, before %s ended at %v", d.Op, d.VM, name, sp.Start, prev.Name, end(prev))
			}
			prev = sp
		}
	}
	for name, tc := range map[string]obs.TraceContext{
		"admit": admitTC, "migrate": migrateTC, "adopt": adoptTC, "release": releaseTC,
	} {
		if got := fsyncs[tc.TraceID]; got != 1 {
			t.Errorf("%s call left %d fsync spans, want 1", name, got)
		}
	}
	if got := fsyncs[passTC.TraceID]; got != res.Executed {
		t.Errorf("consolidation pass of %d moves left %d fsync spans", res.Executed, got)
	}
	// Umbrellas: one migrate per migration, one adopt, one pass.
	count := map[string]int{}
	for _, sp := range all {
		count[sp.Name]++
	}
	if count[obs.SpanMigrate] != 1+res.Executed || count[obs.SpanAdopt] != 1 || count[obs.SpanConsolidate] != 1 {
		t.Errorf("umbrella spans %v", count)
	}
}
