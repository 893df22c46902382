package main

import (
	"context"
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"

	"vmalloc/internal/api"
	"vmalloc/internal/model"
)

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false}, {19, 0, false}, {20, 50, true}, {99, 50, true},
		{100, 90, true}, {999, 90, true}, {1000, 99, true}, {9999, 99, true},
		{10000, 99.9, true}, {100000, 99.99, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	if got := minSamples(99); got != 1000 {
		t.Errorf("minSamples(99) = %d, want 1000", got)
	}
	if got := minSamples(50); got != 20 {
		t.Errorf("minSamples(50) = %d, want 20", got)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	samples := make([]float64, 999)
	for i := range samples {
		samples[i] = float64(len(samples) - i) // descending: percentile sorts
	}
	if _, err := percentile(samples, 99); err == nil {
		t.Fatal("p99 of 999 samples: want an error, only 9 lie beyond it")
	}
	samples = append(samples, 1000)
	v, err := percentile(samples, 99)
	if err != nil {
		t.Fatal(err)
	}
	if v != 990 {
		t.Fatalf("p99 of 1..1000 = %g, want 990 (ten samples beyond)", v)
	}
	if v, _ := percentile([]float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}, 50); v != 10 {
		t.Fatalf("median of 1..20 = %g, want 10", v)
	}
}

func TestBlockPercentileIgnoresOneBurst(t *testing.T) {
	samples := make([]float64, 3000)
	for i := range samples {
		samples[i] = 1
	}
	for i := 1000; i < 1100; i++ {
		samples[i] = 50 // a burst inside the second block
	}
	v, blocks, err := blockPercentile(samples, 99)
	if err != nil {
		t.Fatal(err)
	}
	if blocks != 3 || v != 1 {
		t.Fatalf("blockPercentile = %g over %d blocks, want 1 over 3", v, blocks)
	}
	if pooled, _ := percentile(samples, 99); pooled != 50 {
		t.Fatalf("pooled p99 = %g, want the burst's 50", pooled)
	}
	if _, _, err := blockPercentile(samples[:999], 99); err == nil {
		t.Fatal("999 samples cannot support one p99 block")
	}
}

// TestCheckCapacityFromClock checks that the capacity check covers the
// minutes after the state's clock only: a VM that migrated in at the
// clock is listed with its whole interval, but its target hosts it only
// from the next minute.
func TestCheckCapacityFromClock(t *testing.T) {
	servers := []model.Server{{ID: 1, Capacity: model.Resources{CPU: 10, Mem: 10}}}
	vm := func(id, start, end int, cpu float64) api.PlacedVM {
		return api.PlacedVM{VM: model.VM{ID: id, Demand: model.Resources{CPU: cpu, Mem: 1}, Start: start, End: end}, Start: start}
	}
	st := &api.StateResponse{Now: 20, VMs: []api.PlacedVM{vm(1, 5, 20, 6), vm(2, 10, 40, 6)}}
	if err := checkCapacity(servers, st); err != nil {
		t.Fatalf("overlap up to the clock only: %v", err)
	}
	st.VMs = append(st.VMs, vm(3, 30, 35, 6))
	if err := checkCapacity(servers, st); err == nil {
		t.Fatal("cpu 12 of 10 at minutes 30-35: want an error")
	}
}

func TestSelfTime(t *testing.T) {
	base := time.Unix(1000, 0)
	at := func(a, b int) interval {
		return interval{base.Add(time.Duration(a) * time.Millisecond), base.Add(time.Duration(b) * time.Millisecond)}
	}
	parent := at(0, 100)
	for _, c := range []struct {
		name     string
		children []interval
		want     int
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{at(10, 20), at(30, 50)}, 70},
		{"overlapping", []interval{at(10, 40), at(30, 60)}, 50},
		{"nested", []interval{at(10, 60), at(20, 30), at(40, 50)}, 50},
		{"past the parent's end", []interval{at(90, 150)}, 90},
		{"before the parent's start", []interval{at(-20, 10)}, 90},
		{"outside entirely", []interval{at(100, 120), at(-30, -10)}, 100},
		{"covering the parent", []interval{at(-5, 105)}, 0},
		{"touching", []interval{at(10, 20), at(20, 30)}, 80},
	} {
		if got := selfTime(parent, c.children); got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("%s: self time %v, want %dms", c.name, got, c.want)
		}
	}
}

func smokeConfig(t *testing.T, seed int64, trace bool) runConfig {
	return runConfig{seed: seed, trace: trace, tmp: t.TempDir(), smoke: true}
}

// TestSmoke runs every workload on tiny inputs, untraced and traced,
// with every correctness check on.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			res, _, err := execute(name, workloads[name], smokeConfig(t, 1, trace))
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s (traced %v): %+v", name, trace, res)
			}
		}
	}
}

// TestHeldOutSeed checks that another seed passes every check and gives
// another schedule.
func TestHeldOutSeed(t *testing.T) {
	for _, w := range []*svcSpec{gateDiurnal, denseHost, durableChurn} {
		var digests []string
		for _, seed := range []int64{1, 2} {
			r, err := w.round(context.Background(), smokeConfig(t, seed, false), nil)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			digests = append(digests, r.outcome)
		}
		if digests[0] == digests[1] {
			t.Fatalf("seeds 1 and 2 gave the same outcome digest %s", digests[0])
		}
	}
	a, err := offlineRound(context.Background(), smokeConfig(t, 1, false), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := offlineRound(context.Background(), smokeConfig(t, 2, false), nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.digest == b.digest {
		t.Fatal("seeds 1 and 2 gave the same offline placements")
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// workloads and metrics this program reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	for _, c := range []struct {
		declared []metric
		reported []string
	}{
		{doc.EndToEnd, endToEnd},
		{doc.PerLayer, perLayer},
	} {
		var declared []string
		for _, m := range c.declared {
			declared = append(declared, m.Name)
			if units[m.Name] != m.Unit {
				t.Errorf("%s: declared unit %q, program says %q", m.Name, m.Unit, units[m.Name])
			}
		}
		if !slices.Equal(declared, c.reported) {
			t.Errorf("BENCHMARK.json declares %v, the result line carries %v", declared, c.reported)
		}
	}
}
