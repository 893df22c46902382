package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vmalloc/internal/api"
	"vmalloc/internal/cluster"
	"vmalloc/internal/clusterhttp"
	"vmalloc/internal/model"
	"vmalloc/internal/obs"
)

// newShardServer stands up one shard with zero-transition servers, so
// start times are independent of which shard hosts a VM — the property
// that makes a resized deployment's placement digest comparable to a
// never-resized control's.
func newShardServer(t *testing.T, base int) *httptest.Server {
	t.Helper()
	servers := make([]model.Server, 8)
	for j := range servers {
		servers[j] = model.Server{
			ID:       base + j,
			Capacity: model.Resources{CPU: 10, Mem: 16},
			PIdle:    100,
			PPeak:    200,
		}
	}
	c, err := cluster.Open(cluster.Config{Servers: servers, IdleTimeout: 1000})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	srv := httptest.NewServer(clusterhttp.New(c, clusterhttp.Config{Metrics: obs.NewHTTPMetrics()}))
	t.Cleanup(srv.Close)
	return srv
}

// elasticDeployment is a gate over an explicit shard map, with the
// spare shard servers already running so a later topology POST can pull
// them in.
type elasticDeployment struct {
	gate    *Gate
	gateSrv *httptest.Server
	byName  map[string]*httptest.Server
}

func newElasticDeployment(t *testing.T, initial []Shard, epoch int64, all map[string]*httptest.Server) *elasticDeployment {
	t.Helper()
	m, err := NewMap(initial)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGate(m.WithEpoch(epoch), Config{Metrics: obs.NewHTTPMetrics(), Spans: obs.NewSpanStore(0)})
	gateSrv := httptest.NewServer(g.Handler())
	t.Cleanup(gateSrv.Close)
	return &elasticDeployment{gate: g, gateSrv: gateSrv, byName: all}
}

func (d *elasticDeployment) do(t *testing.T, method, path, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, d.gateSrv.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// mustDo fails the test on any non-2xx response — the zero-failed-ops
// assertion, applied per call.
func (d *elasticDeployment) mustDo(t *testing.T, method, path, body string) []byte {
	t.Helper()
	resp, raw := d.do(t, method, path, body)
	if resp.StatusCode/100 != 2 {
		t.Fatalf("%s %s → %d: %s", method, path, resp.StatusCode, raw)
	}
	return raw
}

func admitBatch(ids []int, start, duration int) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprintf(`{"id":%d,"demand":{"cpu":1,"mem":1},"start":%d,"durationMinutes":%d}`, id, start, duration)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

func seq(from, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = from + i
	}
	return out
}

// driveWorkload runs the identical client-op script against a
// deployment, with resize injected (or not) between the phases. Every
// op must succeed.
func driveWorkload(t *testing.T, d *elasticDeployment, resize func()) {
	t.Helper()
	d.mustDo(t, http.MethodPost, "/v1/vms", admitBatch(seq(1, 24), 1, 40))
	d.mustDo(t, http.MethodPost, "/v1/clock", `{"now":5}`)
	d.mustDo(t, http.MethodPost, "/v1/vms", admitBatch(seq(25, 12), 6, 30))
	if resize != nil {
		resize()
	}
	// Ops landing inside (or right after) the transition window: fresh
	// admissions route by the new map; releases of possibly-undrained
	// VMs must still resolve via the double-delete fallback.
	d.mustDo(t, http.MethodPost, "/v1/vms", admitBatch(seq(37, 12), 7, 20))
	for _, id := range []int{3, 11, 19, 27} {
		d.mustDo(t, http.MethodDelete, "/v1/vms/"+fmt.Sprint(id), "")
	}
	d.mustDo(t, http.MethodPost, "/v1/clock", `{"now":12}`)
}

func placementDigestOf(t *testing.T, d *elasticDeployment) (string, int) {
	t.Helper()
	raw := d.mustDo(t, http.MethodGet, "/v1/state", "")
	var st api.GateStateResponse
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.PlacementDigest == "" {
		t.Fatal("gate state has no placementDigest")
	}
	return st.PlacementDigest, st.Residents
}

// awaitDrain polls GET /v1/topology until the rebalance settles and
// returns its final status.
func awaitDrain(t *testing.T, d *elasticDeployment) api.RebalanceStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		raw := d.mustDo(t, http.MethodGet, "/v1/topology", "")
		var tr api.TopologyResponse
		if err := json.Unmarshal(raw, &tr); err != nil {
			t.Fatal(err)
		}
		if !tr.Rebalance.Active {
			return tr.Rebalance
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebalance still active: %+v", tr.Rebalance)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLiveResizeZeroFailures is the tentpole's end-to-end check: a 2→3
// shard resize under live traffic loses no client op, drains every
// remapped VM to its new owner, and converges to a placement digest
// byte-identical to a never-resized 3-shard control driven by the same
// workload.
func TestLiveResizeZeroFailures(t *testing.T) {
	shardSrvs := map[string]*httptest.Server{
		"a": newShardServer(t, 100),
		"b": newShardServer(t, 200),
		"c": newShardServer(t, 300),
	}
	three := []Shard{
		{Name: "a", Addr: shardSrvs["a"].URL},
		{Name: "b", Addr: shardSrvs["b"].URL},
		{Name: "c", Addr: shardSrvs["c"].URL},
	}
	two := three[:2]

	// Control: all three shards from the start, same workload, no resize.
	ctrlSrvs := map[string]*httptest.Server{
		"a": newShardServer(t, 100),
		"b": newShardServer(t, 200),
		"c": newShardServer(t, 300),
	}
	ctrlShards := []Shard{
		{Name: "a", Addr: ctrlSrvs["a"].URL},
		{Name: "b", Addr: ctrlSrvs["b"].URL},
		{Name: "c", Addr: ctrlSrvs["c"].URL},
	}
	control := newElasticDeployment(t, ctrlShards, 2, ctrlSrvs)
	driveWorkload(t, control, nil)

	resized := newElasticDeployment(t, two, 1, shardSrvs)
	driveWorkload(t, resized, func() {
		body := fmt.Sprintf(`{"epoch":2,"shards":[{"name":"a","url":%q},{"name":"b","url":%q},{"name":"c","url":%q}]}`,
			shardSrvs["a"].URL, shardSrvs["b"].URL, shardSrvs["c"].URL)
		raw := resized.mustDo(t, http.MethodPost, "/v1/topology", body)
		var tr api.TopologyResponse
		if err := json.Unmarshal(raw, &tr); err != nil {
			t.Fatal(err)
		}
		if tr.Epoch != 2 || !tr.Rebalance.Active {
			t.Fatalf("topology accept = %+v, want epoch 2 with an active rebalance", tr)
		}
	})

	status := awaitDrain(t, resized)
	if status.Failed != 0 || status.LastError != "" {
		t.Fatalf("rebalance finished with failures: %+v", status)
	}
	if status.Moved == 0 {
		t.Fatalf("rebalance moved nothing: %+v", status)
	}
	if status.Moved+status.Skipped != status.Planned {
		t.Fatalf("moved %d + skipped %d ≠ planned %d", status.Moved, status.Skipped, status.Planned)
	}

	// Every remapped VM now lives on its final owner: the resized
	// deployment's residency fingerprint matches the never-resized
	// control's exactly.
	wantDigest, wantResidents := placementDigestOf(t, control)
	gotDigest, gotResidents := placementDigestOf(t, resized)
	if gotResidents != wantResidents {
		t.Fatalf("resized deployment hosts %d VMs, control %d", gotResidents, wantResidents)
	}
	if gotDigest != wantDigest {
		t.Fatalf("placement digest diverged after resize:\n  resized %s\n  control %s", gotDigest, wantDigest)
	}

	// The drain is visible in the gate's own metrics.
	raw := resized.mustDo(t, http.MethodGet, "/metrics", "")
	if !strings.Contains(string(raw), "vmalloc_gate_rebalance_moves_total "+fmt.Sprint(status.Moved)) {
		t.Fatalf("metrics missing vmalloc_gate_rebalance_moves_total %d", status.Moved)
	}
	if !strings.Contains(string(raw), "vmalloc_gate_topology_epoch 2") {
		t.Fatal("metrics missing vmalloc_gate_topology_epoch 2")
	}

	// The epoch fence is live on the shards: a request stamped with the
	// superseded epoch gets the typed stale_epoch refusal.
	req, err := http.NewRequest(http.MethodGet, shardSrvs["a"].URL+"/v1/state", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(api.EpochHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env api.ErrorEnvelope
	if resp.StatusCode != http.StatusConflict || json.NewDecoder(resp.Body).Decode(&env) != nil || env.Code != api.CodeStaleEpoch {
		t.Fatalf("stale-stamped shard read: status %d code %q, want 409 %s", resp.StatusCode, env.Code, api.CodeStaleEpoch)
	}

	// And /v1/shards reports the new epoch with the joined shard.
	raw = resized.mustDo(t, http.MethodGet, "/v1/shards", "")
	var sh api.ShardsResponse
	if err := json.Unmarshal(raw, &sh); err != nil {
		t.Fatal(err)
	}
	if sh.Epoch != 2 || sh.Count != 3 {
		t.Fatalf("shards = epoch %d count %d, want epoch 2 count 3", sh.Epoch, sh.Count)
	}
}

// TestLiveShrinkZeroFailures is the reverse drain: a 3→2 resize under
// live traffic evacuates everything the leaving shard hosted, loses no
// client op, and converges to the placement digest of a two-shard
// control that never knew the third shard.
func TestLiveShrinkZeroFailures(t *testing.T) {
	shardSrvs := map[string]*httptest.Server{
		"a": newShardServer(t, 100),
		"b": newShardServer(t, 200),
		"c": newShardServer(t, 300),
	}
	three := []Shard{
		{Name: "a", Addr: shardSrvs["a"].URL},
		{Name: "b", Addr: shardSrvs["b"].URL},
		{Name: "c", Addr: shardSrvs["c"].URL},
	}

	ctrlSrvs := map[string]*httptest.Server{
		"a": newShardServer(t, 100),
		"b": newShardServer(t, 200),
	}
	ctrlShards := []Shard{
		{Name: "a", Addr: ctrlSrvs["a"].URL},
		{Name: "b", Addr: ctrlSrvs["b"].URL},
	}
	control := newElasticDeployment(t, ctrlShards, 2, ctrlSrvs)
	driveWorkload(t, control, nil)

	resized := newElasticDeployment(t, three, 1, shardSrvs)
	driveWorkload(t, resized, func() {
		body := fmt.Sprintf(`{"epoch":2,"shards":[{"name":"a","url":%q},{"name":"b","url":%q}]}`,
			shardSrvs["a"].URL, shardSrvs["b"].URL)
		resized.mustDo(t, http.MethodPost, "/v1/topology", body)
	})

	status := awaitDrain(t, resized)
	if status.Failed != 0 || status.LastError != "" {
		t.Fatalf("shrink drain finished with failures: %+v", status)
	}
	if status.Moved == 0 {
		t.Fatalf("shrink drain moved nothing: %+v", status)
	}

	wantDigest, wantResidents := placementDigestOf(t, control)
	gotDigest, gotResidents := placementDigestOf(t, resized)
	if gotResidents != wantResidents {
		t.Fatalf("shrunk deployment hosts %d VMs, control %d", gotResidents, wantResidents)
	}
	if gotDigest != wantDigest {
		t.Fatalf("placement digest diverged after shrink:\n  shrunk  %s\n  control %s", gotDigest, wantDigest)
	}

	// The leaving shard is empty: every VM it hosted was adopted by a
	// survivor and released here (read it directly — the gate no longer
	// routes to it).
	resp, err := http.Get(shardSrvs["c"].URL + "/v1/state")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st api.StateResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.VMs) != 0 {
		t.Fatalf("leaving shard still hosts %d VMs after the drain", len(st.VMs))
	}

	// The gate's shard set no longer includes the leaver.
	raw := resized.mustDo(t, http.MethodGet, "/v1/shards", "")
	var sh api.ShardsResponse
	if err := json.Unmarshal(raw, &sh); err != nil {
		t.Fatal(err)
	}
	if sh.Epoch != 2 || sh.Count != 2 {
		t.Fatalf("shards = epoch %d count %d, want epoch 2 count 2", sh.Epoch, sh.Count)
	}
}

// TestTopologyEndpointValidation covers the typed refusals of the
// topology API: stale epochs, an in-flight rebalance, and malformed
// bodies.
func TestTopologyEndpointValidation(t *testing.T) {
	srvs := map[string]*httptest.Server{
		"a": newShardServer(t, 100),
		"b": newShardServer(t, 200),
	}
	shards := []Shard{
		{Name: "a", Addr: srvs["a"].URL},
		{Name: "b", Addr: srvs["b"].URL},
	}
	d := newElasticDeployment(t, shards, 3, srvs)

	raw := d.mustDo(t, http.MethodGet, "/v1/topology", "")
	var tr api.TopologyResponse
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Epoch != 3 || len(tr.Shards) != 2 || tr.Shards[0].Weight != 1 || tr.Rebalance.Active {
		t.Fatalf("topology = %+v, want epoch 3, 2 shards, weight 1, inactive", tr)
	}

	post := func(body string) (*http.Response, []byte) {
		return d.do(t, http.MethodPost, "/v1/topology", body)
	}
	sameEpoch := fmt.Sprintf(`{"epoch":3,"shards":[{"name":"a","url":%q}]}`, srvs["a"].URL)
	resp, raw2 := post(sameEpoch)
	var env api.ErrorEnvelope
	if resp.StatusCode != http.StatusConflict || json.Unmarshal(raw2, &env) != nil || env.Code != api.CodeStaleEpoch {
		t.Fatalf("same-epoch POST: status %d body %s, want 409 %s", resp.StatusCode, raw2, api.CodeStaleEpoch)
	}

	for _, bad := range []string{
		`{"epoch":0,"shards":[{"name":"a","url":"http://x"}]}`,
		`{"epoch":4,"shards":[]}`,
		`{"epoch":4,"shards":[{"name":"a","url":"http://x","weight":-1}]}`,
		`not json`,
	} {
		if resp, _ := post(bad); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %q: status %d, want 400", bad, resp.StatusCode)
		}
	}

	// While a drain is marked in flight, a newer epoch must wait.
	d.gate.reb.mu.Lock()
	d.gate.reb.status = api.RebalanceStatus{Active: true, FromEpoch: 3, ToEpoch: 4}
	d.gate.reb.mu.Unlock()
	resp, raw2 = post(fmt.Sprintf(`{"epoch":5,"shards":[{"name":"a","url":%q}]}`, srvs["a"].URL))
	if resp.StatusCode != http.StatusConflict || json.Unmarshal(raw2, &env) != nil || env.Code != api.CodeRebalancing {
		t.Fatalf("mid-drain POST: status %d body %s, want 409 %s", resp.StatusCode, raw2, api.CodeRebalancing)
	}
}

// drainHook is an http.RoundTripper that runs a callback once, right
// after the first request matching method, path and host has been
// answered and before the gate sees the answer — it forces an
// interleaving that otherwise depends on scheduling.
type drainHook struct {
	method, path, host string
	fire               func()
	fired              atomic.Bool
}

func (h *drainHook) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if req.Method == h.method && req.URL.Path == h.path && req.URL.Host == h.host &&
		h.fire != nil && h.fired.CompareAndSwap(false, true) {
		h.fire()
	}
	return resp, err
}

// TestTransitionRaceAsksNewOwnerAgain forces the drain move that used to
// turn a transition-window release or migration into a 404: the new
// owner denies the VM (not adopted yet), the drain then adopts it there
// and releases it from the old owner, so the old owner denies it too.
// The gate must ask the new owner once more and succeed.
func TestTransitionRaceAsksNewOwnerAgain(t *testing.T) {
	for _, tc := range []struct {
		name, method string
		path         func(id int) string
		body         func(id int) string
	}{
		{"release", http.MethodDelete,
			func(id int) string { return fmt.Sprintf("/v1/vms/%d", id) },
			func(int) string { return "" }},
		{"migrate", http.MethodPost,
			func(int) string { return "/v1/migrations" },
			func(id int) string { return fmt.Sprintf(`{"vm":%d,"server":307}`, id) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srvs := map[string]*httptest.Server{
				"a": newShardServer(t, 100),
				"b": newShardServer(t, 200),
				"c": newShardServer(t, 300),
			}
			three := []Shard{
				{Name: "a", Addr: srvs["a"].URL},
				{Name: "b", Addr: srvs["b"].URL},
				{Name: "c", Addr: srvs["c"].URL},
			}
			prev, err := NewMap(three[:2])
			if err != nil {
				t.Fatal(err)
			}
			cur, err := NewMap(three)
			if err != nil {
				t.Fatal(err)
			}
			prev, cur = prev.WithEpoch(1), cur.WithEpoch(2)
			id := 1
			for prev.Assign(id).Name == cur.Assign(id).Name {
				id++
			}
			from, to := prev.Assign(id), cur.Assign(id)

			hook := &drainHook{method: tc.method, path: tc.path(id), host: strings.TrimPrefix(to.Addr, "http://")}
			g := NewGate(prev, Config{Client: &http.Client{Transport: hook}})
			gateSrv := httptest.NewServer(g.Handler())
			t.Cleanup(gateSrv.Close)
			d := &elasticDeployment{gate: g, gateSrv: gateSrv, byName: srvs}
			d.mustDo(t, http.MethodPost, "/v1/vms", admitBatch([]int{id}, 1, 40))

			// Open the transition window without starting a drain; the
			// hook runs the one move this test needs, at the worst time.
			ts := &topoState{cur: cur, prev: prev}
			g.prober.SetShards(ts.active())
			g.topo.Store(ts)
			var moved bool
			hook.fire = func() {
				records, _, err := g.readResidents(context.Background(), []Shard{from})
				if err != nil || len(records) != 1 {
					t.Errorf("read residents of %s: %v (%d records)", from.Name, err, len(records))
					return
				}
				ok, _, err := g.moveVM(context.Background(), "", "", Move{ID: id, From: from, To: to}, records[0].pv)
				moved = ok && err == nil
			}

			raw := d.mustDo(t, tc.method, tc.path(id), tc.body(id))
			if !hook.fired.Load() || !moved {
				t.Fatalf("drain move not interposed (fired %v, moved %v)", hook.fired.Load(), moved)
			}
			if tc.name == "migrate" {
				var rec api.MigrationRecord
				if err := json.Unmarshal(raw, &rec); err != nil {
					t.Fatal(err)
				}
				if rec.Shard != to.Name {
					t.Fatalf("migration answered by shard %q, want new owner %q", rec.Shard, to.Name)
				}
				return
			}
			_, residents := placementDigestOf(t, d)
			if residents != 0 {
				t.Fatalf("%d VMs resident after release, want 0", residents)
			}
		})
	}
}
