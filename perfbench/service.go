package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
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
	"vmalloc/internal/shard"
)

// clientWorkers bounds the calls the load generator has in flight, and
// the connections it holds per server.
const clientWorkers = 2

// idleTimeout is vmserve's default: idle minutes before an empty server
// sleeps.
const idleTimeout = 2

// svcSpec describes a service workload: the deployment it runs against
// and the operation stream it sends.
type svcSpec struct {
	// shards is the number of vmserve shards; gate puts a 2-shard
	// weight-1 vmgate in front of them.
	shards int
	gate   bool
	// telemetry turns on vmserve's default flight recorder, span store
	// and energy recorder.
	telemetry bool
	// durable gives each shard a journal directory with fsync on and the
	// program's default codec and snapshot cadence.
	durable bool
	// interval is the wall time per fleet minute of an open loop; 0 runs
	// a closed loop flat out.
	interval time.Duration
	fleet    func(seed int64) []model.Server
	schedule loadgen.ScheduleSpec
	// shape, when set, rewrites the generated schedule's VM demands.
	shape func(s *loadgen.Schedule, seed int64)
	// chunk is the admissions per call; 0 sends a minute's arrivals as
	// one call.
	chunk int
	// consolidateEvery runs POST /v1/consolidate after the admissions of
	// every minute divisible by it; 0 never.
	consolidateEvery int
	// readEvery sends GET /v1/state after every readEvery-th mutating
	// call; 0 never.
	readEvery int
}

type opKind uint8

const (
	opTick opKind = iota
	opConsolidate
	opAdmit
	opRelease
	opRead
	// opPeak and opFinal read the state with no mutation in flight: at
	// the schedule's peak minute, and after the final drain tick. Their
	// contents are checked.
	opPeak
	opFinal
)

type op struct {
	kind   opKind
	minute int
	// due is the offset from the round's start at which an open loop
	// sends the call.
	due    time.Duration
	admits []api.AdmitRequest
	vm     int
}

type opResult struct {
	start, end time.Time
	skipped    bool
	err        error
	adms       []api.AdmitResponse
	released   bool
	executed   int
	gate       *api.GateStateResponse
	single     *api.StateResponse
	digest     string
	heap       uint64 // live heap bytes after a checked read
}

type shardState struct {
	name string
	st   *api.StateResponse
}

// buildOps turns a schedule into the call stream: per minute a clock
// tick, the minute's admissions, an optional consolidation pass and the
// minute's early releases, with state reads interleaved.
func (w *svcSpec) buildOps(s *loadgen.Schedule) []op {
	peak := peakMinute(s)
	var ops []op
	muts := 0
	mut := func(o op) {
		ops = append(ops, o)
		muts++
		if w.readEvery > 0 && muts%w.readEvery == 0 {
			ops = append(ops, op{kind: opRead, minute: o.minute, due: o.due})
		}
	}
	iv := w.interval
	last := time.Duration(0)
	for _, st := range s.Steps {
		base := time.Duration(st.Minute-1) * iv
		last = base
		mut(op{kind: opTick, minute: st.Minute, due: base})
		chunk := w.chunk
		if chunk <= 0 {
			chunk = len(st.Admits)
		}
		for off := 0; off < len(st.Admits); off += chunk {
			end := min(off+chunk, len(st.Admits))
			mut(op{kind: opAdmit, minute: st.Minute, due: base + iv/5, admits: st.Admits[off:end]})
		}
		if w.consolidateEvery > 0 && st.Minute%w.consolidateEvery == 0 {
			mut(op{kind: opConsolidate, minute: st.Minute, due: base + iv*2/5})
		}
		for j, id := range st.Releases {
			due := base + iv/2 + time.Duration(j)*(iv*2/5)/time.Duration(len(st.Releases))
			mut(op{kind: opRelease, minute: st.Minute, due: due, vm: id})
		}
		if st.Minute == peak {
			ops = append(ops, op{kind: opPeak, minute: st.Minute, due: base + iv*19/20})
		}
	}
	drain := s.Horizon + 1
	ops = append(ops,
		op{kind: opTick, minute: drain, due: last + iv},
		op{kind: opFinal, minute: drain, due: last + iv})
	return ops
}

// peakMinute returns the step minute at which the most scheduled VMs
// are resident, counting early releases.
func peakMinute(s *loadgen.Schedule) int {
	delta := make(map[int]int)
	for _, st := range s.Steps {
		for _, a := range st.Admits {
			delta[a.Start]++
			delta[a.Start+a.DurationMinutes]--
		}
		for range st.Releases {
			delta[st.Minute]--
		}
	}
	minutes := make([]int, 0, len(delta))
	for m := range delta {
		minutes = append(minutes, m)
	}
	slices.Sort(minutes)
	best, bestN, n := 0, -1, 0
	steps := make(map[int]bool, len(s.Steps))
	for _, st := range s.Steps {
		steps[st.Minute] = true
	}
	for _, m := range minutes {
		n += delta[m]
		if steps[m] && n > bestN {
			best, bestN = m, n
		}
	}
	return best
}

// sequencer admits calls to the client workers in schedule order. A
// mutating call — admission, release, clock tick, consolidation pass or
// checked state read — waits until no other mutation is in flight, and
// later calls wait for it; plain state reads overlap anything; the peak
// and final reads run alone. Placements
// and the state digest are then a function of the schedule alone (even
// two releases of one minute, run concurrently, can leave different
// state bytes), so every round of a run, traced or not, must reproduce
// the same digests.
type sequencer struct {
	mu             sync.Mutex
	cond           *sync.Cond
	inflight, muts int
}

func newSequencer() *sequencer {
	s := &sequencer{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// acquire waits for a worker for a call of class c.
func (s *sequencer) acquire(c class) {
	s.mu.Lock()
	for !s.ready(c) {
		s.cond.Wait()
	}
	switch c {
	case classAlone:
		s.inflight, s.muts = clientWorkers, 1
	case classMutation:
		s.inflight++
		s.muts++
	default:
		s.inflight++
	}
	s.mu.Unlock()
}

func (s *sequencer) ready(c class) bool {
	switch c {
	case classAlone:
		return s.inflight == 0
	case classMutation:
		return s.inflight < clientWorkers && s.muts == 0
	}
	return s.inflight < clientWorkers
}

func (s *sequencer) release(c class) {
	s.mu.Lock()
	switch c {
	case classAlone:
		s.inflight, s.muts = 0, 0
	case classMutation:
		s.inflight--
		s.muts--
	default:
		s.inflight--
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// class is how a call may overlap others.
type class uint8

const (
	classRead     class = iota // overlaps anything
	classMutation              // overlaps only reads
	classAlone                 // overlaps nothing: the checked reads, where the heap is measured
)

func classOf(k opKind) class {
	switch k {
	case opRead:
		return classRead
	case opPeak, opFinal:
		return classAlone
	}
	return classMutation
}

type shardProc struct {
	name    string
	servers []model.Server
	cfg     cluster.Config
	cl      *cluster.Cluster
	rec     *obs.FlightRecorder
	spans   *obs.SpanStore
	srv     *http.Server
	url     string
	served  chan struct{}
}

// topology is one round's deployment: shards, optional gate and the
// client that drives them, all in this process on loopback TCP.
type topology struct {
	spec      *svcSpec
	shards    []*shardProc
	gmap      *shard.Map
	gateSpans *obs.SpanStore
	gateSrv   *http.Server
	gateDone  chan struct{}
	stopProbe context.CancelFunc
	probeDone chan struct{}
	gateTr    *http.Transport
	clientTr  *http.Transport
	client    *loadgen.Client
	tr        *tracer

	// accepted records admitted VM IDs, so releases of rejected VMs are
	// skipped as the loadgen runner does.
	accMu    sync.Mutex
	accepted map[int]bool

	// Journal growth, sampled with stat after each mutating call of a
	// traced durable round.
	jMu        sync.Mutex
	jLast      int64
	jBytes     int64
	jMutations int
}

func serve(h http.Handler) (*http.Server, string, chan struct{}, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Close
	}()
	return srv, "http://" + ln.Addr().String(), done, nil
}

// startTopology opens the round's shards and gate. spanCap > 0 sizes
// the program's span stores to keep a whole traced round.
func startTopology(w *svcSpec, servers []model.Server, dir string, tr *tracer, spanCap int) (*topology, error) {
	t := &topology{spec: w, tr: tr, accepted: make(map[int]bool)}
	names := []string{"a", "b"}
	for i := 0; i < w.shards; i++ {
		p := &shardProc{name: names[i], servers: servers}
		var energy *obs.EnergyRecorder
		if w.telemetry {
			p.rec = obs.NewFlightRecorder(obs.DefaultRecorderSize)
			p.spans = obs.NewSpanStore(obs.DefaultSpanStoreSize)
			energy = obs.NewEnergyRecorder(obs.DefaultEnergyWindow)
		}
		if spanCap > 0 {
			p.spans = obs.NewSpanStore(spanCap)
		}
		p.cfg = cluster.Config{
			Servers:     servers,
			Policy:      &online.MinCostPolicy{},
			IdleTimeout: idleTimeout,
			BatchWindow: time.Millisecond,
			Recorder:    p.rec,
			Spans:       p.spans,
			Energy:      energy,
		}
		if w.durable {
			p.cfg.Dir = filepath.Join(dir, "journal-"+p.name)
		}
		cl, err := cluster.Open(p.cfg)
		if err != nil {
			t.close()
			return nil, err
		}
		p.cl = cl
		var h http.Handler = clusterhttp.New(cl, clusterhttp.Config{Recorder: p.rec, Spans: p.spans, Energy: energy})
		if tr != nil {
			h = tr.wrap(layerClusterHTTP, p.name, h)
		}
		p.srv, p.url, p.served, err = serve(h)
		t.shards = append(t.shards, p)
		if err != nil {
			t.close()
			return nil, err
		}
	}
	base := t.shards[0].url
	if w.gate {
		list := make([]shard.Shard, len(t.shards))
		for i, p := range t.shards {
			list[i] = shard.Shard{Name: p.name, Addr: p.url, Weight: 1}
		}
		m, err := shard.NewMap(list)
		if err != nil {
			t.close()
			return nil, err
		}
		t.gmap = m
		t.gateSpans = obs.NewSpanStore(obs.DefaultSpanStoreSize)
		if spanCap > 0 {
			t.gateSpans = obs.NewSpanStore(spanCap)
		}
		t.gateTr = http.DefaultTransport.(*http.Transport).Clone()
		g := shard.NewGate(m, shard.Config{
			Client:  &http.Client{Transport: t.gateTr},
			Metrics: obs.NewHTTPMetrics(),
			Spans:   t.gateSpans,
		})
		ctx, cancel := context.WithCancel(context.Background())
		t.stopProbe, t.probeDone = cancel, make(chan struct{})
		go func() {
			defer close(t.probeDone)
			g.Run(ctx)
		}()
		var h http.Handler = g.Handler()
		if tr != nil {
			h = tr.wrap(layerShard, "gate", h)
		}
		t.gateSrv, base, t.gateDone, err = serve(h)
		if err != nil {
			t.close()
			return nil, err
		}
	}
	t.clientTr = &http.Transport{MaxConnsPerHost: clientWorkers, MaxIdleConnsPerHost: clientWorkers}
	var rt http.RoundTripper = t.clientTr
	if tr != nil {
		rt = &clientTransport{base: t.clientTr, t: tr}
	}
	t.client = loadgen.NewClient(base)
	t.client.HTTP = &http.Client{Transport: rt}
	return t, nil
}

// close stops servers and clusters that are still open and waits for
// their goroutines.
func (t *topology) close() error {
	var errs []error
	if t.clientTr != nil {
		t.clientTr.CloseIdleConnections()
	}
	if t.gateSrv != nil {
		t.gateSrv.Close()
		<-t.gateDone
	}
	if t.stopProbe != nil {
		t.stopProbe()
		<-t.probeDone
	}
	if t.gateTr != nil {
		t.gateTr.CloseIdleConnections()
	}
	for _, p := range t.shards {
		if p.srv != nil {
			p.srv.Close()
			<-p.served
		}
		if p.cl != nil {
			errs = append(errs, p.cl.Close())
		}
	}
	return errors.Join(errs...)
}

func (t *topology) isAccepted(id int) bool {
	t.accMu.Lock()
	defer t.accMu.Unlock()
	return t.accepted[id]
}

// drive sends ops in order, at their due times when open is set, with at
// most clientWorkers calls in flight.
func (t *topology) drive(ctx context.Context, ops []op, open bool) ([]opResult, time.Time, time.Duration) {
	res := make([]opResult, len(ops))
	seq := newSequencer()
	var wg sync.WaitGroup
	start := time.Now()
	for i := range ops {
		o, r := &ops[i], &res[i]
		if open {
			if d := time.Until(start.Add(o.due)); d > 0 {
				time.Sleep(d)
			}
		}
		c := classOf(o.kind)
		seq.acquire(c)
		if o.kind == opRelease && !t.isAccepted(o.vm) {
			r.skipped = true
			seq.release(c)
			continue
		}
		r.start = time.Now()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer seq.release(c)
			t.exec(ctx, o, r)
		}()
	}
	wg.Wait()
	return res, start, time.Since(start)
}

// exec performs one call and stamps its completion time. State bodies
// are checked after the round, so the checks cost the client no time
// while the server is under load.
func (t *topology) exec(ctx context.Context, o *op, r *opResult) {
	switch o.kind {
	case opTick:
		_, r.err = t.client.AdvanceClock(ctx, o.minute)
	case opConsolidate:
		var resp *api.ConsolidateResponse
		if resp, r.err = t.client.Consolidate(ctx, api.ConsolidateRequest{}); r.err == nil {
			r.executed = resp.Executed
		}
	case opAdmit:
		r.adms, r.err = t.client.Admit(ctx, o.admits)
	case opRelease:
		r.released, r.err = t.client.Release(ctx, o.vm)
	case opRead, opPeak, opFinal:
		if t.gmap != nil {
			r.gate, r.digest, r.err = t.client.GateState(ctx)
		} else {
			r.single, r.digest, r.err = t.client.State(ctx)
		}
	}
	r.end = time.Now()
	if r.err == nil && (o.kind == opPeak || o.kind == opFinal) {
		// No other call is in flight, and the fleet holds the most VMs
		// (peak) or every telemetry ring has filled (final): a forced
		// collection measures the live heap at those points instead of
		// wherever the last automatic one happened to fall.
		runtime.GC()
		r.heap = liveHeap()
	}
	if r.err == nil && o.kind == opAdmit {
		t.accMu.Lock()
		for _, a := range r.adms {
			if a.Accepted {
				t.accepted[a.ID] = true
			}
		}
		t.accMu.Unlock()
	}
	if t.tr != nil && t.spec.durable && o.kind != opRead && o.kind != opPeak && o.kind != opFinal {
		t.sampleJournal()
	}
}

// states checks a read's digest header against its body and returns the
// per-shard states it holds.
func (t *topology) states(r *opResult) ([]shardState, error) {
	if r.gate != nil {
		if err := verifyGateDigest(r.gate, r.digest); err != nil {
			return nil, err
		}
		out := make([]shardState, len(r.gate.Shards))
		for i, sh := range r.gate.Shards {
			out[i] = shardState{name: sh.Shard, st: sh.State}
		}
		return out, nil
	}
	if err := verifyDigest(r.single, r.digest); err != nil {
		return nil, err
	}
	return []shardState{{name: t.shards[0].name, st: r.single}}, nil
}

// verifyDigest recomputes a shard's state digest from the decoded body.
func verifyDigest(st *api.StateResponse, header string) error {
	b, err := api.EncodeState(st)
	if err != nil {
		return err
	}
	if got := api.DigestBytes(b); got != header {
		return fmt.Errorf("state digest header %s, body digests to %s", header, got)
	}
	return nil
}

// verifyGateDigest recomputes every shard digest and the combined one.
func verifyGateDigest(gs *api.GateStateResponse, header string) error {
	if gs.Digest != header {
		return fmt.Errorf("gate state digest header %s, body says %s", header, gs.Digest)
	}
	per := make(map[string]string, len(gs.Shards))
	for _, sh := range gs.Shards {
		if err := verifyDigest(sh.State, sh.Digest); err != nil {
			return fmt.Errorf("shard %s: %w", sh.Shard, err)
		}
		per[sh.Shard] = sh.Digest
	}
	if got := shard.CombineDigests(per); got != header {
		return fmt.Errorf("gate state digest header %s, shard digests combine to %s", header, got)
	}
	return nil
}

// sampleJournal adds the growth of every shard's journal file since the
// last sample; a file that shrank was compacted by a snapshot, and only
// what was appended after the compaction counts.
func (t *topology) sampleJournal() {
	var size int64
	for _, p := range t.shards {
		if fi, err := os.Stat(filepath.Join(p.cfg.Dir, "journal.jsonl")); err == nil {
			size += fi.Size()
		}
	}
	t.jMu.Lock()
	defer t.jMu.Unlock()
	if size >= t.jLast {
		t.jBytes += size - t.jLast
	} else {
		t.jBytes += size
	}
	t.jLast = size
	t.jMutations++
}

// checkCapacity verifies that no server's CPU or memory reservations
// exceed its capacity at any minute after a state snapshot's clock. The
// minutes up to the clock are not checked: a state lists a migrated VM
// with its whole (start, end) on the server it moved to, which hosts it
// only from the minute after the move.
func checkCapacity(servers []model.Server, st *api.StateResponse) error {
	type step struct {
		t        int
		cpu, mem float64
	}
	per := make([][]step, len(servers))
	for _, pv := range st.VMs {
		if pv.Server < 0 || pv.Server >= len(servers) {
			return fmt.Errorf("vm %d on unknown server index %d", pv.VM.ID, pv.Server)
		}
		start, end := max(pv.Start, st.Now+1), pv.Start+pv.VM.End-pv.VM.Start
		if end < start {
			continue
		}
		d := pv.VM.Demand
		per[pv.Server] = append(per[pv.Server], step{start, d.CPU, d.Mem}, step{end + 1, -d.CPU, -d.Mem})
	}
	const tol = 1e-6
	for i, steps := range per {
		slices.SortFunc(steps, func(a, b step) int { return a.t - b.t })
		var cpu, mem float64
		for j, s := range steps {
			cpu += s.cpu
			mem += s.mem
			if j+1 < len(steps) && steps[j+1].t == s.t {
				continue
			}
			c := servers[i].Capacity
			if cpu > c.CPU+tol || mem > c.Mem+tol {
				return fmt.Errorf("server %d holds cpu %.3f mem %.3f at minute %d, capacity %v",
					servers[i].ID, cpu, mem, s.t, c)
			}
		}
	}
	return nil
}

// checkResidents verifies that the residents across shards are exactly
// the expected VMs, each once and on the shard the gate routes it to.
func (t *topology) checkResidents(states []shardState, want map[int]bool) error {
	seen := make(map[int]string, len(want))
	for _, s := range states {
		for _, pv := range s.st.VMs {
			id := pv.VM.ID
			if other, dup := seen[id]; dup {
				return fmt.Errorf("vm %d resident on shard %s and shard %s", id, other, s.name)
			}
			seen[id] = s.name
			if t.gmap != nil {
				if owner := t.gmap.Assign(id).Name; owner != s.name {
					return fmt.Errorf("vm %d resident on shard %s, routed to %s", id, s.name, owner)
				}
			}
			if !want[id] {
				return fmt.Errorf("vm %d resident but not expected", id)
			}
		}
	}
	for id := range want {
		if _, ok := seen[id]; !ok {
			return fmt.Errorf("vm %d lost: admitted, not released or departed, but not resident", id)
		}
	}
	return nil
}

// svcRound is what one round measured.
type svcRound struct {
	input       int
	setup, wall time.Duration
	// admitting is the time from the round's first call to the end of its
	// last admission call: the schedule's tail of ticks and releases after
	// the last arrival, whose length hangs on the longest lifetime drawn,
	// is left out.
	admitting                 time.Duration
	calls, failed, retries    int
	sent, accepted, rejected  int
	admitLat, relLat, readLat []float64 // ms
	consLat, late             []float64 // ms
	tickTotal                 time.Duration
	energy                    float64
	outcome, state            string
	peak                      []shardState
	recovery                  []float64 // s
	residentsPerServer        float64
	heapPeak                  uint64 // live heap after the peak or final read, whichever is larger
	// Traced rounds only.
	spans            []span
	counters         loadgen.Metrics
	decisions        int64
	journalBytes     int64
	journalMutations int
}

// prepare generates a round's inputs from the seed and opens a fresh
// deployment for them in a new directory under cfg.tmp; the time it
// takes is the round's set-up time.
func (w *svcSpec) prepare(cfg runConfig, tr *tracer) (*topology, []op, string, error) {
	servers := w.fleet(cfg.seed)
	spec := w.schedule
	spec.Seed = cfg.seed
	spec.NumVMs = cfg.scale(spec.NumVMs)
	sched, err := loadgen.BuildSchedule(spec)
	if err != nil {
		return nil, nil, "", err
	}
	if w.shape != nil {
		w.shape(sched, cfg.seed)
	}
	ops := w.buildOps(sched)
	dir, err := os.MkdirTemp(cfg.tmp, "round-")
	if err != nil {
		return nil, nil, "", err
	}
	spanCap := 0
	if tr != nil {
		spanCap = 16 * (len(ops) + sched.NumVMs)
	}
	topo, err := startTopology(w, servers, dir, tr, spanCap)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, "", err
	}
	return topo, ops, dir, nil
}

// setupOnce times one set-up alone and tears it down.
func (w *svcSpec) setupOnce(cfg runConfig) (time.Duration, error) {
	t0 := time.Now()
	topo, _, dir, err := w.prepare(cfg, nil)
	if err != nil {
		return 0, err
	}
	d := time.Since(t0)
	err = topo.close()
	os.RemoveAll(dir)
	return d, err
}

// round runs the workload once against a fresh deployment.
func (w *svcSpec) round(ctx context.Context, cfg runConfig, tr *tracer) (*svcRound, error) {
	t0 := time.Now()
	topo, ops, dir, err := w.prepare(cfg, tr)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	defer topo.close()
	r := &svcRound{setup: time.Since(t0)}

	var before []loadgen.Metrics
	if tr != nil {
		if before, err = topo.scrape(ctx); err != nil {
			return nil, err
		}
	}
	res, start, wall := topo.drive(ctx, ops, w.interval > 0)
	r.wall = wall
	r.retries = topo.client.Retried()
	if err := r.fold(w, topo, ops, res, start); err != nil {
		return r, err
	}
	if tr != nil {
		if err := r.collect(ctx, topo, before, tr); err != nil {
			return r, err
		}
	}
	if w.durable {
		if err := r.recover(ctx, topo, dir); err != nil {
			return r, err
		}
	}
	// Later rounds measure the heap at their own peak; this one's state
	// must not be part of it.
	r.peak = nil
	return r, topo.close()
}

// fold checks the round's outcomes and turns them into samples.
func (r *svcRound) fold(w *svcSpec, topo *topology, ops []op, res []opResult, start time.Time) error {
	h := sha256.New()
	resident := make(map[int]int) // accepted VM → end minute
	var final []shardState
	for i := range ops {
		o, x := &ops[i], &res[i]
		if x.skipped {
			fmt.Fprintf(h, "r %d S\n", o.vm)
			continue
		}
		r.calls++
		if x.err != nil {
			r.failed++
			return fmt.Errorf("%s at minute %d: %w", kindName(o.kind), o.minute, x.err)
		}
		due := x.start
		if w.interval > 0 {
			due = start.Add(o.due)
			r.late = append(r.late, ms(x.start.Sub(due)))
		}
		lat := ms(x.end.Sub(due))
		switch o.kind {
		case opTick:
			r.tickTotal += x.end.Sub(x.start)
		case opConsolidate:
			r.consLat = append(r.consLat, lat)
			fmt.Fprintf(h, "c %d %d\n", o.minute, x.executed)
		case opAdmit:
			r.admitLat = append(r.admitLat, lat)
			r.admitting = max(r.admitting, x.end.Sub(start))
			r.sent += len(o.admits)
			for _, a := range x.adms {
				if a.Accepted {
					r.accepted++
					resident[a.ID] = a.End
					fmt.Fprintf(h, "a %d 1\n", a.ID)
				} else {
					r.rejected++
					fmt.Fprintf(h, "a %d 0\n", a.ID)
				}
			}
		case opRelease:
			r.relLat = append(r.relLat, lat)
			if x.released {
				delete(resident, o.vm)
				fmt.Fprintf(h, "r %d 1\n", o.vm)
			} else {
				fmt.Fprintf(h, "r %d 0\n", o.vm)
			}
		case opRead:
			r.readLat = append(r.readLat, lat)
			state, err := topo.states(x)
			if err != nil {
				return fmt.Errorf("read at minute %d: %w", o.minute, err)
			}
			for _, s := range state {
				if err := checkCapacity(topo.shards[0].servers, s.st); err != nil {
					return fmt.Errorf("read at minute %d, shard %s: %w", o.minute, s.name, err)
				}
			}
		case opPeak, opFinal:
			state, err := topo.states(x)
			if err != nil {
				return fmt.Errorf("%s at minute %d: %w", kindName(o.kind), o.minute, err)
			}
			want := make(map[int]bool)
			for id, end := range resident {
				if end >= o.minute {
					want[id] = true
				}
			}
			if err := topo.checkResidents(state, want); err != nil {
				return fmt.Errorf("%s state at minute %d: %w", kindName(o.kind), o.minute, err)
			}
			for _, s := range state {
				if err := checkCapacity(topo.shards[0].servers, s.st); err != nil {
					return fmt.Errorf("%s state at minute %d, shard %s: %w", kindName(o.kind), o.minute, s.name, err)
				}
			}
			r.heapPeak = max(r.heapPeak, x.heap)
			if o.kind == opPeak {
				r.peak = state
			} else {
				final = state
				r.state = x.digest
			}
		}
	}
	if r.sent != r.accepted+r.rejected {
		return fmt.Errorf("sent %d admissions, %d accepted + %d rejected", r.sent, r.accepted, r.rejected)
	}
	admitted := 0
	for _, s := range final {
		admitted += s.st.Admitted
		r.energy += s.st.TotalEnergy
	}
	if admitted != r.accepted {
		return fmt.Errorf("final state counts %d admissions, the client saw %d accepted", admitted, r.accepted)
	}
	if r.peak == nil {
		return errors.New("no peak state read")
	}
	busy, vms := 0, 0
	for _, s := range r.peak {
		for _, srv := range s.st.Servers {
			if srv.VMs > 0 {
				busy++
				vms += srv.VMs
			}
		}
	}
	if busy > 0 {
		r.residentsPerServer = float64(vms) / float64(busy)
	}
	r.outcome = hex.EncodeToString(h.Sum(nil))
	return nil
}

func kindName(k opKind) string {
	return [...]string{"tick", "consolidate", "admit", "release", "read", "peak read", "final read"}[k]
}

// scrape reads every shard's /metrics.
func (t *topology) scrape(ctx context.Context) ([]loadgen.Metrics, error) {
	out := make([]loadgen.Metrics, len(t.shards))
	for i, p := range t.shards {
		c := loadgen.NewClient(p.url)
		c.HTTP = &http.Client{Transport: t.clientTr}
		m, err := c.Metrics(ctx)
		if err != nil {
			return nil, fmt.Errorf("scrape shard %s: %w", p.name, err)
		}
		out[i] = m
	}
	return out, nil
}

// collect gathers a traced round's spans and counter deltas, and replays
// the peak reservations into fresh ledgers and energy states.
func (r *svcRound) collect(ctx context.Context, topo *topology, before []loadgen.Metrics, tr *tracer) error {
	after, err := topo.scrape(ctx)
	if err != nil {
		return err
	}
	r.counters = make(loadgen.Metrics)
	for i := range after {
		for k, v := range after[i].Delta(before[i]) {
			r.counters[k] += v
		}
	}
	stores := map[string]*obs.SpanStore{}
	for _, p := range topo.shards {
		stores[p.name] = p.spans
		if p.rec != nil {
			r.decisions += p.rec.Seq()
		}
	}
	if topo.gateSpans != nil {
		stores["gate"] = topo.gateSpans
	}
	for name, st := range stores {
		if st == nil {
			continue
		}
		if int(st.Seq()) > st.Len() {
			return fmt.Errorf("span store %s evicted %d spans; size it for the round", name, int(st.Seq())-st.Len())
		}
		for _, sp := range programSpans(name, st.Spans(obs.SpanFilter{})) {
			tr.add(sp)
		}
	}
	sets := make([]placedSet, len(r.peak))
	for i, p := range r.peak {
		sets[i] = statePeak(topo.shards[0].servers, p.st)
	}
	replayLedgers(tr, sets)
	replayIncremental(tr, sets)
	r.spans = tr.take()
	r.journalBytes, r.journalMutations = topo.jBytes, topo.jMutations
	return nil
}

// crashReopens is how many crash images a durable round reopens per
// shard; recovery_s is the median.
const crashReopens = 3

// recoveryTail is the number of journal records past the snapshot in
// every crash image. The tail a workload happens to end with depends on
// where the last compaction fell, so recovery_s would swing with the
// seed between an empty and a full tail.
const recoveryTail = 128

// padJournal advances the clock a minute at a time until a snapshot
// compacts the shard's journal, then recoveryTail minutes more: each
// tick journals one record.
func (t *topology) padJournal(ctx context.Context, p *shardProc) error {
	path := filepath.Join(p.cfg.Dir, "journal.jsonl")
	now := p.cl.Now()
	for i := 0; ; i++ {
		now++
		if _, err := t.client.AdvanceClock(ctx, now); err != nil {
			return err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		if fi.Size() == 0 {
			break
		}
		if i > 2*cluster.DefaultSnapshotEvery {
			return fmt.Errorf("shard %s: no snapshot compacted the journal in %d ticks", p.name, i)
		}
	}
	for i := 0; i < recoveryTail; i++ {
		now++
		if _, err := t.client.AdvanceClock(ctx, now); err != nil {
			return err
		}
	}
	return nil
}

// recover reopens crash images of every shard's journal directory —
// copies taken while the cluster is still open, holding a snapshot and
// a recoveryTail-record journal — timing cluster.Open, and checks each
// reopened state against the live digest.
func (r *svcRound) recover(ctx context.Context, topo *topology, dir string) error {
	for _, p := range topo.shards {
		if err := topo.padJournal(ctx, p); err != nil {
			return err
		}
		live, err := p.cl.StateDigest()
		if err != nil {
			return err
		}
		for k := 0; k < crashReopens; k++ {
			img := filepath.Join(dir, fmt.Sprintf("crash-%s-%d", p.name, k))
			if err := copyDir(p.cfg.Dir, img); err != nil {
				return err
			}
			cfg := p.cfg
			cfg.Dir, cfg.Recorder, cfg.Spans, cfg.Energy = img, nil, nil, nil
			t0 := time.Now()
			cl, err := cluster.Open(cfg)
			d := time.Since(t0)
			if err != nil {
				return fmt.Errorf("reopen crash image: %w", err)
			}
			got, err := cl.StateDigest()
			if cerr := cl.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			if got != live {
				return fmt.Errorf("crash image of shard %s reopens to digest %s, live state is %s", p.name, got, live)
			}
			r.recovery = append(r.recovery, d.Seconds())
		}
	}
	return nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() || strings.HasSuffix(e.Name(), ".tmp") {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
