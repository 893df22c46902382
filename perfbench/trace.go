package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"vmalloc/internal/obs"
)

// Layer names: the repository's module names.
const (
	layerLoadgen     = "loadgen"
	layerShard       = "shard"
	layerClusterHTTP = "clusterhttp"
	layerCluster     = "cluster"
	layerOnline      = "online"
	layerTimeline    = "timeline"
	layerObs         = "obs"
	layerCore        = "core"
	layerEnergy      = "energy"
	layerBaseline    = "baseline"
)

// span is one timed call in the traced run. The benchmark records client
// calls, gate and shard handler calls and direct calls into layers; the
// program's own stage spans are converted into the same shape when a
// round ends.
type span struct {
	Layer string `json:"layer"`
	Name  string `json:"name"`
	// Trace is the W3C trace id the call carried, which links a client
	// call, the gate and shard handler calls it caused and the program's
	// stage spans.
	Trace string `json:"trace,omitempty"`
	// Shard names the shard a handler or stage span ran on.
	Shard string    `json:"shard,omitempty"`
	Start time.Time `json:"start"`
	Dur   int64     `json:"durNanos"`
	// Bytes is request plus response body size for handler spans.
	Bytes int64 `json:"bytes,omitempty"`
	// Batch and VM come from program stage spans.
	Batch uint64 `json:"batch,omitempty"`
	VM    int    `json:"vm,omitempty"`
	// Calls is how many calls a repeated direct-call span covers.
	Calls int `json:"calls,omitempty"`
}

func (s span) end() time.Time          { return s.Start.Add(time.Duration(s.Dur)) }
func (s span) interval() interval      { return interval{s.Start, s.end()} }
func (s span) duration() time.Duration { return time.Duration(s.Dur) }

// tracer collects spans in memory; the span file is written once the
// run ends. A nil tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the spans recorded so far and empties the tracer.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// timed runs fn and records it as a direct-call span of layer.
func (t *tracer) timed(layer, name string, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.add(span{Layer: layer, Name: name, Start: t0, Dur: int64(d)})
	return d
}

// repeated runs fn n times in one timing and records it as a direct-call
// span of layer covering n calls, for calls too short to time alone.
func (t *tracer) repeated(layer, name string, n int, fn func()) {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	t.add(span{Layer: layer, Name: name, Start: t0, Dur: int64(time.Since(t0)), Calls: n})
}

// perCallNs is a span's duration in nanoseconds per call it covers.
func (s span) perCallNs() float64 { return float64(s.Dur) / float64(max(s.Calls, 1)) }

// route maps a request path to its route pattern, so per-VM paths
// aggregate.
func route(r *http.Request) string {
	p := r.URL.Path
	if strings.HasPrefix(p, "/v1/vms/") {
		p = "/v1/vms/{id}"
	}
	return r.Method + " " + p
}

func traceOf(h http.Header) string {
	tc, _ := obs.ParseTraceParent(h.Get(obs.TraceParentHeader))
	return tc.TraceID
}

type countingReader struct {
	io.ReadCloser
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.ReadCloser.Read(p)
	c.n += int64(n)
	return n, err
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// wrap times every request next serves as a span of layer, measured
// from outside the handler (the program's own middleware included).
func (t *tracer) wrap(layer, shard string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body := &countingReader{ReadCloser: r.Body}
		r.Body = body
		cw := &countingWriter{ResponseWriter: w}
		t0 := time.Now()
		next.ServeHTTP(cw, r)
		// The program's middleware echoes the trace it joined, or the one
		// it minted for an untraced request, on the response.
		t.add(span{
			Layer: layer, Name: route(r), Trace: traceOf(w.Header()), Shard: shard,
			Start: t0, Dur: int64(time.Since(t0)), Bytes: body.n + cw.n,
		})
	})
}

// clientTransport records one loadgen span per HTTP attempt, from the
// request leaving the client until its response body is closed.
type clientTransport struct {
	base http.RoundTripper
	t    *tracer
}

func (c *clientTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	sp := span{Layer: layerLoadgen, Name: route(req), Trace: traceOf(req.Header), Start: t0}
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		sp.Dur = int64(time.Since(t0))
		c.t.add(sp)
		return nil, err
	}
	if sp.Trace == "" {
		sp.Trace = traceOf(resp.Header)
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, sp: sp, t: c.t}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	sp   span
	t    *tracer
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.sp.Dur = int64(time.Since(b.sp.Start))
		b.t.add(b.sp)
	})
	return err
}

// programSpans converts the program's stage spans into the benchmark's
// shape, assigning each stage name to the module that records it.
func programSpans(shard string, in []obs.Span) []span {
	out := make([]span, 0, len(in))
	for _, s := range in {
		layer := layerCluster
		switch s.Name {
		case obs.SpanScan, obs.SpanCommit:
			layer = layerOnline
		case obs.SpanRoute:
			layer = layerObs
		case obs.SpanFanout, obs.SpanMerge:
			layer = layerShard
		}
		out = append(out, span{
			Layer: layer, Name: "program." + s.Name, Trace: s.TraceID, Shard: shard,
			Start: s.Start, Dur: int64(s.Duration), Batch: s.Batch, VM: s.VM,
		})
	}
	return out
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
