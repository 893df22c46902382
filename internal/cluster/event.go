package cluster

import (
	"context"
	"time"

	"vmalloc/internal/obs"
)

// opEvent is one cluster operation's telemetry record: the flight-recorder
// decision being built, the trace context the operation arrived with, and
// the measured start instant of each stage (zero when the stage did not
// run). emitLocked turns it into every view at once, so a stage span
// always lasts exactly as long as the decision says the stage took.
type opEvent struct {
	d  obs.Decision
	tc obs.TraceContext
	// umbrella names the span (obs.SpanMigrate, obs.SpanAdopt) that wraps
	// the op's stage spans, with detail as its Detail; empty when the
	// stages hang off tc directly.
	umbrella, detail string
	// start is when the op entered the cluster: decode ends there, and
	// the micro-batch queue wait or the umbrella span begins there.
	start                       time.Time
	scan, commit, journal, sync time.Time
	// lead marks an admit call's first event, which carries the call's
	// queue-wait observation (the histogram counts calls, not VMs).
	lead bool
}

// newEvent starts the event of an operation the caller issued with ctx
// (release, migrate, adopt) at fleet minute clock.
func newEvent(ctx context.Context, op string, vm, clock int) opEvent {
	tc := obs.TraceContextFrom(ctx)
	return opEvent{
		d: obs.Decision{
			RequestID: obs.RequestID(ctx),
			TraceID:   tc.TraceID,
			Op:        op,
			VM:        vm,
			Clock:     clock,
			Stages:    obs.StageTimings{Decode: obs.DecodeSpan(ctx)},
		},
		tc:    tc,
		start: time.Now(),
	}
}

// event starts the event of the call's k-th request in the given batch,
// which began processing at batchStart.
func (call *admitCall) event(batch uint64, batchStart time.Time, k int) opEvent {
	return opEvent{
		d: obs.Decision{
			RequestID: call.reqID,
			TraceID:   call.trace.TraceID,
			Batch:     batch,
			Stages: obs.StageTimings{
				Decode:    call.decode,
				QueueWait: batchStart.Sub(call.enqueued),
			},
		},
		tc:    call.trace,
		start: call.enqueued,
		lead:  k == 0,
	}
}

// emitLocked hands a finished event to its views: the queue-wait
// histogram, the flight recorder, and — for a traced op with a span store
// configured — one span per stage that ran. Decode is parented on the
// caller's span and ends where the op started; the other stages nest
// under the umbrella span when the op has one. Callers hold c.mu.
func (c *Cluster) emitLocked(ev *opEvent) {
	if ev.lead {
		c.met.queueWaitSeconds.Observe(ev.d.Stages.QueueWait.Seconds())
	}
	if c.rec != nil {
		c.rec.Record(ev.d)
	}
	if c.cfg.Spans == nil || !ev.tc.Valid() {
		return
	}
	base := obs.Span{
		TraceID: ev.tc.TraceID,
		Parent:  ev.tc.SpanID,
		Op:      ev.d.Op,
		VM:      ev.d.VM,
		Batch:   ev.d.Batch,
	}
	emit := func(name string, start time.Time, dur time.Duration) {
		if start.IsZero() || dur <= 0 {
			return
		}
		sp := base
		sp.SpanID = obs.NewSpanID()
		sp.Name = name
		sp.Start = start
		sp.Duration = dur
		c.cfg.Spans.Record(sp)
	}
	st := &ev.d.Stages
	emit(obs.SpanDecode, ev.start.Add(-st.Decode), st.Decode)
	if ev.umbrella != "" {
		um := base
		um.SpanID = obs.NewSpanID()
		um.Name = ev.umbrella
		um.Detail = ev.detail
		um.Start = ev.start
		um.Duration = time.Since(ev.start)
		c.cfg.Spans.Record(um)
		base.Parent = um.SpanID
	}
	emit(obs.SpanQueue, ev.start, st.QueueWait)
	emit(obs.SpanScan, ev.scan, st.Scan)
	emit(obs.SpanCommit, ev.commit, st.Commit)
	emit(obs.SpanJournal, ev.journal, st.Journal)
	emit(obs.SpanSync, ev.sync, st.Sync)
}

// failLocked emits ev as an operation refused with err and returns err.
func (c *Cluster) failLocked(ev *opEvent, err error) error {
	ev.d.Reason = err.Error()
	c.emitLocked(ev)
	return err
}

// appendLocked journals r, timing the append as ev's journal stage.
func (c *Cluster) appendLocked(ev *opEvent, r record) error {
	ev.journal = time.Now()
	err := c.jr.append(r)
	ev.d.Stages.Journal = time.Since(ev.journal)
	return err
}

// journalLocked makes one mutation outside the admission batches durable:
// it appends r, waits for the group commit covering it, observes that
// fsync, and turns a failure of either into the sticky ErrJournalBroken.
// Both stages are timed into ev. A volatile cluster journals nothing.
func (c *Cluster) journalLocked(ev *opEvent, r record) error {
	if c.jr == nil {
		return nil
	}
	err := c.appendLocked(ev, r)
	if err == nil {
		ev.sync = time.Now()
		err = c.jr.commit()
		ev.d.Stages.Sync = time.Since(ev.sync)
		c.met.fsyncSeconds.Observe(ev.d.Stages.Sync.Seconds())
	}
	if err != nil {
		err = c.journalFailedLocked(err)
	}
	return err
}

// firstTrace returns the first valid trace context among a batch's calls
// — the trace batch-level spans (the shadow-arena enqueue) attach to.
func firstTrace(batch []*admitCall) obs.TraceContext {
	for _, call := range batch {
		if call.trace.Valid() {
			return call.trace
		}
	}
	return obs.TraceContext{}
}
