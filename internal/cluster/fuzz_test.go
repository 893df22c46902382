package cluster

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"vmalloc/internal/model"
)

// realJournal materializes a genuine journal by driving a journaled
// cluster through a small admit/release/tick history and reading the
// bytes back before Close can compact them into a snapshot.
func realJournal(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.TempDir()
	c := mustOpen(tb, Config{Servers: testServers(4), IdleTimeout: 2, Dir: dir, SnapshotEvery: -1})
	reqs := []VMRequest{
		{ID: 1, Demand: model.Resources{CPU: 2, Mem: 3}, Start: 1, DurationMinutes: 10},
		{ID: 2, Demand: model.Resources{CPU: 8, Mem: 8}, Start: 2, DurationMinutes: 4},
		{ID: 3, Demand: model.Resources{CPU: 4, Mem: 4}, Start: 3, DurationMinutes: 20},
	}
	if _, err := c.Admit(context.Background(), reqs); err != nil {
		tb.Fatal(err)
	}
	if err := c.AdvanceTo(5); err != nil {
		tb.Fatal(err)
	}
	if _, err := c.Release(context.Background(), 1); err != nil {
		tb.Fatal(err)
	}
	if err := c.AdvanceTo(9); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		tb.Fatal(err)
	}
	if err := c.Close(); err != nil {
		tb.Fatal(err)
	}
	return data
}

// realMigrationJournal materializes a journal holding a genuine migrate
// record: two co-located VMs, one migrated onto a woken server.
func realMigrationJournal(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.TempDir()
	c := mustOpen(tb, Config{Servers: testServers(4), IdleTimeout: 2, Dir: dir, SnapshotEvery: -1, MigrationCostPerGB: 0.5})
	reqs := []VMRequest{
		{ID: 1, Demand: model.Resources{CPU: 2, Mem: 2}, Start: 1, DurationMinutes: 20},
		{ID: 2, Demand: model.Resources{CPU: 2, Mem: 4}, Start: 1, DurationMinutes: 30},
	}
	if _, err := c.Admit(context.Background(), reqs); err != nil {
		tb.Fatal(err)
	}
	if err := c.AdvanceTo(5); err != nil {
		tb.Fatal(err)
	}
	onto := c.State().VMs[0].Server
	if _, err := c.Migrate(context.Background(), 2, testServers(4)[(onto+1)%4].ID); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		tb.Fatal(err)
	}
	if err := c.Close(); err != nil {
		tb.Fatal(err)
	}
	return data
}

// withFrames appends recs to a genuine journal, numbering them to
// continue its sequence so replay reaches their content.
func withFrames(tb testing.TB, log []byte, recs ...record) []byte {
	tb.Helper()
	prev, _, err := parseJournal(log)
	if err != nil || len(prev) == 0 {
		tb.Fatalf("base journal: %d records, err %v", len(prev), err)
	}
	out := append([]byte{}, log...)
	for i, r := range recs {
		r.Seq = prev[len(prev)-1].Seq + int64(i) + 1
		if out, err = appendBinaryFrame(out, r); err != nil {
			tb.Fatal(err)
		}
	}
	return out
}

// FuzzJournalReplay feeds arbitrary bytes to the journal reopen path:
// whatever the file holds — frames, torn tails, flipped length prefixes,
// a JSON-era log or garbage — Open must either restore a consistent
// state (proved by a digest-stable close/reopen round trip) or refuse
// with ErrCorruptJournal. Never a panic, never a partial fleet.
func FuzzJournalReplay(f *testing.F) {
	base := realJournal(f)
	f.Add(base)
	f.Add([]byte{})
	f.Add(append([]byte{}, binMagic...)) // bare magic: an empty log
	f.Add([]byte{0x00, 'v', 'm', 'j', 'l', '9'})
	// Torn tails at several depths: interrupted writes, which reopen must
	// truncate away, not refuse.
	for _, cut := range []int{1, 7, 13} {
		f.Add(base[:len(base)-cut])
	}
	// A flipped length-prefix byte on the first frame: the framing is
	// destroyed, which must read as corruption.
	mut := append([]byte{}, base...)
	mut[len(binMagic)+2] ^= 0x40
	f.Add(mut)
	// A flipped payload byte mid-log: lost history.
	mid := append([]byte{}, base...)
	mid[len(mid)/2] ^= 0x01
	f.Add(mid)
	// Mid-log garbage: a correctly-framed record followed by more data.
	f.Add(append(appendRawFrame(append([]byte{}, binMagic...), []byte("XXXX")), base[len(binMagic):]...))
	// A journal left by the retired JSON codec.
	f.Add([]byte(`{"seq":1,"op":"tick","t":5}` + "\n"))
	// Duplicate departure: a second release of a VM the log already
	// released — replay must refuse rather than corrupt the ledgers.
	f.Add(withFrames(f, base, record{Op: opRelease, T: 9, ID: 1}))
	// Admit with an interval that fails validation (end before start).
	f.Add(encodeBinLog(f, []record{{Seq: 1, Op: opAdmit, T: 2, Server: 0, Start: 5,
		VM: &model.VM{ID: 9, Demand: model.Resources{CPU: 1, Mem: 1}, Start: 5, End: 3}}}))
	// Admit whose departure event time (end+1) would overflow MaxInt.
	f.Add(encodeBinLog(f, []record{{Seq: 1, Op: opAdmit, T: 1, Server: 0, Start: math.MaxInt - 1,
		VM: &model.VM{ID: 9, Demand: model.Resources{CPU: 1, Mem: 1}, Start: math.MaxInt - 1, End: math.MaxInt}}}))
	// A migrate of a VM that was never admitted: replay must refuse the
	// inconsistent history, not panic.
	f.Add(encodeBinLog(f, []record{{Seq: 1, Op: opMigrate, T: 3}, {Seq: 2, Op: opTick, T: 4}}))
	// A genuine history ending in a live migration must replay cleanly.
	migBase := realMigrationJournal(f)
	f.Add(migBase)
	f.Add(migBase[:len(migBase)-11])
	// The same history with a second migrate whose recorded handoff cannot
	// reproduce: replay must refuse the cross-check, never half-apply.
	f.Add(withFrames(f, migBase, record{Op: opMigrate, T: 6, ID: 1, Server: 2, From: 0, Handoff: 3}))
	// A migrate onto an out-of-range server index.
	f.Add(withFrames(f, migBase, record{Op: opMigrate, T: 6, ID: 1, Server: 40, From: 0, Handoff: 7}))
	// A sequence gap: history between the records is missing.
	gap := append([]byte{}, base...)
	gap, _ = appendBinaryFrame(gap, record{Seq: 99, Op: opTick, T: 12})
	f.Add(gap)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := Config{Servers: testServers(4), IdleTimeout: 2, Dir: dir, SnapshotEvery: -1, MigrationCostPerGB: 0.5}
		c, err := Open(cfg)
		if err != nil {
			if !errors.Is(err, ErrCorruptJournal) {
				t.Fatalf("refusal must wrap ErrCorruptJournal, got: %v", err)
			}
			return
		}
		// The journal was accepted: the restored state must be coherent
		// enough to survive a full snapshot/reopen round trip unchanged.
		want, err := c.StateDigest()
		if err != nil {
			t.Fatalf("restored cluster cannot serve state: %v", err)
		}
		if err := c.Close(); err != nil {
			t.Fatalf("closing restored cluster: %v", err)
		}
		c2, err := Open(cfg)
		if err != nil {
			t.Fatalf("reopening after clean close: %v", err)
		}
		got, err := c2.StateDigest()
		if err != nil {
			t.Fatal(err)
		}
		if err := c2.Close(); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("state digest changed across close/reopen: %s != %s", got, want)
		}
	})
}
