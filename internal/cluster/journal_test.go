package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vmalloc/internal/model"
)

func writeJournal(t *testing.T, dir string, content []byte) string {
	t.Helper()
	path := filepath.Join(dir, journalName)
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// readRecords parses the journal file at path.
func readRecords(path string) ([]record, int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	return parseJournal(b)
}

func journalSize(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func ticks(seqs ...int64) []record {
	recs := make([]record, len(seqs))
	for i, s := range seqs {
		recs[i] = record{Seq: s, Op: opTick, T: 4 + int(s)}
	}
	return recs
}

func TestJournalTornTailDropped(t *testing.T) {
	dir := t.TempDir()
	full := encodeBinLog(t, append(ticks(1, 2), record{Seq: 3, Op: opAdmit, T: 9, VM: &model.VM{
		ID: 7, Demand: model.Resources{CPU: 1, Mem: 1}, Start: 9, End: 20}}))
	writeJournal(t, dir, full[:len(full)-5]) // torn mid-frame
	j, snap, recs, err := openJournal(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	if snap != nil {
		t.Error("snapshot appeared from nowhere")
	}
	if len(recs) != 2 || recs[1].Seq != 2 {
		t.Fatalf("recs = %+v, want the two clean records", recs)
	}
	// The torn bytes are gone: appending continues cleanly.
	j.seq = 2
	if err := j.append(record{Op: opTick, T: 12}); err != nil {
		t.Fatal(err)
	}
	recs2, _, err := readRecords(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs2) != 3 || recs2[2].Seq != 3 || recs2[2].T != 12 {
		t.Fatalf("after append recs = %+v", recs2)
	}
}

func TestJournalTerminatedTornTailDropped(t *testing.T) {
	// A torn final frame whose length is fully on disk but whose payload
	// never was (its checksum fails) is still dropped.
	dir := t.TempDir()
	b := encodeBinLog(t, ticks(1, 2))
	b[len(b)-1] ^= 0xff
	writeJournal(t, dir, b)
	_, _, recs, err := openJournal(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("recs = %+v, want 1 clean record", recs)
	}
}

func TestJournalCorruptMiddleRefused(t *testing.T) {
	dir := t.TempDir()
	b := appendRawFrame(encodeBinLog(t, ticks(1)), []byte("garbage"))
	b, err := appendBinaryFrame(b, ticks(3)[0])
	if err != nil {
		t.Fatal(err)
	}
	writeJournal(t, dir, b)
	if _, _, _, err := openJournal(dir, false); !errors.Is(err, ErrCorruptJournal) {
		t.Fatalf("mid-journal corruption: err = %v, want ErrCorruptJournal", err)
	}
}

// TestJournalMagicOnlyReopens: a file holding just the magic (a first
// append torn right after it) is an empty log; the next append must not
// write a second magic, and the result replays.
func TestJournalMagicOnlyReopens(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir, binMagic)
	cfg := Config{Servers: testServers(2), IdleTimeout: 2, Dir: dir, SnapshotEvery: -1, DisableFsync: true}
	c := mustOpen(t, cfg)
	mustAdmit(t, c, VMRequest{ID: 1, Demand: model.Resources{CPU: 1, Mem: 1}, Start: 1, DurationMinutes: 10})
	want, err := c.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	c.crash()
	b, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Count(b, binMagic) != 1 {
		t.Fatalf("journal %q holds the magic %d times, want once", b, bytes.Count(b, binMagic))
	}
	r := mustOpen(t, cfg)
	defer r.Close()
	if got, err := r.StateDigest(); err != nil || got != want {
		t.Fatalf("replayed digest %s (err %v), want %s", got, err, want)
	}
}

// TestJournalJSONEraRefused: a journal left by the retired JSON codec is
// refused, and the error names the upgrade path.
func TestJournalJSONEraRefused(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir, []byte(`{"seq":1,"op":"tick","t":5}`+"\n"))
	_, err := Open(Config{Servers: testServers(2), IdleTimeout: 2, Dir: dir})
	if !errors.Is(err, ErrCorruptJournal) {
		t.Fatalf("JSON-era journal: err = %v, want ErrCorruptJournal", err)
	}
	if !strings.Contains(err.Error(), "stop the old daemon cleanly") {
		t.Errorf("refusal %q does not give the upgrade path", err)
	}
}

// TestJournalSeqGap: replay skips stale survivors at or below the
// snapshot's LastSeq, but records past it must continue it without a
// gap — a jump means history is missing.
func TestJournalSeqGap(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Servers: testServers(2), IdleTimeout: 2, Dir: dir, SnapshotEvery: -1, DisableFsync: true}
	c := mustOpen(t, cfg)
	for tm := 1; tm <= 3; tm++ {
		if err := c.AdvanceTo(tm); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	sb, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	var snap snapshotFile
	if err := json.Unmarshal(sb, &snap); err != nil || snap.LastSeq != 3 {
		t.Fatalf("setup snapshot LastSeq = %d (err %v), want 3", snap.LastSeq, err)
	}

	writeJournal(t, dir, encodeBinLog(t, ticks(6, 7)))
	if _, err := Open(cfg); !errors.Is(err, ErrCorruptJournal) {
		t.Fatalf("gap after LastSeq: err = %v, want ErrCorruptJournal", err)
	}

	writeJournal(t, dir, encodeBinLog(t, ticks(1, 2, 3, 4)))
	r := mustOpen(t, cfg)
	defer r.Close()
	if now := r.State().Now; now != ticks(4)[0].T {
		t.Fatalf("clock after replay = %d, want %d", now, ticks(4)[0].T)
	}
}
