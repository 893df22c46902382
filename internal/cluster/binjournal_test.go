package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"testing"

	"vmalloc/internal/model"
)

func binTestRecords() []record {
	return []record{
		{Seq: 1, Op: opAdmit, T: 1, Server: 2, Start: 5, VM: &model.VM{
			ID: 7, Type: "m5.xlarge", Demand: model.Resources{CPU: 2.5, Mem: 7.25}, Start: 5, End: 34,
		}},
		{Seq: 2, Op: opTick, T: 6},
		{Seq: 3, Op: opMigrate, T: 7, ID: 7, Server: 1, From: 2, Handoff: 9,
			Policy: "min-migration-time", Saved: 120.5, Cost: 3.625},
		{Seq: 4, Op: opRelease, T: 9, ID: 7},
		// Unicode type string and awkward floats must survive the trip.
		{Seq: 5, Op: opAdmit, T: 10, Server: 0, Start: 10, VM: &model.VM{
			ID: 8, Type: "gpu-模型", Demand: model.Resources{CPU: math.SmallestNonzeroFloat64, Mem: 1e308}, Start: 10, End: 11,
		}},
	}
}

func encodeBinLog(tb testing.TB, recs []record) []byte {
	tb.Helper()
	buf := append([]byte{}, binMagic...)
	var err error
	for _, r := range recs {
		if buf, err = appendBinaryFrame(buf, r); err != nil {
			tb.Fatal(err)
		}
	}
	return buf
}

// TestBinaryCodecRoundTrip pins every op's encode/decode loop: the
// records read back from a framed log are deep-equal to what was
// written.
func TestBinaryCodecRoundTrip(t *testing.T) {
	want := binTestRecords()
	buf := encodeBinLog(t, want)
	got, clean, err := readBinaryRecords(buf)
	if err != nil {
		t.Fatal(err)
	}
	if clean != int64(len(buf)) {
		t.Fatalf("clean offset %d, want %d", clean, len(buf))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestBinaryReaderTornTail checks the torn-tail taxonomy byte by byte:
// every strict prefix of the final frame is an interrupted write, so the
// reader must return the preceding records and a clean offset that cuts
// the tail — never an error.
func TestBinaryReaderTornTail(t *testing.T) {
	recs := binTestRecords()
	buf := encodeBinLog(t, recs)
	prefix := encodeBinLog(t, recs[:len(recs)-1])
	for cut := len(prefix) + 1; cut < len(buf); cut++ {
		got, clean, err := readBinaryRecords(buf[:cut])
		if err != nil {
			t.Fatalf("cut at %d: torn tail must not error: %v", cut, err)
		}
		if clean != int64(len(prefix)) {
			t.Fatalf("cut at %d: clean = %d, want %d", cut, clean, len(prefix))
		}
		if len(got) != len(recs)-1 {
			t.Fatalf("cut at %d: %d records, want %d", cut, len(got), len(recs)-1)
		}
	}
}

// TestBinaryReaderCorruption checks the refusal half of the taxonomy:
// mid-log damage and destroyed length prefixes are lost history, not
// torn tails.
func TestBinaryReaderCorruption(t *testing.T) {
	recs := binTestRecords()
	buf := encodeBinLog(t, recs)

	t.Run("flipped payload byte mid-log", func(t *testing.T) {
		mut := append([]byte{}, buf...)
		mut[len(binMagic)+8+2] ^= 0xff // inside the first frame's payload
		if _, _, err := readBinaryRecords(mut); !errors.Is(err, ErrCorruptJournal) {
			t.Fatalf("want ErrCorruptJournal, got %v", err)
		}
	})
	t.Run("absurd length prefix", func(t *testing.T) {
		mut := append([]byte{}, buf...)
		binary.LittleEndian.PutUint32(mut[len(binMagic):], maxBinRecordLen+1)
		if _, _, err := readBinaryRecords(mut); !errors.Is(err, ErrCorruptJournal) {
			t.Fatalf("want ErrCorruptJournal, got %v", err)
		}
	})
	t.Run("flipped final-frame CRC is torn", func(t *testing.T) {
		mut := append([]byte{}, buf...)
		prefix := encodeBinLog(t, recs[:len(recs)-1])
		mut[len(prefix)+4] ^= 0xff // final frame's CRC field
		got, clean, err := readBinaryRecords(mut)
		if err != nil {
			t.Fatalf("final-frame CRC damage is a torn write, got %v", err)
		}
		if clean != int64(len(prefix)) || len(got) != len(recs)-1 {
			t.Fatalf("clean %d records %d, want %d / %d", clean, len(got), len(prefix), len(recs)-1)
		}
	})
	t.Run("valid frame with undecodable payload", func(t *testing.T) {
		mut := encodeBinLog(t, recs[:1])
		mut = appendRawFrame(mut, []byte{0x01, 0xFF}) // truncated varints
		mut = appendRawFrame(mut, []byte{0x06, 0x01, 0x02})
		if _, _, err := readBinaryRecords(mut); !errors.Is(err, ErrCorruptJournal) {
			t.Fatalf("want ErrCorruptJournal, got %v", err)
		}
	})
}

// appendRawFrame frames arbitrary payload bytes with a correct CRC, for
// building frames the decoder must reject on content.
func appendRawFrame(buf, payload []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// TestGroupCommitCounters drives sequential admits through a real
// fsync-on journal and checks the group-commit accounting: every batch
// commit is acknowledged by a flush, and the flush count never exceeds
// the commit count. (Concurrent admits micro-batch into fewer commits,
// so the sequential stream is the deterministic way to count; actual
// fsync sharing under concurrency is pinned by
// TestGroupCommitCrashImage and the vmbench group benchmark.)
func TestGroupCommitCounters(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, Config{Servers: testServers(8), IdleTimeout: 2, Dir: dir, SnapshotEvery: -1})
	const n = 24
	for i := 0; i < n; i++ {
		if _, err := c.Admit(context.Background(), []VMRequest{
			{ID: i + 1, Demand: model.Resources{CPU: 0.5, Mem: 0.5}, Start: 1, DurationMinutes: 10},
		}); err != nil {
			t.Fatal(err)
		}
	}
	groups, grouped := c.jr.groups.Load(), c.jr.grouped.Load()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if grouped < n {
		t.Fatalf("grouped commits = %d, want >= %d (one per sequential batch)", grouped, n)
	}
	if groups == 0 || groups > grouped {
		t.Fatalf("fsync groups = %d, grouped commits = %d: want 0 < groups <= grouped", groups, grouped)
	}
}
