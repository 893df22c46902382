package cluster

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzBinaryJournal fuzzes the frame codec beneath replay. Whatever the
// bytes — genuine frames, torn tails, flipped length prefixes, foreign
// magic, a JSON-era log or garbage — parseJournal must either refuse
// with ErrCorruptJournal or return records and a clean offset such that:
//
//   - the clean offset lies within the input, and reparsing the clean
//     prefix (what reopen truncates the file to) yields the same records
//     and the same offset;
//   - the records re-encode to a log that parses back to itself, byte for
//     byte, and is clean to its last byte.
//
// FuzzJournalReplay checks the cluster built from those records.
func FuzzBinaryJournal(f *testing.F) {
	base := realJournal(f)
	f.Add(base)
	f.Add([]byte{})
	f.Add(append([]byte{}, binMagic...)) // bare magic: an empty log
	f.Add([]byte{0x00, 'v', 'm', 'j', 'l', '9'})
	// Torn tails at several depths: the clean offset must stop before the
	// interrupted frame.
	for _, cut := range []int{1, 7, 13} {
		f.Add(base[:len(base)-cut])
	}
	// A flipped length-prefix byte on the first frame: framing lost.
	mut := append([]byte{}, base...)
	mut[len(binMagic)+2] ^= 0x40
	f.Add(mut)
	// A flipped payload byte mid-log: a checksum failure with history
	// after it.
	mid := append([]byte{}, base...)
	mid[len(mid)/2] ^= 0x01
	f.Add(mid)
	// A correctly-framed payload the decoder does not understand,
	// followed by genuine frames.
	f.Add(append(appendRawFrame(append([]byte{}, binMagic...), []byte("XXXX")), base[len(binMagic):]...))
	// A journal left by the retired JSON codec.
	f.Add([]byte(`{"seq":1,"op":"tick","t":5}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, clean, err := parseJournal(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptJournal) {
				t.Fatalf("refusal must wrap ErrCorruptJournal, got: %v", err)
			}
			return
		}
		if clean < 0 || clean > int64(len(data)) {
			t.Fatalf("clean offset %d outside the %d-byte input", clean, len(data))
		}
		if len(recs) > 0 && clean < int64(len(binMagic)) {
			t.Fatalf("%d records but clean offset %d is inside the magic", len(recs), clean)
		}
		prefixRecs, prefixClean, err := parseJournal(data[:clean])
		if err != nil {
			t.Fatalf("clean prefix does not reparse: %v", err)
		}
		if prefixClean != clean {
			t.Fatalf("clean prefix reparses clean to %d, want %d", prefixClean, clean)
		}
		once := encodeBinLog(t, recs)
		if !bytes.Equal(encodeBinLog(t, prefixRecs), once) {
			t.Fatal("clean prefix holds different records from the full input")
		}
		again, againClean, err := parseJournal(once)
		if err != nil {
			t.Fatalf("re-encoded log does not parse: %v", err)
		}
		if againClean != int64(len(once)) {
			t.Fatalf("re-encoded log clean to %d of %d bytes", againClean, len(once))
		}
		if twice := encodeBinLog(t, again); !bytes.Equal(twice, once) {
			t.Fatalf("re-encoding is not a fixed point:\n%x\n%x", once, twice)
		}
	})
}
