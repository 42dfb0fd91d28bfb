package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzReadJournal feeds arbitrary bytes to the journal reader, seeded
// with a real journal and damaged copies of it. Whatever the input, the
// reader must not panic and must follow the torn-tail rule: the first
// damaged line (unparsable, failing its CRC or validation, or not
// newline-terminated) is an error when more data follows it, and
// otherwise a torn tail whose clean prefix ends where that line starts.
// Re-reading the clean prefix must give the same records, untorn.
func FuzzReadJournal(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir, testMeta)
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range []Record{
		submitRec("a", 0),
		{TimeS: 1, Kind: KindCounter, AppID: "a", Price: 40},
		{TimeS: 2, Kind: KindAccept, AppID: "a", OfferIndex: 1},
		{TimeS: 3, Kind: KindReject, AppID: "b"},
		{TimeS: 4, Kind: KindDeployRevision, AppID: "fn", Revision: "v2"},
		{TimeS: 5, Kind: KindSetTraffic, AppID: "fn", Weights: map[string]int{"rev-1": 90, "v2": 10}},
	} {
		if _, err := s.Append(r); err != nil {
			f.Fatal(err)
		}
	}
	s.Close()
	journal, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(journal)
	f.Add(journal[:len(journal)-1])  // unterminated final line
	f.Add(journal[:len(journal)-20]) // torn mid-record
	mid := bytes.Clone(journal)
	mid[len(mid)/2] ^= 0x01 // damaged line with clean lines after it
	f.Add(mid)
	f.Add([]byte{})
	f.Add([]byte("\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, clean, torn, err := parseJournal("fuzz", data)

		// Locate the first damaged line independently of the reader.
		var want []Record
		bad, badOff, more := false, int64(0), false
		for off := 0; off < len(data); {
			nl := bytes.IndexByte(data[off:], '\n')
			if nl < 0 { // parsed or not, never sealed by a newline
				bad, badOff = true, int64(off)
				break
			}
			rec, perr := parseFrame(data[off : off+nl])
			if perr != nil {
				bad, badOff, more = true, int64(off), off+nl+1 < len(data)
				break
			}
			want = append(want, rec)
			off += nl + 1
		}

		switch {
		case bad && more:
			if err == nil {
				t.Fatalf("damaged line at offset %d with data after it: no error (torn=%v clean=%d)", badOff, torn, clean)
			}
			return
		case err != nil:
			t.Fatalf("unexpected error: %v", err)
		case bad:
			if !torn || clean != badOff {
				t.Fatalf("damaged final line at offset %d: torn=%v clean=%d", badOff, torn, clean)
			}
		default:
			if torn || clean != int64(len(data)) {
				t.Fatalf("intact journal: torn=%v clean=%d of %d bytes", torn, clean, len(data))
			}
		}
		if len(recs) != len(want) || (len(want) > 0 && !reflect.DeepEqual(recs, want)) {
			t.Fatalf("read %d records, want the %d before the damage", len(recs), len(want))
		}

		again, clean2, torn2, err := parseJournal("fuzz", data[:clean])
		if err != nil || torn2 || clean2 != clean {
			t.Fatalf("re-reading the clean prefix: err=%v torn=%v clean=%d, want nil/false/%d", err, torn2, clean2, clean)
		}
		if len(again) != len(recs) || (len(recs) > 0 && !reflect.DeepEqual(again, recs)) {
			t.Fatalf("re-reading the clean prefix gave %d records, want %d", len(again), len(recs))
		}
	})
}
