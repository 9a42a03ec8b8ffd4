package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"
)

type testRec struct {
	N int `json:"n"`
}

// openT opens a log in dir with per-append syncing (no background flusher
// timing in tests) and fails the test on error.
func openT(t *testing.T, dir string) (*Log, *Recovery) {
	t.Helper()
	l, rec, err := Open(dir, Options{SyncEvery: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rec
}

func TestLogAppendReplay(t *testing.T) {
	dir := t.TempDir()
	l, rec := openT(t, dir)
	if rec.Snapshot != nil || len(rec.Records) != 0 || rec.TornTail {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	for i := 1; i <= 5; i++ {
		lsn, err := l.Append("n", testRec{N: i})
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if lsn != uint64(i) {
			t.Fatalf("LSN = %d, want %d", lsn, i)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l, rec = openT(t, dir)
	defer l.Close()
	if rec.TornTail {
		t.Fatal("clean log reported a torn tail")
	}
	if len(rec.Records) != 5 {
		t.Fatalf("replayed %d records, want 5", len(rec.Records))
	}
	for i, r := range rec.Records {
		var tr testRec
		if err := json.Unmarshal(r.Data, &tr); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if r.Type != "n" || tr.N != i+1 || r.LSN != uint64(i+1) {
			t.Fatalf("record %d = {%s %d lsn=%d}, want {n %d lsn=%d}", i, r.Type, tr.N, r.LSN, i+1, i+1)
		}
	}
	// Appends after reopen continue the sequence.
	if lsn, err := l.Append("n", testRec{N: 6}); err != nil || lsn != 6 {
		t.Fatalf("post-reopen Append = (%d, %v), want (6, nil)", lsn, err)
	}
}

// A returned Append is in the WAL file whatever the fsync window: reopening
// the directory while the first Log is neither synced nor closed, as a
// restart after a crash of the process would, replays the record.
func TestLogAppendSurvivesProcessCrash(t *testing.T) {
	for _, every := range []time.Duration{25 * time.Millisecond, time.Hour} {
		t.Run(every.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, _, err := Open(dir, Options{SyncEvery: every})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if _, err := l.Append("n", testRec{N: 1}); err != nil {
				t.Fatal(err)
			}
			l2, rec := openT(t, dir)
			defer l2.Close()
			if len(rec.Records) != 1 || rec.TornTail {
				t.Fatalf("reopened WAL replayed %d records (torn tail %v), want the 1 appended", len(rec.Records), rec.TornTail)
			}
		})
	}
}

func TestLogTornTail(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir)
	for i := 1; i <= 3; i++ {
		if _, err := l.Append("n", testRec{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: garbage bytes shorter than a frame
	// header at the tail.
	wal := filepath.Join(dir, "wal.log")
	f, err := os.OpenFile(wal, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l, rec := openT(t, dir)
	if !rec.TornTail {
		t.Fatal("torn tail not reported")
	}
	if len(rec.Records) != 3 {
		t.Fatalf("replayed %d records, want 3 (intact prefix preserved)", len(rec.Records))
	}
	// The log stays usable: the tail was truncated, appends continue.
	if lsn, err := l.Append("n", testRec{N: 4}); err != nil || lsn != 4 {
		t.Fatalf("post-truncate Append = (%d, %v), want (4, nil)", lsn, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, rec = openT(t, dir)
	defer l.Close()
	if rec.TornTail || len(rec.Records) != 4 {
		t.Fatalf("after repair: torn=%v records=%d, want clean 4", rec.TornTail, len(rec.Records))
	}
}

func TestLogTornTailCorruptPayload(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir)
	if _, err := l.Append("n", testRec{N: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the last record: CRC must catch it.
	wal := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(wal, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, rec := openT(t, dir)
	defer l.Close()
	if !rec.TornTail || len(rec.Records) != 0 {
		t.Fatalf("corrupt record: torn=%v records=%d, want torn with 0 records", rec.TornTail, len(rec.Records))
	}
}

func TestLogCompact(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir)
	for i := 1; i <= 4; i++ {
		if _, err := l.Append("n", testRec{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.SinceCompact(); got != 4 {
		t.Fatalf("SinceCompact = %d, want 4", got)
	}
	if err := l.Compact(map[string]int{"sum": 10}); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if got := l.SinceCompact(); got != 0 {
		t.Fatalf("SinceCompact after Compact = %d, want 0", got)
	}
	// Post-compaction appends land in the fresh WAL.
	if _, err := l.Append("n", testRec{N: 5}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l, rec := openT(t, dir)
	defer l.Close()
	var snap map[string]int
	if err := json.Unmarshal(rec.Snapshot, &snap); err != nil || snap["sum"] != 10 {
		t.Fatalf("snapshot = %s (%v), want {sum:10}", rec.Snapshot, err)
	}
	if len(rec.Records) != 1 {
		t.Fatalf("replayed %d records, want 1 (only the post-compaction append)", len(rec.Records))
	}
	if rec.Records[0].LSN != 5 {
		t.Fatalf("post-compaction record LSN = %d, want 5", rec.Records[0].LSN)
	}
}

func TestLogStaleWALFilteredByLSN(t *testing.T) {
	// A crash between snapshot rename and WAL truncate leaves records the
	// snapshot already covers; replay must drop them.
	dir := t.TempDir()
	l, _ := openT(t, dir)
	for i := 1; i <= 3; i++ {
		if _, err := l.Append("n", testRec{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Write the snapshot by hand (covering LSN 2) without truncating.
	env, _ := json.Marshal(map[string]any{"lsn": 2, "state": map[string]int{"sum": 3}})
	if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), env, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l, rec := openT(t, dir)
	defer l.Close()
	if len(rec.Records) != 1 || rec.Records[0].LSN != 3 {
		t.Fatalf("replay = %+v, want only LSN 3 (records ≤ snapshot LSN filtered)", rec.Records)
	}
	// The LSN counter resumes past everything seen.
	if lsn, err := l.Append("n", testRec{N: 4}); err != nil || lsn != 4 {
		t.Fatalf("Append = (%d, %v), want (4, nil)", lsn, err)
	}
}

// Append writes each record as json.Marshal(Record{…}) writes it, and
// Compact the snapshot as json.Marshal(snapshotEnvelope{…}), on payloads
// and type tags that Marshal escapes or compacts: HTML characters, U+2028
// and U+2029, invalid UTF-8, and a raw message with whitespace.
func TestFramesMatchMarshal(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir)
	defer l.Close()
	payloads := []any{
		map[string]string{"html": `<a href="x">&amp;</a>`, "sep": "a\u2028b\u2029c", "bad": "\xff\xfe\xc3\x28"},
		json.RawMessage(" { \"k\" : [ 1 , \"<\\u2028>\" ] } "),
		nil,
		"< > & \u2028 \xff",
		[]byte("<>"),
		testRec{N: -7},
	}
	types := []string{"session", "<t&t>", "t\u2029\xff"}
	var want []byte
	for i, p := range payloads {
		typ := types[i%len(types)]
		if _, err := l.Append(typ, p); err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := json.Marshal(Record{LSN: uint64(i + 1), Type: typ, Data: raw})
		if err != nil {
			t.Fatal(err)
		}
		want = binary.LittleEndian.AppendUint32(want, uint32(len(payload)))
		want = binary.LittleEndian.AppendUint32(want, crc32.ChecksumIEEE(payload))
		want = append(want, payload...)
	}
	got, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("WAL differs from json.Marshal's records\n got: %q\nwant: %q", got, want)
	}

	state := payloads[0]
	if err := l.Compact(state); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(state)
	if err != nil {
		t.Fatal(err)
	}
	wantSnap, err := json.Marshal(snapshotEnvelope{LSN: uint64(len(payloads)), State: raw})
	if err != nil {
		t.Fatal(err)
	}
	gotSnap, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotSnap, wantSnap) {
		t.Fatalf("snapshot differs from json.Marshal's\n got: %q\nwant: %q", gotSnap, wantSnap)
	}
}
