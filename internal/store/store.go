// Package store is guoqd's durability layer: a write-ahead log with
// periodic snapshots for coordinator state, a content-addressed result
// cache, and per-token quota accounting. It is deliberately generic — the
// Log carries opaque typed records and opaque snapshot bytes, so
// internal/dist owns its own record vocabulary and this package owns only
// the crash-safety mechanics (framing, checksums, fsync batching, torn-tail
// recovery, compaction).
//
// On-disk layout of a data directory:
//
//	data/
//	  snapshot.json   latest state snapshot: {"lsn": N, "state": ...}
//	  wal.log         records appended after the snapshot was taken
//	  cache/          spilled result-cache entries (see Cache)
//
// Recovery contract: Open loads the snapshot (if any), then replays every
// intact WAL record with LSN greater than the snapshot's. A torn tail —
// the partial record an interrupted write leaves behind — is detected by
// the length/CRC framing, truncated, and reported; everything before it is
// preserved. Compact writes a new snapshot atomically (tmp + rename) and
// then truncates the WAL; because replay filters records at or below the
// snapshot LSN, a crash between those two steps is harmless.
package store

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

const (
	snapshotFile = "snapshot.json"
	walFile      = "wal.log"

	// frameHeader is [4-byte LE payload length][4-byte LE CRC32(payload)].
	frameHeader = 8
	// maxRecordBytes bounds a single record so a corrupt length field
	// cannot make replay attempt a multi-gigabyte allocation.
	maxRecordBytes = 256 << 20
)

// Record is one durable state change: a monotone sequence number, a
// caller-defined type tag, and an opaque JSON payload.
type Record struct {
	LSN  uint64          `json:"lsn"`
	Type string          `json:"type"`
	Data json.RawMessage `json:"data"`
}

// Recovery is what Open found on disk: the latest snapshot (nil when none
// was ever taken) and the intact WAL records appended after it, in order.
type Recovery struct {
	// Snapshot is the state bytes passed to the last successful Compact.
	Snapshot json.RawMessage
	// Records are the WAL records with LSN greater than the snapshot's.
	Records []Record
	// TornTail reports that the WAL ended in a partial or corrupt record
	// (an interrupted append) which was truncated away.
	TornTail bool
}

// Options tunes a Log. The zero value is usable.
type Options struct {
	// SyncEvery batches fsyncs: Append returns once the record is written
	// to the OS, so a crash of the process loses nothing, and a background
	// flusher syncs the file at this cadence, so a burst of appends costs
	// one fsync instead of one each. A power loss can take the appends of
	// the last window. Zero selects 25 ms; negative syncs on every append
	// (strongest durability, slowest).
	SyncEvery time.Duration
}

// snapshotEnvelope is the on-disk snapshot file: the WAL position it
// covers plus the caller's opaque state.
type snapshotEnvelope struct {
	LSN   uint64          `json:"lsn"`
	State json.RawMessage `json:"state"`
}

// Log is an append-only write-ahead log with snapshot-based compaction.
// Append/Sync/Compact/Close are safe for concurrent use.
type Log struct {
	dir       string
	syncEvery time.Duration

	mu           sync.Mutex
	f            *os.File // guarded by mu
	frame        []byte   // reused to build each frame; guarded by mu
	lsn          uint64   // last assigned sequence number; guarded by mu
	snapLSN      uint64   // covered by the on-disk snapshot; guarded by mu
	sinceCompact int      // records appended since the last Compact; guarded by mu
	dirty        bool     // bytes written since the last fsync; guarded by mu
	err          error    // sticky write/sync failure; guarded by mu
	closed       bool     // guarded by mu

	stop chan struct{}
	done chan struct{}
}

// Open opens (creating if needed) the durable log in dir and returns it
// together with the recovered state. The WAL is positioned for appending
// after the last intact record.
func Open(dir string, o Options) (*Log, *Recovery, error) {
	if o.SyncEvery == 0 {
		o.SyncEvery = 25 * time.Millisecond
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	rec := &Recovery{}
	var snapLSN uint64
	if data, err := os.ReadFile(filepath.Join(dir, snapshotFile)); err == nil {
		var env snapshotEnvelope
		if err := json.Unmarshal(data, &env); err != nil {
			return nil, nil, fmt.Errorf("store: corrupt %s: %w", snapshotFile, err)
		}
		snapLSN = env.LSN
		rec.Snapshot = env.State
	} else if !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("store: %w", err)
	}

	f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	records, good, torn, err := scanWAL(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if torn {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("store: truncating torn WAL tail: %w", err)
		}
		rec.TornTail = true
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("store: %w", err)
	}

	lsn := snapLSN
	for _, r := range records {
		if r.LSN > lsn {
			lsn = r.LSN
		}
		if r.LSN > snapLSN {
			rec.Records = append(rec.Records, r)
		}
	}

	l := &Log{
		dir:       dir,
		syncEvery: o.SyncEvery,
		f:         f,
		lsn:       lsn,
		snapLSN:   snapLSN,
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	if l.syncEvery > 0 {
		go l.flusher()
	} else {
		close(l.done)
	}
	return l, rec, nil
}

// scanWAL reads intact records from the start of f, returning them, the
// offset just past the last intact record, and whether a torn or corrupt
// tail follows that offset.
func scanWAL(f *os.File) (records []Record, good int64, torn bool, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, false, fmt.Errorf("store: %w", err)
	}
	r := bufio.NewReader(f)
	var hdr [frameHeader]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			// Clean EOF ends the scan; a short header is a torn tail.
			return records, good, err != io.EOF, nil
		}
		n := binary.LittleEndian.Uint32(hdr[:4])
		sum := binary.LittleEndian.Uint32(hdr[4:])
		if n > maxRecordBytes {
			return records, good, true, nil
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return records, good, true, nil
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return records, good, true, nil
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return records, good, true, nil
		}
		records = append(records, rec)
		good += frameHeader + int64(n)
	}
}

// flusher is the fsync batcher: it syncs dirty appends every syncEvery.
func (l *Log) flusher() {
	defer close(l.done)
	t := time.NewTicker(l.syncEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			l.mu.Lock()
			l.syncLocked()
			l.mu.Unlock()
		case <-l.stop:
			return
		}
	}
}

// Append marshals data, assigns the next LSN, and writes the framed record
// to the WAL file with one write, so the record survives a crash of the
// process once Append returns. Durability against power loss follows the
// SyncEvery policy; call Sync for a hard barrier. Returns the assigned LSN.
func (l *Log) Append(typ string, data any) (uint64, error) {
	raw, err := json.Marshal(data)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("store: log closed")
	}
	if l.err != nil {
		return 0, l.err
	}
	l.lsn++
	payload, err := json.Marshal(Record{LSN: l.lsn, Type: typ, Data: raw})
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	l.frame = binary.LittleEndian.AppendUint32(l.frame[:0], uint32(len(payload)))
	l.frame = binary.LittleEndian.AppendUint32(l.frame, crc32.ChecksumIEEE(payload))
	l.frame = append(l.frame, payload...)
	if _, err := l.f.Write(l.frame); err != nil {
		l.err = err
		return 0, err
	}
	l.dirty = true
	l.sinceCompact++
	if l.syncEvery < 0 {
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	}
	return l.lsn, nil
}

func (l *Log) syncLocked() error {
	if l.err != nil {
		return l.err
	}
	if !l.dirty {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		l.err = err
		return err
	}
	l.dirty = false
	return nil
}

// Sync fsyncs pending appends immediately.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

// SinceCompact reports how many records were appended since the last
// Compact — the signal callers use to schedule checkpoints.
func (l *Log) SinceCompact() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinceCompact
}

// LSN returns the last assigned sequence number.
func (l *Log) LSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lsn
}

// Compact durably writes state as the new snapshot covering every record
// appended so far, then truncates the WAL. state must marshal to JSON.
// Crash-safe at every step: the snapshot lands via tmp-file + rename, and
// stale WAL records surviving a crash before the truncate are filtered by
// LSN on the next Open.
func (l *Log) Compact(state any) error {
	raw, err := json.Marshal(state)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("store: log closed")
	}
	// The snapshot must not claim records a power loss could still take.
	if err := l.syncLocked(); err != nil {
		return err
	}
	env, err := json.Marshal(snapshotEnvelope{LSN: l.lsn, State: raw})
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := filepath.Join(l.dir, snapshotFile+".tmp")
	if err := writeFileSync(tmp, env); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, snapshotFile)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	syncDir(l.dir)
	// The snapshot now covers everything; restart the WAL from empty.
	if err := l.f.Truncate(0); err != nil {
		l.err = err
		return fmt.Errorf("store: %w", err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		l.err = err
		return fmt.Errorf("store: %w", err)
	}
	l.snapLSN = l.lsn
	l.sinceCompact = 0
	l.dirty = false
	return nil
}

// Close stops the flusher, syncs pending appends, and closes the WAL.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.stop)
	<-l.done
	l.mu.Lock()
	defer l.mu.Unlock()
	serr := l.syncLocked()
	cerr := l.f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// writeFileSync writes data to path and fsyncs it before returning, so a
// following rename publishes fully durable bytes.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a rename inside it is durable; best-effort
// (some filesystems refuse directory syncs).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}
