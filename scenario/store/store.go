// Package store persists scenario cell results in a content-addressed,
// append-only JSONL store, keyed by a canonical hash of each cell's
// fully-resolved Spec. It implements scenario.ResultStore, so a
// scenario.Runner (or the krum-scenariod service) consults it before
// running a cell and writes fresh results through — repeated and
// overlapping experiment grids become near-free, because a cell is a
// pure function of its spec and a hit returns a result byte-identical
// (under distsgd.Result's stable JSON encoding) to a cold run.
//
// # Keys
//
// Key canonicalizes the spec before hashing: each axis spec string is
// resolved through its registry and replaced by the constructed
// object's canonical Name()/Spec form, so spelling variants collapse
// to one key — "krum" at n=15, f=3 and "krum(f=3)" hit the same
// entry, as do "Gaussian(sigma=200)" and "gaussian(sigma=200)". The
// cosmetic Name label is excluded: it cannot change a result.
// Everything else — including Seed, EvalEvery/EvalBatch/TrackSelection
// (they change Result contents) and the Incremental flag — is hashed,
// together with the Version salt.
//
// # Invalidation
//
// Version is the code-version salt. Because it participates in every
// key, bumping it orphans all previously-stored entries at once: old
// records remain in the file but their stored key no longer matches
// any key the new code computes, so every cell recomputes — stale
// results are never served. Bump Version whenever training semantics,
// spec interpretation, or the Result encoding change. The same
// mechanism guards individual records: Open re-derives each record's
// key from its stored spec and drops mismatches (e.g. a hand-edited
// spec), so a tampered record triggers recomputation instead of a
// stale serve.
//
// # File format and corruption
//
// The file holds one JSON record per line: {"key", "version", "spec",
// "result"}. Writes are append-only; a crash can therefore only tear
// the final line. Open tolerates exactly that: a truncated tail is
// dropped (and the file truncated back to the last intact record) so
// subsequent appends start clean; interior lines that fail to parse or
// whose key does not re-derive are skipped and counted (Stats), never
// served. Duplicate keys resolve last-write-wins, matching the append
// order. One Store is safe for concurrent use within a process; the
// file itself assumes a single writing process at a time.
package store

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"krum/attack"
	"krum/distsgd"
	"krum/internal/arrival"
	"krum/internal/core"
	"krum/internal/sgd"
	"krum/internal/vec"
	"krum/scenario"
	"krum/workload"
)

// Version is the code-version salt mixed into every key. Bump it
// whenever a change anywhere in the training stack (kernels, rules,
// attacks, schedules, workloads, protocol, Result encoding) can alter
// the result a spec produces: all existing store entries then miss and
// recompute — the invalidation rule documented in the package comment.
//
// v2: distsgd.Result gained the Kernel metadata field (the stable
// encoding changed) and keys gained the kernel-order salt below.
const Version = "krum-store-v2"

// ErrStore is the sentinel wrapped by store failures.
var ErrStore = errors.New("store: error")

// workloadCanon memoizes raw workload spec string → canonical Spec
// string. Workload factories eagerly construct their dataset and
// model, which would make every Key computation pay a full dataset
// build; the canonical spec string depends only on the parsed
// parameters (never on the seed, which only randomizes weights), so
// one construction per distinct raw string suffices for the life of
// the process. Parse failures are not memoized — they stay cheap and
// keep their full error.
var workloadCanon sync.Map

// canonicalWorkload resolves a workload spec to its registry-canonical
// string, via the memo.
func canonicalWorkload(raw string, seed uint64) (string, error) {
	if c, ok := workloadCanon.Load(raw); ok {
		return c.(string), nil
	}
	wl, err := workload.Parse(workload.SpecContext{Seed: seed}, raw)
	if err != nil {
		return "", err
	}
	workloadCanon.Store(raw, wl.Spec)
	return wl.Spec, nil
}

// Canonical returns the fully-resolved form of a spec — the identity
// the store hashes. Axis spec strings are replaced by their registry
// round-trip canonical forms (an empty attack becomes "none"), and the
// result-irrelevant Name label is cleared. Canonical is
// idempotent: Canonical(Canonical(s)) == Canonical(s), because every
// registry guarantees Parse(x.Name()) ≡ x.
func Canonical(s scenario.Spec) (scenario.Spec, error) {
	c := s
	c.Name = ""
	rule, err := core.ParseRuleIn(core.SpecContext{N: s.N, F: s.F}, s.Rule)
	if err != nil {
		return scenario.Spec{}, err
	}
	c.Rule = rule.Name()
	if strings.TrimSpace(s.Attack) == "" {
		c.Attack = "none"
	} else {
		atk, err := attack.Parse(s.Attack)
		if err != nil {
			return scenario.Spec{}, err
		}
		c.Attack = atk.Name()
	}
	sched, err := sgd.ParseSchedule(s.Schedule)
	if err != nil {
		return scenario.Spec{}, err
	}
	c.Schedule = sched.Name()
	c.Workload, err = canonicalWorkload(s.Workload, s.Seed)
	if err != nil {
		return scenario.Spec{}, err
	}
	// Arrival canonicalizes through the registry like the other axes,
	// with one extra collapse: a spec whose canonical form is Sync
	// ("sync" itself, or any tau=0 spelling) is byte-identical to the
	// synchronous protocol, so it maps to the empty string — the JSON
	// field then omits entirely and the key equals the pre-arrival
	// sync key (stored results stay warm, no Version bump needed).
	// Genuinely asynchronous specs keep their canonical Name, making
	// their keys distinct from every synchronous cell by construction.
	if strings.TrimSpace(s.Arrival) == "" {
		c.Arrival = ""
	} else {
		proc, err := arrival.Parse(s.Arrival)
		if err != nil {
			return scenario.Spec{}, err
		}
		if name := proc.Name(); name == "sync" {
			c.Arrival = ""
		} else {
			c.Arrival = name
		}
	}
	return c, nil
}

// Key returns the spec's content address: "sha256:" plus the hex
// SHA-256 of the Version salt and the canonical spec's JSON. The key
// is conservative: two specs sharing a key are guaranteed to produce
// the same result under the current code version, but not every
// result-identical pair shares a key — notably Incremental is hashed
// (it is part of the cell's declared identity even though results are
// bit-identical either way), so flipping it recomputes.
func Key(s scenario.Spec) (string, error) {
	c, err := Canonical(s)
	if err != nil {
		return "", err
	}
	return keyOfCanonical(c)
}

// keyOfCanonical hashes an already-canonical spec under the active
// order family.
func keyOfCanonical(c scenario.Spec) (string, error) {
	return keyOfCanonicalWith(vec.KernelOrder(), c)
}

// keyOfCanonicalWith hashes an already-canonical spec under an explicit
// order-family salt — the re-derivation path for records written by
// ANOTHER family (see decodeLine's foreign verdict).
func keyOfCanonicalWith(order string, c scenario.Spec) (string, error) {
	blob, err := json.Marshal(c)
	if err != nil {
		return "", fmt.Errorf("marshaling spec for hashing: %w: %w", err, ErrStore)
	}
	return hashKeyWith(order, blob), nil
}

// hashKey renders the content address of a hashed identity blob,
// salted with Version AND the active kernel accumulation-order family
// (vec.KernelOrder). Cell keys hash a canonical spec's JSON and aux
// keys an auxIdentity's JSON — the two preimage families start with
// different JSON structure, so they cannot collide.
//
// The kernel salt is the order FAMILY, not the tier name: tiers with
// the same canonical accumulation order produce bit-identical results
// (pinned in internal/vec's gram_test.go), so a pure-Go worker and an
// SSE2 worker deliberately share keys — while a result computed under
// the fma4 (AVX2) order can never be served to a pair2 process, whose
// cold run would produce different low bits. A tier switch (new CPU,
// KRUM_KERNEL_TIER change) across order families therefore orphans
// entries exactly like a Version bump, per order family.
func hashKey(blob []byte) string {
	return hashKeyWith(vec.KernelOrder(), blob)
}

// hashKeyWith is hashKey under an explicit order-family salt.
func hashKeyWith(order string, blob []byte) string {
	h := sha256.New()
	h.Write([]byte(Version))
	h.Write([]byte{'\n'})
	h.Write([]byte(order))
	h.Write([]byte{'\n'})
	h.Write(blob)
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// record is one JSONL line.
type record struct {
	// Key is the content address the record was stored under.
	Key string `json:"key"`
	// Version is the salt in effect at write time (informational — the
	// salt is already baked into Key).
	Version string `json:"version"`
	// Kernel is the accumulation-order family (vec.Tier.Order) active at
	// write time. Unlike Version it is load-bearing: a record whose Key
	// fails re-derivation under the ACTIVE family is re-checked against
	// its own declared family, and if intact under that salt it is
	// classified foreign (another family's valid entry — never served
	// here, but preserved by Compact) instead of tampered. Altering the
	// stored identity after hashing still fails BOTH derivations, so
	// this weakens no integrity check.
	Kernel string `json:"kernel,omitempty"`
	// Kind discriminates the record family: empty for distsgd cell
	// results (scenario.ResultStore records), a harness kind such as
	// "table1" or "ablation" for auxiliary Monte-Carlo records (see
	// aux.go). The kind participates in the key, so the families can
	// never collide.
	Kind string `json:"kind,omitempty"`
	// Params is the auxiliary record's extra identity (trial counts,
	// dimensions — everything result-affecting that the spec does not
	// carry); empty for cell records.
	Params string `json:"params,omitempty"`
	// Spec is the canonical spec the result was computed from.
	Spec scenario.Spec `json:"spec"`
	// Result is the stable-encoded training outcome (for cell records)
	// or the kind-specific JSON payload (for auxiliary records).
	Result json.RawMessage `json:"result"`
}

// deriveKey recomputes the record's content address from its stored
// identity under the active order family — the tamper/stale check Open
// applies to every line.
func (r record) deriveKey() (string, error) {
	return r.deriveKeyWith(vec.KernelOrder())
}

// deriveKeyWith recomputes the record's content address under an
// explicit order-family salt; decodeLine uses it with the record's own
// stored Kernel to distinguish foreign records from tampered ones.
func (r record) deriveKeyWith(order string) (string, error) {
	if r.Kind == "" {
		c, err := Canonical(r.Spec)
		if err != nil {
			return "", err
		}
		return keyOfCanonicalWith(order, c)
	}
	c, err := CanonicalAux(r.Spec)
	if err != nil {
		return "", err
	}
	return keyOfAuxCanonicalWith(order, r.Kind, c, r.Params)
}

// Stats is a snapshot of a store's counters.
type Stats struct {
	// Entries is the number of distinct keys currently indexed.
	Entries int
	// Hits and Misses count Lookup outcomes since Open.
	Hits, Misses int
	// FlightWaits counts single-flight followers since Open: DoCell
	// calls that found the same key already executing and waited for
	// its result instead of computing (see DoCell).
	FlightWaits int
	// Saves counts successful Save calls since Open.
	Saves int
	// SkippedRecords counts records dropped from the index at Open
	// time: malformed lines, key mismatches (tampered or stale-salt
	// entries), foreign-family records, or undecodable results.
	// Skipped records are never served by this process.
	SkippedRecords int
	// DroppedTailBytes is the size of the torn final line Open
	// discarded (0 for a clean file).
	DroppedTailBytes int
	// Superseded counts records currently on disk that are shadowed by
	// a later write to the same key — duplicates from re-saves, crashed
	// seals, or un-compacted history. It is the store's compaction
	// debt: Compact drives the sealed-segment share of it to zero.
	Superseded int
	// Tampered counts integrity-check failures observed since Open:
	// records whose stored key did not re-derive from their stored
	// identity, plus whole sealed segments whose content hash did not
	// match the hash in their name (each such segment counts once and
	// is skipped wholesale). Tampered data is never served; the
	// affected cells recompute. Records written under a DIFFERENT
	// kernel-order family are not tampered — see Foreign.
	Tampered int
	// Foreign counts intact records observed since Open that belong to
	// another kernel-order family (their key re-derives under their own
	// stored Kernel salt, not the active one). They are skipped — this
	// process's kernels cannot reproduce their rounding — but healthy:
	// a mixed-family fleet sharing one store file reports them here,
	// not as Tampered, and Compact preserves them on disk.
	Foreign int
	// Segments is the number of sealed segments currently backing the
	// store (0 for single-file and in-memory stores).
	Segments int
	// Seals counts tail→segment seals since Open.
	Seals int
	// Compactions counts Compact merges since Open.
	Compactions int
}

// String renders the counters in one line.
func (s Stats) String() string {
	line := fmt.Sprintf("%d entries, %d hits, %d misses, %d flight waits, %d saves, %d skipped, %d tampered, %d superseded, %d tail bytes dropped",
		s.Entries, s.Hits, s.Misses, s.FlightWaits, s.Saves, s.SkippedRecords, s.Tampered, s.Superseded, s.DroppedTailBytes)
	if s.Foreign > 0 {
		line += fmt.Sprintf(", %d foreign-family", s.Foreign)
	}
	if s.Segments > 0 || s.Seals > 0 || s.Compactions > 0 {
		line += fmt.Sprintf(", %d segments (%d seals, %d compactions)", s.Segments, s.Seals, s.Compactions)
	}
	return line
}

// Store is a content-addressed scenario result store: an in-memory
// key → result index, optionally backed by an append-only JSONL file.
// It implements scenario.ResultStore and is safe for concurrent use.
type Store struct {
	mu   sync.Mutex
	path string
	file *os.File // nil for in-memory stores
	// offset is the end of the last fully-written record — the safe
	// append position. After a failed write the file is rolled back to
	// it so a torn fragment can never fuse with the next record.
	offset int64
	index  map[string]json.RawMessage
	// flights tracks in-progress single-flight executions by key (see
	// singleflight.go); entries exist only while a leader is computing.
	flights map[string]*flight
	stats   Stats

	// backend, when non-nil, makes this a SEGMENTED store (see
	// segment.go): the tail seals into immutable hashed segments at
	// sealBytes, replayed before the tail at Open.
	backend   Backend
	sealBytes int64
	// segSeq is the highest segment sequence in use; segments lists the
	// sealed segments in replay order.
	segSeq   int
	segments []string
	// segRecords / tailRecords count the valid indexed records living
	// in sealed segments and in the tail respectively; together with
	// diskKeys they make Stats.Superseded exact: superseded =
	// segRecords + tailRecords − len(diskKeys).
	segRecords  int
	tailRecords int
	// diskKeys is the set of distinct keys with at least one durable
	// record (subset of index for stores that dropped to memory-only).
	diskKeys map[string]struct{}
}

// NewMemory returns a store with no backing file — the index lives and
// dies with the process. It is the default for krum-scenariod when no
// -store path is given, and convenient in tests and examples.
func NewMemory() *Store {
	return &Store{
		index:    make(map[string]json.RawMessage),
		flights:  make(map[string]*flight),
		diskKeys: make(map[string]struct{}),
	}
}

// Open opens (creating if needed) the JSONL store at path, loads every
// intact record into the index, and prepares the file for appends. See
// the package comment for the corruption rules: a torn final line is
// truncated away, records whose key does not re-derive from their spec
// are skipped, duplicate keys resolve last-write-wins. The returned
// Stats (via Stats) report what was skipped.
func Open(path string) (*Store, error) {
	if path == "" {
		return nil, fmt.Errorf("empty path (use NewMemory for an in-memory store): %w", ErrStore)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("opening %s: %w: %w", path, err, ErrStore)
	}
	s := &Store{
		path:     path,
		file:     f,
		index:    make(map[string]json.RawMessage),
		flights:  make(map[string]*flight),
		diskKeys: make(map[string]struct{}),
	}
	if err := s.load(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// load scans the JSONL file, indexing intact records and truncating a
// torn tail.
func (s *Store) load() error {
	r := bufio.NewReader(s.file)
	var offset int64 // end of the last newline-terminated line
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			// A final fragment without a newline is a torn append:
			// drop it and truncate so the next append starts clean.
			if len(line) > 0 {
				s.stats.DroppedTailBytes = len(line)
				if err := s.file.Truncate(offset); err != nil {
					return fmt.Errorf("truncating torn tail of %s: %w: %w", s.path, err, ErrStore)
				}
			}
			break
		}
		if err != nil {
			return fmt.Errorf("reading %s: %w: %w", s.path, err, ErrStore)
		}
		offset += int64(len(line))
		s.indexLine(line, &s.tailRecords)
	}
	if _, err := s.file.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("seeking %s: %w: %w", s.path, err, ErrStore)
	}
	s.offset = offset
	return nil
}

// lineVerdict classifies one JSONL line for indexing.
type lineVerdict int

const (
	// lineOK is a servable record.
	lineOK lineVerdict = iota
	// lineEmpty is whitespace only.
	lineEmpty
	// lineMalformed failed to parse as a record.
	lineMalformed
	// lineTampered parsed but failed the integrity check: its stored
	// key does not re-derive from its stored identity (hand-edited
	// spec, stale version salt), or it carries no result.
	lineTampered
	// lineForeign is intact but belongs to ANOTHER kernel-order family:
	// its key re-derives under the record's own stored Kernel salt, just
	// not under the active one. Never served by this process (its low
	// bits encode a rounding order these kernels cannot reproduce), but
	// not corruption either — Compact carries foreign records through so
	// a mixed-family fleet sharing one store never loses the other
	// family's results to a compaction.
	lineForeign
)

// decodeLine parses one complete JSONL line and re-derives its key —
// the acceptance rule shared by Open's replay and Compact's merge. A
// key mismatch under BOTH the active order-family salt and the
// record's own declared one means the record was written under a
// different code version (stale salt) or its identity was altered
// after hashing — either way serving it could be a stale result. A
// mismatch that re-derives intact under the record's declared family
// alone is foreign (see lineForeign); its returned key is the stored
// one, valid in that family's keyspace and collision-free with ours
// because the salt differs.
func decodeLine(line []byte) (rec record, key string, v lineVerdict) {
	trimmed := strings.TrimSpace(string(line))
	if trimmed == "" {
		return record{}, "", lineEmpty
	}
	if err := json.Unmarshal([]byte(trimmed), &rec); err != nil {
		return record{}, "", lineMalformed
	}
	key, err := rec.deriveKey()
	if err != nil || len(rec.Result) == 0 {
		return record{}, "", lineTampered
	}
	if key != rec.Key {
		if rec.Kernel != "" && rec.Kernel != vec.KernelOrder() {
			if fk, ferr := rec.deriveKeyWith(rec.Kernel); ferr == nil && fk == rec.Key {
				return rec, rec.Key, lineForeign
			}
		}
		return record{}, "", lineTampered
	}
	return rec, key, lineOK
}

// indexLine validates one complete line and indexes it, counting (not
// failing on) records that cannot be served safely; counter is the
// location tally (segment vs tail records) a servable line bumps.
func (s *Store) indexLine(line []byte, counter *int) {
	rec, key, v := decodeLine(line)
	switch v {
	case lineEmpty:
		return
	case lineMalformed:
		s.stats.SkippedRecords++
		return
	case lineTampered:
		s.stats.SkippedRecords++
		s.stats.Tampered++
		return
	case lineForeign:
		s.stats.SkippedRecords++
		s.stats.Foreign++
		return
	}
	s.index[key] = rec.Result // duplicate keys: last write wins
	s.diskKeys[key] = struct{}{}
	*counter++
}

// Lookup implements scenario.ResultStore. Any internal failure — a
// spec that cannot be keyed, a result that no longer decodes — is a
// miss: the runner recomputes, which is always safe.
func (s *Store) Lookup(spec scenario.Spec) (*distsgd.Result, bool) {
	key, err := Key(spec)
	if err != nil {
		s.mu.Lock()
		s.stats.Misses++
		s.mu.Unlock()
		return nil, false
	}
	s.mu.Lock()
	raw, ok := s.index[key]
	if !ok {
		s.stats.Misses++
		s.mu.Unlock()
		return nil, false
	}
	s.mu.Unlock()
	res := new(distsgd.Result)
	if err := json.Unmarshal(raw, res); err != nil {
		s.mu.Lock()
		s.stats.Misses++
		s.mu.Unlock()
		return nil, false
	}
	s.mu.Lock()
	s.stats.Hits++
	s.mu.Unlock()
	return res, true
}

// Save implements scenario.ResultStore: it appends one record to the
// file (when backed by one) and indexes it. The stored spec is the
// canonical form, so reloads re-derive the same key.
func (s *Store) Save(spec scenario.Spec, res *distsgd.Result) error {
	raw, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encoding result: %w: %w", err, ErrStore)
	}
	return s.saveRaw(spec, raw)
}

// saveRaw persists an already-encoded result under the spec's key (the
// single-flight leader, which has the canonical spec and key in hand
// already, appends its record directly instead).
func (s *Store) saveRaw(spec scenario.Spec, raw json.RawMessage) error {
	c, err := Canonical(spec)
	if err != nil {
		return fmt.Errorf("canonicalizing spec: %w", err)
	}
	key, err := keyOfCanonical(c)
	if err != nil {
		return err
	}
	return s.appendRecord(record{Key: key, Version: Version, Spec: c, Result: raw})
}

// appendRecord writes one validated record to the file (when backed by
// one) and indexes it, stamping the active kernel order family into
// the record's informational Kernel field.
func (s *Store) appendRecord(rec record) error {
	if rec.Kernel == "" {
		rec.Kernel = vec.KernelOrder()
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("encoding record: %w: %w", err, ErrStore)
	}
	line = append(line, '\n')

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.file != nil {
		if _, err := s.file.Write(line); err != nil {
			// A failed append may have left a torn fragment; roll the
			// file back to the last good record so a later successful
			// Save cannot fuse with it (which would silently lose THAT
			// record on the next Open). If even the rollback fails, the
			// file is unusable — drop to memory-only so persistence
			// errors stay loud but hits keep working.
			if terr := s.rollbackTo(s.offset); terr != nil {
				s.file.Close()
				s.file = nil
				return fmt.Errorf("appending to %s: %w (rollback failed: %v; store is memory-only now): %w", s.path, err, terr, ErrStore)
			}
			return fmt.Errorf("appending to %s: %w: %w", s.path, err, ErrStore)
		}
		s.offset += int64(len(line))
		s.tailRecords++
		s.diskKeys[rec.Key] = struct{}{}
	}
	s.index[rec.Key] = rec.Result
	s.stats.Saves++
	// The record is durable; sealing is opportunistic on top of it — a
	// failed seal leaves the tail to keep growing and the next append
	// (or an explicit Seal) retries.
	if s.backend != nil && s.offset >= s.sealBytes {
		_ = s.sealLocked()
	}
	return nil
}

// rollbackTo truncates the file to offset and repositions the append
// cursor there. Callers hold s.mu.
func (s *Store) rollbackTo(offset int64) error {
	if err := s.file.Truncate(offset); err != nil {
		return err
	}
	_, err := s.file.Seek(offset, io.SeekStart)
	return err
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.index)
	st.Segments = len(s.segments)
	st.Superseded = s.segRecords + s.tailRecords - len(s.diskKeys)
	return st
}

// Path returns the backing file path ("" for in-memory stores).
func (s *Store) Path() string { return s.path }

// Close releases the backing file (a no-op for in-memory stores). The
// store must not be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.file == nil {
		return nil
	}
	err := s.file.Close()
	s.file = nil
	return err
}
