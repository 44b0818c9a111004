package appstore

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/phase"
)

// The fingerprint dictionary — each application's newest live
// fingerprinted record, the corpus a finalizing run is matched against —
// lives in the in-memory index next to the posting lists, so a read
// touches no record body:
//
//   - Fill: the first read after Open resolves every application from
//     disk, so opening the store stays header-only.
//   - Put: Append sets the entry from the record it already holds.
//   - Delete: markDeadLocked, the one place Prune, retention and scrub
//     repair kill records, marks an application stale when it kills that
//     application's entry record; the next read re-resolves it to its
//     next-newest fingerprinted record.
//   - Compaction moves records, never renumbers them, so entries (keyed
//     by sequence number) stay valid.
//
// An application whose entry record cannot be read stays stale: the read
// returns the rest of the dictionary plus an error, and the next read
// tries it again.

// DictEntry is one application's fingerprint-dictionary entry: the
// fingerprint of its newest live fingerprinted record and the match that
// record finalized with. Aliased as appdb.DictEntry.
type DictEntry struct {
	Fingerprint phase.Fingerprint
	MatchedApp  string
	MatchScore  float64
}

// dictSlot is a cached entry plus the sequence number of the record it
// came from. A slot whose fingerprint decoded empty is kept (so a kill of
// its record is still noticed) but left out of every snapshot.
type dictSlot struct {
	seq uint64
	DictEntry
}

// dictCache is the store's cached dictionary. Readers share the store's
// read lock, so they serialize on mu to fill and re-resolve; holders of
// the write lock (Append, markDeadLocked) have it to themselves and skip
// mu.
type dictCache struct {
	mu     sync.Mutex
	filled bool
	slots  map[string]dictSlot
	stale  map[string]bool
}

// dictBody is the part of a record body the dictionary needs. Decoding
// into it skips the phase list and the training reservoir a full Record
// decode would allocate.
type dictBody struct {
	Fingerprint *phase.Fingerprint `json:"fingerprint"`
	MatchedApp  string             `json:"matched_app"`
	MatchScore  float64            `json:"match_score"`
}

// dictPutLocked records a freshly appended fingerprinted record as its
// application's entry. Before the first fill there is nothing to keep
// current: the fill will read the record from disk. Caller holds the
// write lock.
func (s *Store) dictPutLocked(seq uint64, r *Record) {
	d := &s.dict
	if !d.filled {
		return
	}
	d.slots[r.App] = dictSlot{seq: seq, DictEntry: DictEntry{
		Fingerprint: newFPCopier(*r.Fingerprint).copy(*r.Fingerprint),
		MatchedApp:  r.MatchedApp,
		MatchScore:  r.MatchScore,
	}}
	delete(d.stale, r.App)
}

// dictKillLocked drops e's application entry when e is that entry's
// record, leaving the application to be re-resolved on the next read.
// Caller holds the write lock.
func (s *Store) dictKillLocked(e *entry) {
	d := &s.dict
	if !d.filled || !e.hasFP {
		return
	}
	if slot, ok := d.slots[e.app]; ok && slot.seq == e.seq {
		delete(d.slots, e.app)
		d.stale[e.app] = true
	}
}

// resolveDictLocked brings the cache up to date: the whole dictionary on
// the first call, only the stale applications after that. Caller holds
// the read lock and d.mu.
func (s *Store) resolveDictLocked() error {
	d := &s.dict
	if !d.filled {
		d.slots = make(map[string]dictSlot, len(s.byApp))
		d.stale = make(map[string]bool, len(s.byApp))
		for app := range s.byApp {
			d.stale[app] = true
		}
		d.filled = true
	}
	var firstErr error
	failed := 0
	var buf []byte // one read buffer for the whole pass
	for app := range d.stale {
		var err error
		if buf, err = s.resolveAppLocked(app, buf); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			failed++
		}
	}
	if firstErr != nil {
		return fmt.Errorf("appstore: %d unreadable fingerprint dictionary entr(ies): %w", failed, firstErr)
	}
	return nil
}

// resolveAppLocked reads app's newest live fingerprinted record into the
// cache; the application stays stale if that record is unreadable. buf
// is a reusable read buffer; the possibly grown one is returned.
func (s *Store) resolveAppLocked(app string, buf []byte) ([]byte, error) {
	d := &s.dict
	delete(d.slots, app)
	idxs := s.byApp[app]
	for i := len(idxs) - 1; i >= 0; i-- {
		e := &s.entries[idxs[i]]
		if e.dead || !e.hasFP {
			continue
		}
		if int64(cap(buf)) < e.n {
			buf = make([]byte, e.n)
		}
		payload, err := s.readPayload(e, buf)
		if err != nil {
			return buf, err
		}
		_, body, err := decodeMeta(payload)
		if err != nil {
			return buf, err
		}
		var b dictBody
		if err := json.Unmarshal(body, &b); err != nil {
			return buf, fmt.Errorf("appstore: decode record body (seq %d): %w", e.seq, err)
		}
		slot := dictSlot{seq: e.seq, DictEntry: DictEntry{MatchedApp: b.MatchedApp, MatchScore: b.MatchScore}}
		if b.Fingerprint != nil {
			slot.Fingerprint = *b.Fingerprint
		}
		d.slots[app] = slot
		break
	}
	delete(d.stale, app)
	return buf, nil
}

// Dictionary returns the fingerprint dictionary with each entry's
// recorded match. The map and every slice in it are the caller's own.
// An unreadable entry drops its application; the partial dictionary is
// returned alongside an error naming the loss, so the caller can log
// that matching degraded rather than silently losing applications.
func (s *Store) Dictionary() (map[string]DictEntry, error) {
	entries, err := s.dictSnapshot()
	out := make(map[string]DictEntry, len(entries))
	for _, e := range entries {
		out[e.app] = e.DictEntry
	}
	return out, err
}

// Fingerprints returns the fingerprint dictionary — each application's
// most recent fingerprinted live record — without the match fields.
// Ownership and errors are as for Dictionary.
func (s *Store) Fingerprints() (map[string]phase.Fingerprint, error) {
	entries, err := s.dictSnapshot()
	out := make(map[string]phase.Fingerprint, len(entries))
	for _, e := range entries {
		out[e.app] = e.Fingerprint
	}
	return out, err
}

// appEntry is one dictionary entry of a snapshot.
type appEntry struct {
	app string
	DictEntry
}

// dictSnapshot brings the cache up to date and deep-copies its
// non-empty entries.
func (s *Store) dictSnapshot() ([]appEntry, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d := &s.dict
	d.mu.Lock()
	defer d.mu.Unlock()
	err := s.resolveDictLocked()
	fps := make([]phase.Fingerprint, 0, len(d.slots))
	for _, slot := range d.slots {
		fps = append(fps, slot.Fingerprint)
	}
	c := newFPCopier(fps...)
	out := make([]appEntry, 0, len(d.slots))
	for app, slot := range d.slots {
		if !slot.Fingerprint.Empty() {
			e := appEntry{app: app, DictEntry: slot.DictEntry}
			e.Fingerprint = c.copy(slot.Fingerprint)
			out = append(out, e)
		}
	}
	return out, err
}

// fpCopier deep-copies fingerprints into two shared backing arrays, so a
// snapshot of the whole dictionary costs a handful of allocations and
// no copy shares memory with the cache. Empty centroids come out nil, as
// a JSON round trip leaves them, so a cached entry equals the one a
// fill from disk would produce.
type fpCopier struct {
	sigs   []phase.PhaseSig
	floats []float64
}

// newFPCopier sizes a copier for fps.
func newFPCopier(fps ...phase.Fingerprint) *fpCopier {
	var nSigs, nFloats int
	for _, fp := range fps {
		nSigs += len(fp.Phases)
		for _, p := range fp.Phases {
			nFloats += len(p.Centroid)
		}
	}
	return &fpCopier{sigs: make([]phase.PhaseSig, nSigs), floats: make([]float64, nFloats)}
}

// copy returns a deep copy of fp carved from the copier's arrays; fp must
// be one of the fingerprints the copier was sized for.
func (c *fpCopier) copy(fp phase.Fingerprint) phase.Fingerprint {
	if fp.Empty() {
		return phase.Fingerprint{}
	}
	n := len(fp.Phases)
	out := c.sigs[:n:n]
	c.sigs = c.sigs[n:]
	for i, p := range fp.Phases {
		out[i] = p
		out[i].Centroid = nil
		if k := len(p.Centroid); k > 0 {
			out[i].Centroid = c.floats[:k:k]
			c.floats = c.floats[k:]
			copy(out[i].Centroid, p.Centroid)
		}
	}
	return phase.Fingerprint{Phases: out}
}
