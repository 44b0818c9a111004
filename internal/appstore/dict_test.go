package appstore

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/appclass"
	"repro/internal/phase"
)

// copyStoreDir copies every file of a store directory into a fresh one,
// so the copy can be opened without touching the original.
func copyStoreDir(t *testing.T, src string) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), "copy")
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			in.Close()
			t.Fatal(err)
		}
		_, cerr := io.Copy(out, in)
		in.Close()
		if err := out.Close(); cerr != nil || err != nil {
			t.Fatal(cerr, err)
		}
	}
	return dst
}

// reopenedDictionary is the dictionary a fresh open of a copy of the
// store's directory reads from disk.
func reopenedDictionary(t *testing.T, s *Store, opt Options) map[string]DictEntry {
	t.Helper()
	opt.Logf = func(string, ...any) {}
	c, err := Open(copyStoreDir(t, s.Dir()), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dict, err := c.Dictionary()
	if err != nil {
		t.Fatalf("dictionary of the reopened copy: %v", err)
	}
	return dict
}

// randFingerprint varies phase count, fractions and centroids, including
// empty (non-nil) centroids, which a JSON round trip turns into nil.
func randFingerprint(rng *rand.Rand) *phase.Fingerprint {
	classes := appclass.All()
	fp := &phase.Fingerprint{}
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		sig := phase.PhaseSig{Class: classes[rng.Intn(len(classes))], DurFrac: rng.Float64()}
		switch rng.Intn(3) {
		case 0:
			sig.Centroid = []float64{}
		case 1:
			sig.Centroid = []float64{rng.NormFloat64(), rng.NormFloat64()}
		}
		fp.Phases = append(fp.Phases, sig)
	}
	return fp
}

// TestDictionaryMatchesReopenUnderChurn is the dictionary's property
// test: seeded random sequences of Put (with and without a fingerprint),
// Prune, Compact, age and byte retention under a fake clock, scrub
// repair of a flipped byte, and close-and-reopen. After every step the
// cached dictionary must equal the one a fresh open rebuilds from disk.
func TestDictionaryMatchesReopenUnderChurn(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			now := time.Unix(1_700_000_000, 0)
			opt := Options{
				SegmentBytes: 1200,
				MaxBytes:     12_000,
				RetainAge:    time.Hour,
				PruneFloor:   1,
				NoFsync:      true,
				Now:          func() time.Time { return now },
				Logf:         func(string, ...any) {},
			}
			dir := filepath.Join(t.TempDir(), "store")
			s, err := Open(dir, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { s.Close() }()
			apps := []string{"a", "b", "c", "d", "e", "f"}
			// Stats restart at every open; tally them across reopens.
			var pruned, retained, repaired, compactions int64
			tally := func() {
				st := s.Stats()
				retained += st.PrunedRecords
				repaired += st.ScrubRepairedSegments
				compactions += st.Compactions
			}
			for step := 0; step < 150; step++ {
				var op string
				switch k := rng.Intn(20); {
				case k < 12:
					op = "put"
					app := apps[rng.Intn(len(apps))]
					r := testRecord(app, appclass.CPU, step)
					r.FinalizedAt = now.UnixNano()
					if rng.Intn(3) > 0 {
						r.Fingerprint = randFingerprint(rng)
						if rng.Intn(2) == 0 {
							r.MatchedApp = apps[rng.Intn(len(apps))]
							r.MatchScore = rng.Float64()
						}
					}
					if err := s.Append(&r); err != nil {
						t.Fatal(err)
					}
				case k < 14:
					op = "prune"
					n, err := s.Prune(1 + rng.Intn(3))
					if err != nil {
						t.Fatal(err)
					}
					pruned += int64(n)
				case k < 15:
					op = "compact"
					if err := s.Compact(); err != nil {
						t.Fatal(err)
					}
				case k < 17:
					// Age retention fires at the next rotation.
					op = "age"
					now = now.Add(time.Duration(rng.Intn(90)) * time.Minute)
				case k < 19:
					op = "scrub"
					s.mu.RLock()
					var closed []entry
					for _, e := range s.entries {
						if e.seg != s.seg {
							closed = append(closed, e)
						}
					}
					s.mu.RUnlock()
					if len(closed) == 0 {
						continue
					}
					e := closed[rng.Intn(len(closed))]
					path := segName.Path(s.dir, e.seg)
					b, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					b[e.off+frameSize+rng.Int63n(e.n-frameSize)] ^= 0x10
					if err := os.WriteFile(path, b, 0o644); err != nil {
						t.Fatal(err)
					}
					// One pass runs from the scrub cursor to the newest
					// segment; the second wraps round to the oldest.
					for pass := 0; pass < 2; pass++ {
						if _, err := s.Scrub(100); err != nil {
							t.Fatal(err)
						}
					}
				default:
					op = "reopen"
					tally()
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
					if s, err = Open(dir, opt); err != nil {
						t.Fatal(err)
					}
				}
				got, err := s.Dictionary()
				if err != nil {
					t.Fatalf("step %d (%s): %v", step, op, err)
				}
				if want := reopenedDictionary(t, s, opt); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d (%s): cached dictionary\n%+v\nreopened\n%+v", step, op, got, want)
				}
				fps, err := s.Fingerprints()
				if err != nil || len(fps) != len(got) {
					t.Fatalf("step %d (%s): Fingerprints has %d entries (%v), Dictionary %d", step, op, len(fps), err, len(got))
				}
				for app, e := range got {
					if !reflect.DeepEqual(fps[app], e.Fingerprint) {
						t.Fatalf("step %d (%s): Fingerprints[%s] = %+v, Dictionary has %+v", step, op, app, fps[app], e.Fingerprint)
					}
				}
			}
			tally()
			retained -= pruned // PrunedRecords counts both
			if pruned == 0 || retained == 0 || repaired == 0 || compactions == 0 {
				t.Errorf("churn left a path unexercised: pruned %d, retained away %d, scrub repairs %d, compactions %d",
					pruned, retained, repaired, compactions)
			}
		})
	}
}

// TestDictionarySnapshotsAreCallersOwn mutates everything a read returns
// and checks the next read is unaffected.
func TestDictionarySnapshotsAreCallersOwn(t *testing.T) {
	s := openTest(t, filepath.Join(t.TempDir(), "store"), Options{NoFsync: true})
	for i, app := range []string{"a", "b"} {
		r := testRecord(app, appclass.CPU, i)
		r.Fingerprint = testFingerprint()
		if err := s.Append(&r); err != nil {
			t.Fatal(err)
		}
	}
	want, err := s.Dictionary()
	if err != nil {
		t.Fatal(err)
	}
	// Once filled, an appended entry comes from the record in hand; the
	// caller keeps ownership of that record too.
	r := testRecord("c", appclass.IO, 2)
	r.Fingerprint = testFingerprint()
	if err := s.Append(&r); err != nil {
		t.Fatal(err)
	}
	r.Fingerprint.Phases[0].Centroid[0] = 99
	want["c"] = DictEntry{Fingerprint: *testFingerprint()}

	dict, _ := s.Dictionary()
	fps, _ := s.Fingerprints()
	for _, fp := range fps {
		fp.Phases[0].DurFrac = -1
		fp.Phases[1].Centroid[1] = -1
	}
	delete(fps, "a")
	for app, e := range dict {
		e.Fingerprint.Phases[0].Class = appclass.Idle
		e.Fingerprint.Phases[0].Centroid[0] = 42
		delete(dict, app)
	}
	got, err := s.Dictionary()
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("dictionary after mutating earlier reads = %+v (%v), want %+v", got, err, want)
	}
}

// TestDictionaryConcurrentReadsAndPuts runs dictionary reads against
// appends and prunes; under -race it checks the cache's locking, and at
// the end the cache must still equal a rebuild from disk.
func TestDictionaryConcurrentReadsAndPuts(t *testing.T) {
	opt := Options{SegmentBytes: 2048, NoFsync: true}
	s := openTest(t, filepath.Join(t.TempDir(), "store"), opt)
	const writers, readers, puts = 2, 3, 150
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < puts; i++ {
				r := testRecord(fmt.Sprintf("app-%d", rng.Intn(8)), appclass.CPU, i)
				if rng.Intn(3) > 0 {
					r.Fingerprint = randFingerprint(rng)
				}
				if err := s.Append(&r); err != nil {
					t.Error(err)
					return
				}
				if i%40 == 39 {
					if _, err := s.Prune(2); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < puts; i++ {
				fps, err := s.Fingerprints()
				if err != nil {
					t.Error(err)
					return
				}
				for _, fp := range fps {
					fp.Phases[0].DurFrac = -1 // a caller's own copy
				}
			}
		}()
	}
	wg.Wait()
	got, err := s.Dictionary()
	if err != nil {
		t.Fatal(err)
	}
	if want := reopenedDictionary(t, s, opt); !reflect.DeepEqual(got, want) {
		t.Fatalf("cached dictionary %+v, reopened %+v", got, want)
	}
}
