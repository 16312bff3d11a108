package bank

import (
	"bytes"
	"path/filepath"
	"sync"
	"testing"
)

// Segment pruning suite: fully-claimed closed segment files are deleted
// at recovery and at Sync (drain), the active segment and any segment
// holding a live record survive, and pruning never touches the claim
// journal — the single-use audit stays clean afterwards.

// segCount counts the scope's on-disk segment files.
func segCount(t *testing.T, dir string, scope Scope) int {
	t.Helper()
	pool := filepath.Join(dir, poolsDir, scope.dirName())
	matches, err := filepath.Glob(filepath.Join(pool, segPrefix+"*"+segSuffix))
	if err != nil {
		t.Fatalf("glob segments: %v", err)
	}
	return len(matches)
}

// fillSegments appends n 48-byte records under a 128-byte segment cap,
// forcing rotation so the ids spread over several segment files in
// append order (Draw is FIFO, so draws claim oldest segments first).
func fillSegments(t *testing.T, s *Store, scope Scope, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		if err := s.Append(scope, uint64(i), bytes.Repeat([]byte{byte(i)}, 48)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStorePruneAtSync(t *testing.T) {
	var mu sync.Mutex
	pruned := 0
	obs := observerFunc(func(ev Event) {
		if ev.Kind == "persist-prune" {
			mu.Lock()
			pruned++
			mu.Unlock()
		}
	})
	dir := t.TempDir()
	scope := testScope(PeerID{})
	s, _ := openRecovered(t, dir, StoreOptions{SegmentMaxBytes: 128, Observer: obs})
	defer s.Close()
	fillSegments(t, s, scope, 6)
	before := segCount(t, dir, scope)
	if before < 2 {
		t.Fatalf("%d segment files, want >= 2 (rotation did not trigger)", before)
	}

	// Claim everything: every closed segment is now dead weight; only
	// the active segment may remain after the drain prune.
	for i := 0; i < 6; i++ {
		if _, _, ok, err := s.Draw(scope); err != nil || !ok {
			t.Fatalf("draw %d: ok=%v err=%v", i, ok, err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	// Every closed fully-claimed segment dies; at most a still-open
	// active segment survives (the tight cap rotates — closes — most
	// segments right at append time).
	after := segCount(t, dir, scope)
	if after > 1 {
		t.Fatalf("%d segment files after drain prune, want <= 1", after)
	}
	mu.Lock()
	got := pruned
	mu.Unlock()
	if got != before-after {
		t.Errorf("observed %d persist-prune events, want %d", got, before-after)
	}

	// Pruning removes segments, never journal entries: the single-use
	// audit must stay clean.
	s.Close()
	res, err := AuditJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dupes) != 0 {
		t.Fatalf("audit found %d double spends after pruning", len(res.Dupes))
	}
}

func TestStorePruneKeepsLiveSegments(t *testing.T) {
	dir := t.TempDir()
	scope := testScope(PeerID{})
	s, _ := openRecovered(t, dir, StoreOptions{SegmentMaxBytes: 128})
	defer s.Close()
	fillSegments(t, s, scope, 6)
	before := segCount(t, dir, scope)

	// Draw only the oldest records: at most the head segments die, and
	// any segment still holding a live record must survive the prune.
	if _, _, ok, err := s.Draw(scope); err != nil || !ok {
		t.Fatalf("draw: ok=%v err=%v", ok, err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	after := segCount(t, dir, scope)
	if after < 1 || after > before {
		t.Fatalf("segment count went %d -> %d", before, after)
	}
	if got := s.Depth(scope); got != 5 {
		t.Fatalf("depth after partial claim = %d, want 5", got)
	}
}

func TestStorePruneAtRecovery(t *testing.T) {
	dir := t.TempDir()
	scope := testScope(PeerID{})
	s1, _ := openRecovered(t, dir, StoreOptions{SegmentMaxBytes: 128})
	fillSegments(t, s1, scope, 6)
	// Claim four: the oldest segments become fully claimed, the tail
	// keeps live records.
	for i := 0; i < 4; i++ {
		if _, _, ok, err := s1.Draw(scope); err != nil || !ok {
			t.Fatalf("draw %d: ok=%v err=%v", i, ok, err)
		}
	}
	before := segCount(t, dir, scope)
	s1.Close()

	s2, stats := openRecovered(t, dir, StoreOptions{})
	defer s2.Close()
	if stats.Pruned < 1 {
		t.Fatalf("recovery pruned %d segments, want >= 1", stats.Pruned)
	}
	if after := segCount(t, dir, scope); after != before-stats.Pruned {
		t.Fatalf("segment count %d -> %d with %d pruned", before, after, stats.Pruned)
	}
	if stats.Records != 2 {
		t.Fatalf("recovered %d records, want 2", stats.Records)
	}
	// The surviving records are still drawable and still single-use.
	for i := 0; i < 2; i++ {
		if _, _, ok, err := s2.Draw(scope); err != nil || !ok {
			t.Fatalf("post-recovery draw %d: ok=%v err=%v", i, ok, err)
		}
	}
	if _, _, ok, _ := s2.Draw(scope); ok {
		t.Fatal("drew more records than were ever appended")
	}
}

// TestStorePruneFullyClaimedStore: when every record is claimed before a
// restart, recovery deletes all segment files, and a fresh append starts
// a new segment cleanly.
func TestStorePruneFullyClaimedStore(t *testing.T) {
	dir := t.TempDir()
	scope := testScope(PeerID{})
	s1, _ := openRecovered(t, dir, StoreOptions{SegmentMaxBytes: 128})
	fillSegments(t, s1, scope, 4)
	for i := 0; i < 4; i++ {
		if _, _, ok, err := s1.Draw(scope); err != nil || !ok {
			t.Fatalf("draw %d: ok=%v err=%v", i, ok, err)
		}
	}
	s1.Close()

	s2, stats := openRecovered(t, dir, StoreOptions{})
	defer s2.Close()
	if stats.Records != 0 {
		t.Fatalf("recovered %d records, want 0", stats.Records)
	}
	if n := segCount(t, dir, scope); n != 0 {
		t.Fatalf("%d segment files survived a fully-claimed recovery, want 0", n)
	}
	if err := s2.Append(scope, 100, []byte{1}); err != nil {
		t.Fatalf("append after full prune: %v", err)
	}
	if id, _, ok, err := s2.Draw(scope); err != nil || !ok || id != 100 {
		t.Fatalf("draw after full prune: id=%d ok=%v err=%v", id, ok, err)
	}
}
