package store

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"faultcast"
)

func tb(pairs ...int) []faultcast.TallyBucket {
	if len(pairs)%2 != 0 {
		panic("tb wants trials,successes pairs")
	}
	out := make([]faultcast.TallyBucket, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		out = append(out, faultcast.TallyBucket{Trials: pairs[i], Successes: pairs[i+1]})
	}
	return out
}

const testPlanKey = "ab12cd34ef56ab12cd34ef56ab12cd34ef56ab12cd34ef56ab12cd34ef56ab12"

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := tb(32, 10, 32, 15, 20, 3)
	if err := s.AppendTally(testPlanKey, 7, 32, 0, want); err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadTally(testPlanKey, 7, 32)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("same-process load: got %v want %v", got, want)
	}

	// A fresh Store over the same directory must decode the identical
	// bucket sequence from disk.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err = s2.LoadTally(testPlanKey, 7, 32)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened load: got %v want %v", got, want)
	}
	// Other keys stay empty: seed and batch are part of the identity.
	for _, k := range []Key{
		{testPlanKey, 8, 32},
		{testPlanKey, 7, 64},
		{"deadbeef", 7, 32},
	} {
		got, err := s2.LoadTally(k.PlanKey, k.BaseSeed, k.Batch)
		if err != nil || len(got) != 0 {
			t.Fatalf("key %v: got %v, %v; want empty", k, got, err)
		}
	}
}

func TestStoreAppendExtends(t *testing.T) {
	s, _ := Open(t.TempDir())
	if err := s.AppendTally(testPlanKey, 1, 32, 0, tb(32, 4)); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendTally(testPlanKey, 1, 32, 32, tb(32, 6, 16, 2)); err != nil {
		t.Fatal(err)
	}
	got, _ := s.LoadTally(testPlanKey, 1, 32)
	if want := tb(32, 4, 32, 6, 16, 2); !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestStoreRewindSupersedesTail(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	// A short budget leaves a tail bucket of 20; a later, larger run
	// re-simulates from trial 64 at full batch granularity and must win.
	if err := s.AppendTally(testPlanKey, 1, 32, 0, tb(32, 4, 32, 6, 20, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendTally(testPlanKey, 1, 32, 64, tb(32, 5, 32, 7)); err != nil {
		t.Fatal(err)
	}
	want := tb(32, 4, 32, 6, 32, 5, 32, 7)
	got, _ := s.LoadTally(testPlanKey, 1, 32)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("in-memory rewind: got %v want %v", got, want)
	}
	// The log itself stays append-only; the rewind must replay on reload.
	s2, _ := Open(dir)
	got, _ = s2.LoadTally(testPlanKey, 1, 32)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reloaded rewind: got %v want %v", got, want)
	}
	if st := s2.Stats(); st.Rewinds != 1 || st.CorruptRecordsSkipped != 0 {
		t.Fatalf("stats after reload: %+v", st)
	}
}

// TestSpliceAt pins the one contiguity rule every tally store keeps: an
// append at the end keeps everything, a record at an earlier bucket
// boundary keeps the buckets before it, anything else is refused.
func TestSpliceAt(t *testing.T) {
	stored := tb(32, 4, 32, 6, 4, 1) // bucket boundaries 0, 32, 64, 68
	cases := []struct {
		start, keep int
		ok          bool
	}{
		{68, 3, true}, // append at the end
		{64, 2, true}, // rewind over the short tail
		{32, 1, true},
		{0, 0, true}, // supersede the whole stream
		{10, 0, false},
		{66, 0, false}, // inside the tail bucket
		{69, 0, false}, // a gap past the end
	}
	for _, c := range cases {
		keep, err := SpliceAt(stored, c.start)
		if (err == nil) != c.ok || keep != c.keep {
			t.Errorf("start %d: keep=%d err=%v, want keep=%d ok=%v", c.start, keep, err, c.keep, c.ok)
		}
	}
	if keep, err := SpliceAt(nil, 0); keep != 0 || err != nil {
		t.Errorf("empty stream at 0: keep=%d err=%v", keep, err)
	}
	if _, err := SpliceAt(nil, 32); err == nil {
		t.Error("empty stream accepted a record at 32")
	}
}

func TestStoreRejectsGapAndMisalignedStart(t *testing.T) {
	s, _ := Open(t.TempDir())
	if err := s.AppendTally(testPlanKey, 1, 32, 0, tb(32, 4, 32, 6)); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendTally(testPlanKey, 1, 32, 96, tb(32, 4)); err == nil {
		t.Fatal("gap append accepted")
	}
	if err := s.AppendTally(testPlanKey, 1, 32, 10, tb(32, 4)); err == nil {
		t.Fatal("mid-bucket append accepted")
	}
	if err := s.AppendTally(testPlanKey, 1, 32, -1, tb(32, 4)); err == nil {
		t.Fatal("negative start accepted")
	}
	if err := s.AppendTally(testPlanKey, 1, 32, 64, tb(32, 40)); err == nil {
		t.Fatal("successes > trials accepted")
	}
	if err := s.AppendTally(testPlanKey, 1, 32, 64, tb(0, 0)); err == nil {
		t.Fatal("empty bucket accepted")
	}
	if st := s.Stats(); st.AppendErrors != 5 {
		t.Fatalf("append_errors = %d, want 5", st.AppendErrors)
	}
	// The rejected appends must not have disturbed the stored state.
	got, _ := s.LoadTally(testPlanKey, 1, 32)
	if want := tb(32, 4, 32, 6); !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

// TestStoreCrashTruncation is the crash-recovery battery: a segment cut
// off at EVERY byte offset of its final frame (and a few before it) must
// reopen to an intact prefix — never an error, never a wrong tally — and
// appending the missing suffix must reconstruct a byte-identical state
// to the uninterrupted run.
func TestStoreCrashTruncation(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	first := tb(32, 4, 32, 6)
	second := tb(32, 5, 32, 7)
	if err := s.AppendTally(testPlanKey, 9, 32, 0, first); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, Key{testPlanKey, 9, 32}.filename())
	cut, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	prefixLen := len(cut) // bytes through the end of the first record
	if err := s.AppendTally(testPlanKey, 9, 32, 64, second); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) <= prefixLen {
		t.Fatalf("second append added no bytes (%d -> %d)", prefixLen, len(full))
	}
	want := append(append([]faultcast.TallyBucket{}, first...), second...)

	for n := 0; n <= len(full); n++ {
		if err := os.WriteFile(path, full[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, _ := Open(dir)
		got, err := s2.LoadTally(testPlanKey, 9, 32)
		if err != nil {
			t.Fatalf("truncate at %d: load error %v", n, err)
		}
		switch {
		case n == len(full):
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("truncate at %d (complete): got %v want %v", n, got, want)
			}
			continue
		case n >= prefixLen:
			// The last frame is torn: the first record must survive whole.
			if !reflect.DeepEqual(got, first) {
				t.Fatalf("truncate at %d: got %v want first record %v", n, got, first)
			}
		default:
			// Torn inside the header or first record: empty is the only
			// correct answer (never a partial bucket).
			if len(got) != 0 {
				t.Fatalf("truncate at %d: got %v want empty", n, got)
			}
		}
		// Refinement after the crash: re-append what the load lost plus
		// the suffix. The final state must be identical to a run that was
		// never interrupted.
		start := 0
		for _, b := range got {
			start += b.Trials
		}
		covered := 0
		var missing []faultcast.TallyBucket
		for _, b := range want {
			if covered >= start {
				missing = append(missing, b)
			}
			covered += b.Trials
		}
		if err := s2.AppendTally(testPlanKey, 9, 32, start, missing); err != nil {
			t.Fatalf("truncate at %d: refine append: %v", n, err)
		}
		s3, _ := Open(dir)
		got, _ = s3.LoadTally(testPlanKey, 9, 32)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("truncate at %d: refined state %v, want %v", n, got, want)
		}
		if st := s3.Stats(); st.CorruptRecordsSkipped != 0 {
			t.Fatalf("truncate at %d: refined file still corrupt: %+v", n, st)
		}
	}
}

func TestStoreBitFlipSkipsSuffixNeverFails(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	first := tb(32, 4)
	if err := s.AppendTally(testPlanKey, 3, 32, 0, first); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, Key{testPlanKey, 3, 32}.filename())
	prefix, _ := os.ReadFile(path)
	if err := s.AppendTally(testPlanKey, 3, 32, 32, tb(32, 6)); err != nil {
		t.Fatal(err)
	}
	full, _ := os.ReadFile(path)

	// Flip one bit in every byte of the second record's frame: the CRC
	// must catch each one, the first record must always survive.
	for i := len(prefix); i < len(full); i++ {
		mut := append([]byte{}, full...)
		mut[i] ^= 0x40
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		s2, _ := Open(dir)
		got, err := s2.LoadTally(testPlanKey, 3, 32)
		if err != nil {
			t.Fatalf("flip at %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, first) {
			t.Fatalf("flip at %d: got %v want %v", i, got, first)
		}
		if st := s2.Stats(); st.CorruptRecordsSkipped != 1 {
			t.Fatalf("flip at %d: corrupt_records_skipped = %d, want 1", i, st.CorruptRecordsSkipped)
		}
	}

	// Garbage prepended where the magic should be: whole file skipped,
	// counted, and the next append starts the segment over.
	if err := os.WriteFile(path, []byte("not a tally segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	s3, _ := Open(dir)
	got, err := s3.LoadTally(testPlanKey, 3, 32)
	if err != nil || len(got) != 0 {
		t.Fatalf("garbage file: got %v, %v", got, err)
	}
	if err := s3.AppendTally(testPlanKey, 3, 32, 0, first); err != nil {
		t.Fatal(err)
	}
	s4, _ := Open(dir)
	got, _ = s4.LoadTally(testPlanKey, 3, 32)
	if !reflect.DeepEqual(got, first) {
		t.Fatalf("after restart-over: got %v want %v", got, first)
	}
}

func TestStoreHeaderMismatchInvalidatesFile(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	if err := s.AppendTally(testPlanKey, 5, 32, 0, tb(32, 4)); err != nil {
		t.Fatal(err)
	}
	// Rename the segment so its filename claims a different key; the
	// embedded header must win and the file must load as empty for the
	// claimed key.
	oldPath := filepath.Join(dir, Key{testPlanKey, 5, 32}.filename())
	newKey := Key{"deadbeef", 5, 32}
	if err := os.Rename(oldPath, filepath.Join(dir, newKey.filename())); err != nil {
		t.Fatal(err)
	}
	s2, _ := Open(dir)
	got, err := s2.LoadTally(newKey.PlanKey, newKey.BaseSeed, newKey.Batch)
	if err != nil || len(got) != 0 {
		t.Fatalf("mismatched header: got %v, %v; want empty", got, err)
	}
	if st := s2.Stats(); st.CorruptRecordsSkipped != 1 {
		t.Fatalf("corrupt_records_skipped = %d, want 1", st.CorruptRecordsSkipped)
	}
}

func TestStoreFilenameSafety(t *testing.T) {
	for _, k := range []Key{
		{"../../etc/passwd", 1, 32},
		{"", 1, 32},
		{"UPPER", 1, 32},
		{"abc/def", 1, 32},
		{testPlanKey + testPlanKey + testPlanKey, 1, 32},
	} {
		name := k.filename()
		if filepath.Base(name) != name || filepath.IsAbs(name) {
			t.Fatalf("key %q escapes the directory: %q", k.PlanKey, name)
		}
		for _, r := range name {
			ok := r >= '0' && r <= '9' || r >= 'a' && r <= 'z' || r == '-' || r == '.'
			if !ok {
				t.Fatalf("key %q: unsafe rune %q in filename %q", k.PlanKey, r, name)
			}
		}
	}
	// Distinct hostile keys must not collide.
	a := Key{"../a", 1, 32}.filename()
	b := Key{"../b", 1, 32}.filename()
	if a == b {
		t.Fatalf("hostile keys collide on %q", a)
	}
	// Round-trip: a hostile key's file still loads under its own key,
	// because identity lives in the header, not the filename.
	dir := t.TempDir()
	s, _ := Open(dir)
	if err := s.AppendTally("../a", 1, 32, 0, tb(32, 4)); err != nil {
		t.Fatal(err)
	}
	s2, _ := Open(dir)
	got, _ := s2.LoadTally("../a", 1, 32)
	if !reflect.DeepEqual(got, tb(32, 4)) {
		t.Fatalf("hostile key round-trip: got %v", got)
	}
}

func TestScanAndGC(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	if err := s.AppendTally("aa11", 1, 32, 0, tb(32, 4, 32, 6)); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendTally("bb22", 2, 64, 0, tb(64, 10)); err != nil {
		t.Fatal(err)
	}
	infos, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("Scan: %d segments, want 2", len(infos))
	}
	byKey := map[string]SegmentInfo{}
	for _, si := range infos {
		if !si.Clean() {
			t.Fatalf("segment %s not clean: %+v", si.Path, si)
		}
		byKey[si.PlanKey] = si
	}
	if si := byKey["aa11"]; si.BaseSeed != 1 || si.Batch != 32 || si.Buckets != 2 || si.Trials != 64 {
		t.Fatalf("aa11 info: %+v", si)
	}
	if si := byKey["bb22"]; si.BaseSeed != 2 || si.Batch != 64 || si.Buckets != 1 || si.Trials != 64 {
		t.Fatalf("bb22 info: %+v", si)
	}

	// Verify notices a torn tail.
	if err := os.WriteFile(byKey["aa11"].Path+".tmp", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(byKey["aa11"].Path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	infos, _ = Scan(dir)
	var dirty int
	for _, si := range infos {
		if !si.Clean() {
			dirty++
			if si.TailBytes == 0 && si.CorruptFrames == 0 {
				t.Fatalf("dirty segment reports clean fields: %+v", si)
			}
		}
	}
	if dirty != 1 {
		t.Fatalf("dirty = %d, want 1", dirty)
	}

	// Age GC: make aa11 old, keep bb22 fresh.
	old := time.Now().Add(-48 * time.Hour)
	if err := os.Chtimes(byKey["aa11"].Path, old, old); err != nil {
		t.Fatal(err)
	}
	removed, err := GC(dir, 24*time.Hour, 0, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0].PlanKey != "aa11" {
		t.Fatalf("age GC removed %+v", removed)
	}
	// Size GC: a 1-byte cap must remove the remaining segment.
	removed, err = GC(dir, 0, 1, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0].PlanKey != "bb22" {
		t.Fatalf("size GC removed %+v", removed)
	}
	infos, _ = Scan(dir)
	if len(infos) != 0 {
		t.Fatalf("segments after GC: %d", len(infos))
	}
}
