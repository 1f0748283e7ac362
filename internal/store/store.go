// Package store is the durable, content-addressed tally store: an
// append-only, disk-backed log of per-batch trial tallies keyed by the
// seed-less plan fingerprint + base seed + batch size — the exact triple
// that makes a trial stream bit-reproducible. Any stored prefix can seed
// the stopping-rule replay (faultcast's WithTallyStore, folding through
// stat.Fold), so a restarted daemon answers previously-served
// estimates with zero trials and a refinement simulates only the
// marginal batches, bit-identical to an uninterrupted run.
//
// On-disk layout: one segment file per key, named
// "<planKey>-<baseSeed>-<batch>.tally", holding an 8-byte magic followed
// by CRC-framed records (see codec.go). The file is only ever appended
// to (plus a truncate-to-valid-prefix before an append when a previous
// crash left a torn frame), so a reader can always recover the longest
// intact prefix: loading stops at the first truncated, bit-flipped, or
// inconsistent frame, counts it, and keeps everything before it.
//
// Rewind semantics make the log self-healing: a record whose start lies
// at an existing bucket boundary BEFORE the current end supersedes the
// buckets from that boundary on (the writer re-simulated a suffix at a
// different batch decomposition, e.g. after a short tail bucket from a
// smaller budget). A record starting anywhere else — inside a bucket, or
// past the end — breaks the contiguity contract and is treated exactly
// like corruption: skipped, counted, and the load stops there.
//
// A Store assumes single-process ownership of its directory (faultcastd
// takes one via -store=DIR); within the process every method is safe for
// concurrent use, with one mutex per segment so independent keys never
// serialize against each other.
package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"faultcast"
)

// segmentExt is the filename suffix of every segment file.
const segmentExt = ".tally"

// Store is the open tally store. Create with Open.
type Store struct {
	dir string

	mu       sync.Mutex
	segments map[string]*segment

	loads          atomic.Uint64
	trialsLoaded   atomic.Uint64
	appends        atomic.Uint64
	bucketsOut     atomic.Uint64
	trialsOut      atomic.Uint64
	appendErrors   atomic.Uint64
	rewinds        atomic.Uint64
	corruptRecords atomic.Uint64
}

// segment is the in-memory state of one key's log: the decoded bucket
// sequence and the byte length of the valid on-disk prefix. mu serializes
// load and append per key.
type segment struct {
	mu      sync.Mutex
	path    string
	key     Key
	loaded  bool
	buckets []faultcast.TallyBucket
	end     int   // total trials covered by buckets
	valid   int64 // byte length of the intact on-disk prefix
}

// Key identifies one segment: the seed-less plan fingerprint, the trial
// stream's base seed, and the batch (bucket) granularity.
type Key struct {
	PlanKey  string
	BaseSeed uint64
	Batch    int
}

func (k Key) String() string {
	return fmt.Sprintf("%s-%d-%d", k.PlanKey, k.BaseSeed, k.Batch)
}

// filename returns the segment file name for the key. Plan keys are
// 64-hex fingerprints in practice; anything else is defensively reduced
// to a safe charset so a hostile key can never escape the directory.
func (k Key) filename() string {
	name := k.PlanKey
	for _, r := range name {
		if !(r >= '0' && r <= '9' || r >= 'a' && r <= 'f') {
			name = fmt.Sprintf("x%x", name)
			break
		}
	}
	if name == "" || len(name) > 128 {
		name = fmt.Sprintf("x%x", hashString(k.PlanKey))
	}
	return fmt.Sprintf("%s-%d-%d%s", name, k.BaseSeed, k.Batch, segmentExt)
}

// Open opens (creating if needed) a tally store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir, segments: make(map[string]*segment)}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// seg returns (creating if needed) the segment state for key.
func (s *Store) seg(key Key) *segment {
	name := key.String()
	s.mu.Lock()
	defer s.mu.Unlock()
	if sg, ok := s.segments[name]; ok {
		return sg
	}
	sg := &segment{path: filepath.Join(s.dir, key.filename()), key: key}
	s.segments[name] = sg
	return sg
}

// ensureLoaded decodes the segment's on-disk prefix into memory. Never
// fails: a missing file is an empty segment, and any corruption is
// counted and truncated away at the next append. Called with sg.mu held.
func (s *Store) ensureLoaded(sg *segment) {
	if sg.loaded {
		return
	}
	res := loadSegment(sg.path, sg.key)
	sg.buckets = res.buckets
	sg.end = res.end
	sg.valid = res.valid
	sg.loaded = true
	if res.corrupt > 0 {
		s.corruptRecords.Add(uint64(res.corrupt))
	}
	s.rewinds.Add(uint64(res.rewinds))
}

// LoadTally returns the stored bucket sequence for the key — the longest
// intact, contiguous prefix of the key's trial stream, in trial order.
// The returned slice is the caller's to keep. A key with nothing stored
// returns an empty slice and no error; corruption is never an error
// either (the intact prefix is still good), only counted.
func (s *Store) LoadTally(planKey string, baseSeed uint64, batch int) ([]faultcast.TallyBucket, error) {
	sg := s.seg(Key{PlanKey: planKey, BaseSeed: baseSeed, Batch: batch})
	sg.mu.Lock()
	defer sg.mu.Unlock()
	s.ensureLoaded(sg)
	s.loads.Add(1)
	s.trialsLoaded.Add(uint64(sg.end))
	out := make([]faultcast.TallyBucket, len(sg.buckets))
	copy(out, sg.buckets)
	return out, nil
}

// AppendTally appends one record: buckets covering trials
// [start, start+Σtrials) of the key's stream, in trial order. start must
// be the segment's current end, or an existing bucket boundary before it
// (a rewind: the buckets from that boundary on are superseded — the
// append wins, because the writer just re-simulated that suffix). Any
// other start breaks contiguity and is rejected.
func (s *Store) AppendTally(planKey string, baseSeed uint64, batch int, start int, buckets []faultcast.TallyBucket) error {
	if len(buckets) == 0 {
		return nil
	}
	if err := checkBuckets(start, buckets); err != nil {
		s.appendErrors.Add(1)
		return fmt.Errorf("store: %w", err)
	}
	sg := s.seg(Key{PlanKey: planKey, BaseSeed: baseSeed, Batch: batch})
	sg.mu.Lock()
	defer sg.mu.Unlock()
	s.ensureLoaded(sg)

	keep, err := SpliceAt(sg.buckets, start)
	if err != nil {
		s.appendErrors.Add(1)
		return fmt.Errorf("store: segment %s: %w", sg.key, err)
	}
	if err := s.writeRecord(sg, start, buckets); err != nil {
		s.appendErrors.Add(1)
		return err
	}
	if keep < len(sg.buckets) {
		sg.buckets = sg.buckets[:keep:keep]
		s.rewinds.Add(1)
	}
	sg.buckets = append(sg.buckets, buckets...)
	sg.end = start
	for _, b := range buckets {
		sg.end += b.Trials
	}
	s.appends.Add(1)
	s.bucketsOut.Add(uint64(len(buckets)))
	s.trialsOut.Add(uint64(sg.end - start))
	return nil
}

// SpliceAt is the stream contiguity rule of every tally store, on disk
// (AppendTally, and loadSegment replaying the log) or in memory: a record
// starting at trial start either extends the stored bucket sequence at
// its end, or supersedes it from an earlier stored bucket boundary on (a
// rewind — the writer re-simulated that suffix at a different batch
// decomposition). It returns how many stored buckets the record keeps:
// all of them for an append, fewer for a rewind. Any other start — past
// the end, or inside a stored bucket — breaks contiguity and is an error.
func SpliceAt(stored []faultcast.TallyBucket, start int) (keep int, err error) {
	pos := 0
	for i, b := range stored {
		if pos >= start {
			break
		}
		pos += b.Trials
		keep = i + 1
	}
	switch {
	case pos == start:
		return keep, nil
	case pos < start:
		return 0, fmt.Errorf("record at trial %d leaves a gap (stream ends at %d)", start, pos)
	default:
		return 0, fmt.Errorf("record at trial %d is inside a stored bucket", start)
	}
}

// writeRecord persists one record frame at the end of the valid prefix,
// truncating any torn tail a crash left behind first (and rewriting the
// magic when the whole file was unusable). Called with sg.mu held.
func (s *Store) writeRecord(sg *segment, start int, buckets []faultcast.TallyBucket) error {
	f, err := os.OpenFile(sg.path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	if fi, err := f.Stat(); err != nil {
		return fmt.Errorf("store: %w", err)
	} else if fi.Size() != sg.valid {
		if err := f.Truncate(sg.valid); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	var out []byte
	if sg.valid == 0 {
		out = append(out, magic...)
		out = appendFrame(out, encodeHeader(sg.key))
	}
	out = appendFrame(out, encodeRecord(start, buckets))
	if _, err := f.WriteAt(out, sg.valid); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	sg.valid += int64(len(out))
	return nil
}

// checkBuckets validates a record before it is written: positive bucket
// sizes, successes within them, a non-negative start.
func checkBuckets(start int, buckets []faultcast.TallyBucket) error {
	if start < 0 {
		return fmt.Errorf("record starts at trial %d", start)
	}
	for i, b := range buckets {
		if b.Trials <= 0 || b.Successes < 0 || b.Successes > b.Trials {
			return fmt.Errorf("bucket %d has %d successes of %d trials", i, b.Successes, b.Trials)
		}
	}
	return nil
}

// Stats is the store's counter snapshot, surfaced under "store" in
// /v1/stats.
type Stats struct {
	Dir string `json:"dir"`
	// Segments is the number of keys touched since Open (loaded or
	// appended), not the on-disk file count — Scan gives that.
	Segments int `json:"segments"`
	// Loads counts LoadTally calls; TrialsLoaded sums the stored trials
	// they returned (the simulation work warm answers avoided re-running).
	Loads        uint64 `json:"loads"`
	TrialsLoaded uint64 `json:"trials_loaded"`
	// Appends counts persisted records; BucketsAppended / TrialsAppended
	// their contents. AppendErrors counts rejected or failed appends
	// (misaligned start, I/O failure) — the estimate that produced them
	// was still served, only its persistence was lost.
	Appends         uint64 `json:"appends"`
	BucketsAppended uint64 `json:"buckets_appended"`
	TrialsAppended  uint64 `json:"trials_appended"`
	AppendErrors    uint64 `json:"append_errors"`
	// Rewinds counts boundary-aligned supersedes (in memory or replayed
	// from disk); CorruptRecordsSkipped counts frames dropped as
	// truncated, bit-flipped, or contiguity-breaking — never fatal, the
	// intact prefix stays served.
	Rewinds               uint64 `json:"rewinds"`
	CorruptRecordsSkipped uint64 `json:"corrupt_records_skipped"`
}

// Stats snapshots the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	n := len(s.segments)
	s.mu.Unlock()
	return Stats{
		Dir:                   s.dir,
		Segments:              n,
		Loads:                 s.loads.Load(),
		TrialsLoaded:          s.trialsLoaded.Load(),
		Appends:               s.appends.Load(),
		BucketsAppended:       s.bucketsOut.Load(),
		TrialsAppended:        s.trialsOut.Load(),
		AppendErrors:          s.appendErrors.Load(),
		Rewinds:               s.rewinds.Load(),
		CorruptRecordsSkipped: s.corruptRecords.Load(),
	}
}

// SegmentInfo describes one on-disk segment, as reported by Scan —
// the shared engine of `faultcastctl store ls` and `... store verify`.
type SegmentInfo struct {
	Path     string    `json:"path"`
	PlanKey  string    `json:"plan_key"`
	BaseSeed uint64    `json:"base_seed"`
	Batch    int       `json:"batch"`
	Buckets  int       `json:"buckets"`
	Trials   int       `json:"trials"`
	Bytes    int64     `json:"bytes"`
	ModTime  time.Time `json:"mod_time"`
	// CorruptFrames counts frames the loader rejected; TailBytes is the
	// unusable byte count past the valid prefix (0 on a clean segment).
	CorruptFrames int   `json:"corrupt_frames,omitempty"`
	TailBytes     int64 `json:"tail_bytes,omitempty"`
}

// Clean reports whether every byte of the segment decoded.
func (si SegmentInfo) Clean() bool { return si.CorruptFrames == 0 && si.TailBytes == 0 }

// Scan reads every segment under dir and reports its decoded state. It
// works offline on the directory — no Store needed — so the CLI can
// inspect a daemon's store without the daemon.
func Scan(dir string) ([]SegmentInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: %w", err)
	}
	var out []SegmentInfo
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), segmentExt) {
			continue
		}
		path := filepath.Join(dir, e.Name())
		fi, err := e.Info()
		if err != nil {
			continue
		}
		res := loadSegment(path, Key{})
		info := SegmentInfo{
			Path:          path,
			PlanKey:       res.key.PlanKey,
			BaseSeed:      res.key.BaseSeed,
			Batch:         res.key.Batch,
			Buckets:       len(res.buckets),
			Trials:        res.end,
			Bytes:         fi.Size(),
			ModTime:       fi.ModTime(),
			CorruptFrames: res.corrupt,
			TailBytes:     fi.Size() - res.valid,
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// GC removes segments older than maxAge (by mtime; 0 = no age limit),
// then — oldest first — until the directory's segment bytes fit in
// maxBytes (0 = no size limit). It returns what it removed. Like Scan it
// works offline; running it against a live daemon's directory is safe in
// the crash sense (the daemon re-simulates and re-appends) but forfeits
// the removed prefixes, so prefer draining first.
func GC(dir string, maxAge time.Duration, maxBytes int64, now time.Time) ([]SegmentInfo, error) {
	infos, err := Scan(dir)
	if err != nil {
		return nil, err
	}
	var removed []SegmentInfo
	var total int64
	var live []SegmentInfo
	for _, si := range infos {
		if maxAge > 0 && now.Sub(si.ModTime) > maxAge {
			if err := os.Remove(si.Path); err != nil {
				return removed, fmt.Errorf("store: %w", err)
			}
			removed = append(removed, si)
			continue
		}
		total += si.Bytes
		live = append(live, si)
	}
	if maxBytes > 0 && total > maxBytes {
		sort.Slice(live, func(i, j int) bool { return live[i].ModTime.Before(live[j].ModTime) })
		for _, si := range live {
			if total <= maxBytes {
				break
			}
			if err := os.Remove(si.Path); err != nil {
				return removed, fmt.Errorf("store: %w", err)
			}
			total -= si.Bytes
			removed = append(removed, si)
		}
	}
	return removed, nil
}
