package store

import (
	"crypto/sha256"
	"encoding/binary"
	"hash/crc32"
	"os"

	"faultcast"
)

// The on-disk grammar of a segment file:
//
//	file   := magic frame(header) frame(record)*
//	frame  := len:u32le crc:u32le payload         (crc = CRC-32C of payload)
//	header := 'H' version:u32le batch:u32le baseSeed:u64le keyLen:u32le key
//	record := 'R' start:u64le count:u32le (trials:u32le successes:u32le)^count
//
// Every payload is independently checksummed, so a torn write, a
// bit-flip, or trailing garbage is detected at the frame where it
// happens and everything before it remains loadable. Records carry their
// absolute start trial: replay on load re-derives contiguity (and rewind
// supersedes) from the starts alone, so the log itself never needs an
// index or a compaction pass to stay correct.

const (
	magic         = "FCTALLY1"
	headerVersion = 1
	kindHeader    = 'H'
	kindRecord    = 'R'
	// maxFramePayload bounds a frame before allocation: a record of 2^20
	// buckets is far beyond any real estimate, and garbage lengths must
	// not drive giant allocations.
	maxFramePayload = 1 << 24
	// maxStart bounds a record's start trial to something addressable as
	// an int on every platform.
	maxStart = 1 << 50
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends one CRC frame holding payload to dst.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// readFrame decodes the frame at the head of b, returning its payload and
// total encoded size. ok=false on truncation, an insane length, or a CRC
// mismatch — the caller treats all three identically (stop, count).
func readFrame(b []byte) (payload []byte, size int, ok bool) {
	if len(b) < 8 {
		return nil, 0, false
	}
	n := binary.LittleEndian.Uint32(b)
	if n > maxFramePayload || int(n) > len(b)-8 {
		return nil, 0, false
	}
	payload = b[8 : 8+n]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(b[4:]) {
		return nil, 0, false
	}
	return payload, 8 + int(n), true
}

// encodeHeader serializes the segment's identity.
func encodeHeader(k Key) []byte {
	out := []byte{kindHeader}
	out = binary.LittleEndian.AppendUint32(out, headerVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(k.Batch))
	out = binary.LittleEndian.AppendUint64(out, k.BaseSeed)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(k.PlanKey)))
	return append(out, k.PlanKey...)
}

// decodeHeader parses a header payload.
func decodeHeader(p []byte) (Key, bool) {
	if len(p) < 21 || p[0] != kindHeader {
		return Key{}, false
	}
	if binary.LittleEndian.Uint32(p[1:]) != headerVersion {
		return Key{}, false
	}
	batch := binary.LittleEndian.Uint32(p[5:])
	seed := binary.LittleEndian.Uint64(p[9:])
	keyLen := binary.LittleEndian.Uint32(p[17:])
	if int(keyLen) != len(p)-21 {
		return Key{}, false
	}
	return Key{PlanKey: string(p[21:]), BaseSeed: seed, Batch: int(batch)}, true
}

// encodeRecord serializes one record: buckets covering trials
// [start, start+Σtrials).
func encodeRecord(start int, buckets []faultcast.TallyBucket) []byte {
	out := make([]byte, 0, 13+8*len(buckets))
	out = append(out, kindRecord)
	out = binary.LittleEndian.AppendUint64(out, uint64(start))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(buckets)))
	for _, b := range buckets {
		out = binary.LittleEndian.AppendUint32(out, uint32(b.Trials))
		out = binary.LittleEndian.AppendUint32(out, uint32(b.Successes))
	}
	return out
}

// decodeRecord parses and validates a record payload: exact length for
// its bucket count, a sane start, positive bucket sizes, successes
// within them. Any violation is corruption — a decoded record is always
// a tally some writer could legitimately have produced.
func decodeRecord(p []byte) (start int, buckets []faultcast.TallyBucket, ok bool) {
	if len(p) < 13 || p[0] != kindRecord {
		return 0, nil, false
	}
	s := binary.LittleEndian.Uint64(p[1:])
	count := binary.LittleEndian.Uint32(p[9:])
	if s > maxStart || count == 0 || len(p)-13 != 8*int(count) {
		return 0, nil, false
	}
	buckets = make([]faultcast.TallyBucket, count)
	off := 13
	for i := range buckets {
		trials := binary.LittleEndian.Uint32(p[off:])
		succ := binary.LittleEndian.Uint32(p[off+4:])
		if trials == 0 || succ > trials {
			return 0, nil, false
		}
		buckets[i] = faultcast.TallyBucket{Trials: int(trials), Successes: int(succ)}
		off += 8
	}
	return int(s), buckets, true
}

// loadResult is loadSegment's outcome: the decoded bucket state, the
// intact byte prefix, and what was lost getting there.
type loadResult struct {
	key     Key
	buckets []faultcast.TallyBucket
	end     int
	valid   int64
	corrupt int
	rewinds int
}

// loadSegment decodes the longest intact prefix of the segment at path.
// It never fails: a missing file is an empty segment, and the first bad
// frame (torn, bit-flipped, contiguity-breaking) stops the load with
// everything before it kept. When want is non-zero the header must match
// it exactly — a mismatch invalidates the whole file (valid=0), so the
// next append starts it over rather than mixing streams.
func loadSegment(path string, want Key) loadResult {
	res := loadResult{key: want}
	data, err := os.ReadFile(path)
	if err != nil {
		return res
	}
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		if len(data) > 0 {
			res.corrupt++
		}
		return res
	}
	off := int64(len(magic))
	payload, n, ok := readFrame(data[off:])
	if !ok {
		res.corrupt++
		return res
	}
	hk, ok := decodeHeader(payload)
	if !ok || (want != Key{} && hk != want) {
		res.corrupt++
		return res
	}
	res.key = hk
	off += int64(n)
	res.valid = off
	for off < int64(len(data)) {
		payload, n, ok := readFrame(data[off:])
		if !ok {
			res.corrupt++
			return res
		}
		start, buckets, ok := decodeRecord(payload)
		if !ok {
			res.corrupt++
			return res
		}
		keep, err := SpliceAt(res.buckets, start)
		if err != nil {
			res.corrupt++
			return res
		}
		if keep < len(res.buckets) {
			res.buckets = res.buckets[:keep:keep]
			res.end = start
			res.rewinds++
		}
		res.buckets = append(res.buckets, buckets...)
		for _, b := range buckets {
			res.end += b.Trials
		}
		off += int64(n)
		res.valid = off
	}
	return res
}

// hashString reduces an arbitrary plan key to a fixed filename-safe form.
func hashString(s string) [32]byte { return sha256.Sum256([]byte(s)) }
