package trace_test

// Fuzz targets for the trace decoders, pinning down the failure contract
// of ErrCorrupt: on arbitrary input — including truncated and bit-flipped
// real captures, which the seed corpus is built from — a decoder must
// never panic, must report any failure as an ErrCorrupt-wrapped error,
// and must round-trip whatever it decodes cleanly.
//
// This file lives in an external test package so it can import
// internal/workload (which imports trace) to seed from real captured
// traces rather than synthetic records.

import (
	"bytes"
	"testing"

	"errors"

	"repro/internal/trace"
	"repro/internal/workload"
)

// captureSeed encodes a real workload's first few thousand instructions
// with enc and returns the file bytes.
func captureSeed(f *testing.F, name string, enc func(src trace.Source) ([]byte, error)) []byte {
	f.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		f.Fatal(err)
	}
	b, err := enc(trace.NewLimit(w.Open(), 4_000))
	if err != nil {
		f.Fatal(err)
	}
	return b
}

func encodeV1(src trace.Source) ([]byte, error) {
	var buf bytes.Buffer
	_, err := trace.Copy(trace.NewWriter(&buf), src)
	return buf.Bytes(), err
}

func encodeV2(src trace.Source) ([]byte, error) {
	var buf bytes.Buffer
	_, err := trace.CopyV2(trace.NewWriterV2(&buf), src)
	return buf.Bytes(), err
}

// addDamagedVariants seeds the corpus with the intact capture plus the
// damage shapes the harness injects: truncation at interesting cuts and a
// bit flip in the header, early, and late in the record stream.
func addDamagedVariants(f *testing.F, seed []byte) {
	f.Add(seed)
	for _, cut := range []int{0, 4, 8, len(seed) / 2, len(seed) - 1} {
		if cut >= 0 && cut <= len(seed) {
			f.Add(append([]byte(nil), seed[:cut]...))
		}
	}
	for _, at := range []int{5, 16, len(seed) / 2, len(seed) - 3} {
		if at >= 0 && at < len(seed) {
			flipped := append([]byte(nil), seed...)
			flipped[at] ^= 0x80
			f.Add(flipped)
		}
	}
}

// drain decodes src to exhaustion and asserts the decoder failure
// contract; it returns the cleanly decoded records.
func drain(t *testing.T, src trace.Source) []trace.Record {
	t.Helper()
	var recs []trace.Record
	var r trace.Record
	for src.Next(&r) {
		recs = append(recs, r)
	}
	if err := trace.SourceErr(src); err != nil && !errors.Is(err, trace.ErrCorrupt) {
		t.Fatalf("decode error does not wrap ErrCorrupt: %v", err)
	}
	if src.Next(&r) {
		t.Fatal("Next returned true after reporting end of stream")
	}
	return recs
}

// roundTrip re-encodes recs with enc, decodes the result with dec, and
// asserts the records survive unchanged: what a reader accepts must be
// exactly re-encodable.
func roundTrip(t *testing.T, recs []trace.Record, enc func(trace.Source) ([]byte, error), dec func([]byte) trace.Source) {
	t.Helper()
	b, err := enc(trace.NewSliceSource(recs))
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	src := dec(b)
	got := drain(t, src)
	if err := trace.SourceErr(src); err != nil {
		t.Fatalf("re-encoded stream does not decode: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("round trip decoded %d records, want %d", len(got), len(recs))
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Fatalf("record %d changed in round trip:\n  got  %+v\n  want %+v", i, got[i], recs[i])
		}
	}
}

func FuzzReaderV1(f *testing.F) {
	addDamagedVariants(f, captureSeed(f, "gcc", encodeV1))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := trace.NewReader(bytes.NewReader(data))
		recs := drain(t, src)
		if trace.SourceErr(src) == nil && len(recs) > 0 {
			roundTrip(t, recs, encodeV1, func(b []byte) trace.Source {
				return trace.NewReader(bytes.NewReader(b))
			})
		}
	})
}

func FuzzReaderV2(f *testing.F) {
	addDamagedVariants(f, captureSeed(f, "gcc", encodeV2))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := trace.NewReaderV2(bytes.NewReader(data))
		recs := drain(t, src)
		if trace.SourceErr(src) == nil && len(recs) > 0 {
			roundTrip(t, recs, encodeV2, func(b []byte) trace.Source {
				return trace.NewReaderV2(bytes.NewReader(b))
			})
		}
	})
}

// FuzzAutoReader hits the version sniffing plus whichever decoder it
// selects, so header damage (the one region the per-version fuzzers read
// through a fixed prefix) is explored too.
func FuzzAutoReader(f *testing.F) {
	addDamagedVariants(f, captureSeed(f, "perl", encodeV1))
	addDamagedVariants(f, captureSeed(f, "perl", encodeV2))
	f.Fuzz(func(t *testing.T, data []byte) {
		src, err := trace.NewAutoReader(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, trace.ErrCorrupt) {
				t.Fatalf("NewAutoReader error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		drain(t, src)
	})
}

// FuzzStore covers the out-of-core TCSTORE reader: arbitrary bytes —
// seeded with intact, truncated and bit-flipped images of a real capture,
// raw and compressed — must never panic, must reject damage with
// ErrCorrupt (at open or at the damaged group), and whatever reads
// cleanly must re-encode to the same record count.
func FuzzStore(f *testing.F) {
	w, err := workload.ByName("gcc")
	if err != nil {
		f.Fatal(err)
	}
	recs := trace.Collect(trace.NewLimit(w.Open(), 10_000))
	// The intact capture, then the variants whose values need wide
	// columns (2^32 and above).
	for _, rs := range append([][]trace.Record{recs}, wideSeedRecords(recs)...) {
		for _, compress := range []bool{false, true} {
			var buf bytes.Buffer
			if _, err := trace.WriteStore(&buf, trace.NewSliceSource(rs), trace.StoreOptions{
				Compress:     compress,
				GroupRecords: 4096,
			}); err != nil {
				f.Fatal(err)
			}
			addDamagedVariants(f, buf.Bytes())
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := trace.OpenStore(bytes.NewReader(data), int64(len(data)), 1<<20)
		if err != nil {
			if !errors.Is(err, trace.ErrCorrupt) {
				t.Fatalf("OpenStore error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		recs := drain(t, s.Open())
		if int64(len(recs)) == s.Len() {
			var out bytes.Buffer
			n, err := trace.WriteStore(&out, trace.NewSliceSource(recs), trace.StoreOptions{GroupRecords: 4096})
			if err != nil || n != s.Len() {
				t.Fatalf("re-encode: n=%d err=%v, want %d", n, err, s.Len())
			}
		}
	})
}

// FuzzCursor covers the in-memory replay decoder — the path the
// fault-injection harness corrupts — where the buffer carries no header
// and the record count is tracked out of band.
func FuzzCursor(f *testing.F) {
	w, err := workload.ByName("go")
	if err != nil {
		f.Fatal(err)
	}
	rep := trace.Capture(trace.NewLimit(w.Open(), 4_000))
	seed := rep.Bytes()
	for _, cut := range []int{0, 1, len(seed) / 2, len(seed) - 1} {
		f.Add(append([]byte(nil), seed[:cut]...), rep.Len())
	}
	f.Add(seed, rep.Len())
	f.Add(seed, rep.Len()+1)
	f.Add(seed, rep.Len()-1)
	flipped := append([]byte(nil), seed...)
	flipped[len(seed)/3] ^= 0xFF
	f.Add(flipped, rep.Len())
	f.Fuzz(func(t *testing.T, data []byte, n int64) {
		src := trace.NewReplayBytes(data, n).Open()
		recs := drain(t, src)
		if err := trace.SourceErr(src); err == nil && int64(len(recs)) != n {
			t.Fatalf("clean cursor decoded %d records, claimed %d", len(recs), n)
		}
	})
}
