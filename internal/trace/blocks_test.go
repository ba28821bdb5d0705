package trace_test

// Differential tests for the decode-once batched replay: a BatchCursor
// over Replay.Blocks() must be stream-for-stream interchangeable with a
// streaming Cursor over the same buffer — same records in order, and on a
// damaged buffer the same ErrCorrupt surfaced only after the cleanly
// decoded prefix. The capture-vs-decode test additionally pins that the
// Blocks a fresh capture builds inline are identical to what decodeBlocks
// recovers from the encoded buffer.

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// damagedVariants returns the intact buffer plus the damage shapes the
// fault-injection harness uses: truncations at interesting cuts, bit flips
// early/middle/late, and off-by-one record counts.
func damagedVariants(seed []byte, n int64) []struct {
	name string
	buf  []byte
	n    int64
} {
	var out []struct {
		name string
		buf  []byte
		n    int64
	}
	add := func(name string, buf []byte, n int64) {
		out = append(out, struct {
			name string
			buf  []byte
			n    int64
		}{name, buf, n})
	}
	add("intact", seed, n)
	for _, cut := range []int{0, 1, 4, len(seed) / 2, len(seed) - 1} {
		if cut >= 0 && cut <= len(seed) {
			add(fmt.Sprintf("cut%d", cut), append([]byte(nil), seed[:cut]...), n)
		}
	}
	for _, at := range []int{0, 5, 16, len(seed) / 2, len(seed) - 3} {
		if at >= 0 && at < len(seed) {
			flipped := append([]byte(nil), seed...)
			flipped[at] ^= 0x80
			add(fmt.Sprintf("flip%d", at), flipped, n)
		}
	}
	add("countShort", seed, n-1)
	add("countLong", seed, n+1)
	return out
}

// drainAll drains src, returning the records and the final error.
func drainAll(src trace.Source) ([]trace.Record, error) {
	var recs []trace.Record
	var r trace.Record
	for src.Next(&r) {
		recs = append(recs, r)
	}
	return recs, trace.SourceErr(src)
}

// assertSameStream asserts the two decoders produced identical record
// streams and identical errors (both nil, or equal messages both wrapping
// ErrCorrupt).
func assertSameStream(t *testing.T, cRecs, bRecs []trace.Record, cErr, bErr error) {
	t.Helper()
	if len(cRecs) != len(bRecs) {
		t.Fatalf("cursor decoded %d records, batch cursor %d", len(cRecs), len(bRecs))
	}
	for i := range cRecs {
		if cRecs[i] != bRecs[i] {
			t.Fatalf("record %d differs:\n  cursor %+v\n  batch  %+v", i, cRecs[i], bRecs[i])
		}
	}
	switch {
	case cErr == nil && bErr == nil:
	case cErr == nil || bErr == nil:
		t.Fatalf("error mismatch: cursor %v, batch cursor %v", cErr, bErr)
	default:
		if !errors.Is(cErr, trace.ErrCorrupt) || !errors.Is(bErr, trace.ErrCorrupt) {
			t.Fatalf("errors do not wrap ErrCorrupt: cursor %v, batch cursor %v", cErr, bErr)
		}
		if cErr.Error() != bErr.Error() {
			t.Fatalf("error text differs:\n  cursor %v\n  batch  %v", cErr, bErr)
		}
	}
}

// TestBatchCursorMatchesCursor runs the streaming and batched decoders
// over real workload captures and their damaged variants, requiring
// identical record streams and identical failure reporting.
func TestBatchCursorMatchesCursor(t *testing.T) {
	for _, name := range []string{"gcc", "go"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		rep := trace.Capture(trace.NewLimit(w.Open(), 4_000))
		for _, v := range damagedVariants(rep.Bytes(), rep.Len()) {
			t.Run(name+"/"+v.name, func(t *testing.T) {
				vr := trace.NewReplayBytes(v.buf, v.n)
				cRecs, cErr := drainAll(vr.Open())
				bRecs, bErr := drainAll(vr.Blocks().Open())
				assertSameStream(t, cRecs, bRecs, cErr, bErr)
			})
		}
	}
}

// TestCaptureBlocksMatchDecode pins the capture-time block builder against
// decodeBlocks: the Blocks a fresh capture carries must be
// record-for-record identical to decoding its encoded buffer from scratch.
func TestCaptureBlocksMatchDecode(t *testing.T) {
	for _, budget := range []int64{0, 1, 100, trace.BlockLen, trace.BlockLen + 1, 10_000} {
		t.Run(fmt.Sprint(budget), func(t *testing.T) {
			w, err := workload.ByName("perl")
			if err != nil {
				t.Fatal(err)
			}
			rep := trace.CaptureSized(trace.NewLimit(w.Open(), budget), budget)
			built := rep.Blocks()
			decoded := trace.NewReplayBytes(rep.Bytes(), rep.Len()).Blocks()
			if built.Len() != decoded.Len() {
				t.Fatalf("built %d records, decoded %d", built.Len(), decoded.Len())
			}
			if built.NumBlocks() != decoded.NumBlocks() {
				t.Fatalf("built %d blocks, decoded %d", built.NumBlocks(), decoded.NumBlocks())
			}
			if built.Err() != nil || decoded.Err() != nil {
				t.Fatalf("clean capture reported errors: built %v, decoded %v", built.Err(), decoded.Err())
			}
			var br, dr trace.Record
			for bi := 0; bi < built.NumBlocks(); bi++ {
				b, d := built.Block(bi), decoded.Block(bi)
				if b.Len() != d.Len() {
					t.Fatalf("block %d: built len %d, decoded len %d", bi, b.Len(), d.Len())
				}
				for i := 0; i < b.Len(); i++ {
					b.Record(i, &br)
					d.Record(i, &dr)
					if br != dr {
						t.Fatalf("block %d record %d differs:\n  built   %+v\n  decoded %+v", bi, i, br, dr)
					}
				}
			}
		})
	}
}

// TestBlocksAccessors pins the Meta byte accessors against full Record
// materialization.
func TestBlocksAccessors(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	bs := trace.Capture(trace.NewLimit(w.Open(), 4_000)).Blocks()
	var r trace.Record
	for bi := 0; bi < bs.NumBlocks(); bi++ {
		blk := bs.Block(bi)
		for i := 0; i < blk.Len(); i++ {
			blk.Record(i, &r)
			if blk.Class(i) != r.Class || blk.Op(i) != r.Op || blk.Taken(i) != r.Taken {
				t.Fatalf("block %d record %d: accessors (%v,%v,%v) disagree with Record %+v",
					bi, i, blk.Class(i), blk.Op(i), blk.Taken(i), r)
			}
		}
	}
}

// FuzzBlocks feeds arbitrary buffers and record counts to both decoders,
// asserting they never panic and never disagree.
func FuzzBlocks(f *testing.F) {
	w, err := workload.ByName("go")
	if err != nil {
		f.Fatal(err)
	}
	rep := trace.Capture(trace.NewLimit(w.Open(), 4_000))
	seed := rep.Bytes()
	for _, v := range damagedVariants(seed, rep.Len()) {
		f.Add(v.buf, v.n)
	}
	// Values of 2^32 and above: one wide record mid-block, and every
	// record relocated above 4 GiB, so the decoder's wide fallback is in
	// the corpus.
	for _, recs := range wideSeedRecords(trace.Collect(trace.NewLimit(w.Open(), 4_000))) {
		wide := trace.Capture(trace.NewSliceSource(recs))
		for _, v := range damagedVariants(wide.Bytes(), wide.Len()) {
			f.Add(v.buf, v.n)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, n int64) {
		vr := trace.NewReplayBytes(data, n)
		cRecs, cErr := drainAll(vr.Open())
		bRecs, bErr := drainAll(vr.Blocks().Open())
		assertSameStream(t, cRecs, bRecs, cErr, bErr)
	})
}

// wideSeedRecords returns two variants of recs that need wide columns:
// one record in the middle rewritten to an indirect jump between
// addresses above 4 GiB, and every PC, target and address moved up by
// 2^32.
func wideSeedRecords(recs []trace.Record) [][]trace.Record {
	mid := append([]trace.Record(nil), recs...)
	mid[len(mid)/2] = trace.Record{PC: 1<<40 + 0x100, Target: 1<<33 + 0x40, Addr: 1 << 32, Class: trace.ClassIndJump, Op: trace.OpBranch, Taken: true}
	high := append([]trace.Record(nil), recs...)
	for i := range high {
		high[i].PC += 1 << 32
		if high[i].Target != 0 {
			high[i].Target += 1 << 32
		}
		if high[i].Addr != 0 {
			high[i].Addr += 1 << 32
		}
	}
	return [][]trace.Record{mid, high}
}
