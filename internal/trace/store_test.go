package trace

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

// writeStore encodes recs as a TCSTORE1 byte image.
func writeStore(t testing.TB, recs []Record, opts StoreOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := WriteStore(&buf, NewSliceSource(recs), opts)
	if err != nil {
		t.Fatalf("WriteStore: %v", err)
	}
	if n != int64(len(recs)) {
		t.Fatalf("WriteStore wrote %d records, want %d", n, len(recs))
	}
	return buf.Bytes()
}

func openStore(t testing.TB, img []byte, cacheBytes int64) *Store {
	t.Helper()
	s, err := OpenStore(bytes.NewReader(img), int64(len(img)), cacheBytes)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	return s
}

func TestStoreRoundTrip(t *testing.T) {
	// A partial final group and a partial final block, to cover both
	// boundary shapes.
	recs := randomRecords(2*BlockLen+2*BlockLen+BlockLen/2+17, 21)
	for _, tc := range []struct {
		name string
		opts StoreOptions
	}{
		{"raw", StoreOptions{GroupRecords: 2 * BlockLen}},
		{"flate", StoreOptions{Compress: true, GroupRecords: 2 * BlockLen}},
		{"default-group", StoreOptions{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img := writeStore(t, recs, tc.opts)
			s := openStore(t, img, 0)
			if s.Len() != int64(len(recs)) {
				t.Fatalf("Len = %d, want %d", s.Len(), len(recs))
			}
			if s.Compressed() != tc.opts.Compress {
				t.Fatalf("Compressed = %v", s.Compressed())
			}
			got := Collect(s.Open())
			if len(got) != len(recs) {
				t.Fatalf("decoded %d records, want %d", len(got), len(recs))
			}
			for i := range recs {
				if got[i] != recs[i] {
					t.Fatalf("record %d: got %+v, want %+v", i, got[i], recs[i])
				}
			}
			// BlockAt must match the in-memory Blocks decomposition
			// block-for-block (the layout invariant kernels rely on).
			bs := Capture(NewSliceSource(recs)).Blocks()
			if s.NumBlocks() != bs.NumBlocks() {
				t.Fatalf("NumBlocks = %d, want %d", s.NumBlocks(), bs.NumBlocks())
			}
			for bi := 0; bi < bs.NumBlocks(); bi++ {
				sb, err := s.BlockAt(bi)
				if err != nil {
					t.Fatalf("BlockAt(%d): %v", bi, err)
				}
				mb := bs.Block(bi)
				if sb.Len() != mb.Len() {
					t.Fatalf("block %d: len %d, want %d", bi, sb.Len(), mb.Len())
				}
				var a, b Record
				for i := 0; i < sb.Len(); i++ {
					sb.Record(i, &a)
					mb.Record(i, &b)
					if a != b {
						t.Fatalf("block %d record %d: got %+v, want %+v", bi, i, a, b)
					}
				}
			}
		})
	}
}

func TestStoreEmpty(t *testing.T) {
	img := writeStore(t, nil, StoreOptions{})
	s := openStore(t, img, 0)
	if s.Len() != 0 || s.NumBlocks() != 0 {
		t.Fatalf("empty store: Len=%d NumBlocks=%d", s.Len(), s.NumBlocks())
	}
	var r Record
	if s.Open().Next(&r) {
		t.Fatal("empty store produced a record")
	}
}

// TestStoreDamage flips bits and truncates a store image, asserting the
// reader's contract: no panic, and either the file is rejected with
// ErrCorrupt (at open or at first damaged group) or every record still
// reads back exactly — damage is never silently misread.
func TestStoreDamage(t *testing.T) {
	recs := randomRecords(3*BlockLen+100, 5)
	for _, compress := range []bool{false, true} {
		img := writeStore(t, recs, StoreOptions{Compress: compress, GroupRecords: BlockLen})

		check := func(t *testing.T, damaged []byte) {
			s, err := OpenStore(bytes.NewReader(damaged), int64(len(damaged)), 0)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("open error does not wrap ErrCorrupt: %v", err)
				}
				return
			}
			src := s.Open()
			var got []Record
			var r Record
			for src.Next(&r) {
				got = append(got, r)
			}
			if err := SourceErr(src); err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("read error does not wrap ErrCorrupt: %v", err)
				}
				return
			}
			if len(got) != len(recs) {
				t.Fatalf("damaged store read cleanly but returned %d records, want %d", len(got), len(recs))
			}
			for i := range recs {
				if got[i] != recs[i] {
					t.Fatalf("damaged store read cleanly but record %d differs", i)
				}
			}
		}

		// Every byte of the magic, index and footer; a stride through the
		// group payloads and CRCs.
		var offs []int
		for o := 0; o < 8 && o < len(img); o++ {
			offs = append(offs, o)
		}
		for o := len(img) - storeFooterLen - 4*storeIndexEntryLen; o < len(img); o++ {
			if o >= 0 {
				offs = append(offs, o)
			}
		}
		for o := 8; o < len(img); o += 499 {
			offs = append(offs, o)
		}
		for _, o := range offs {
			for _, bit := range []byte{0x01, 0x80} {
				flipped := append([]byte(nil), img...)
				flipped[o] ^= bit
				check(t, flipped)
			}
		}
		for _, cut := range []int{0, 7, 8, len(img) / 3, len(img) - storeFooterLen, len(img) - 1} {
			if cut >= 0 && cut <= len(img) {
				check(t, img[:cut])
			}
		}
	}
}

func TestStoreLRUCache(t *testing.T) {
	recs := randomRecords(4*BlockLen, 9)
	img := writeStore(t, recs, StoreOptions{GroupRecords: BlockLen})
	// Cache sized for exactly the first two decoded groups (one block
	// each), whose charge depends on which of their blocks are wide.
	probe := openStore(t, img, 0)
	var two int64
	for gi := 0; gi < 2; gi++ {
		_, n, err := probe.decodeGroup(gi)
		if err != nil {
			t.Fatal(err)
		}
		two += n
	}
	s := openStore(t, img, two)

	readBlock := func(i int) {
		if _, err := s.BlockAt(i); err != nil {
			t.Fatalf("BlockAt(%d): %v", i, err)
		}
	}
	readBlock(0) // miss
	readBlock(0) // hit
	readBlock(1) // miss
	readBlock(2) // miss, evicts group 0
	readBlock(0) // miss again
	st := s.CacheStats()
	if st.Hits != 1 || st.Misses != 4 || st.Evictions < 1 {
		t.Fatalf("cache stats %+v, want 1 hit, 4 misses, >=1 eviction", st)
	}

	// Concurrent readers over a thrashing cache: under -race this pins
	// that eviction never invalidates blocks another goroutine holds.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				for bi := 0; bi < s.NumBlocks(); bi++ {
					i := bi
					if g%2 == 1 {
						i = s.NumBlocks() - 1 - bi
					}
					blk, err := s.BlockAt(i)
					if err != nil {
						t.Errorf("BlockAt(%d): %v", i, err)
						return
					}
					var r Record
					blk.Record(0, &r)
					if r.PC != recs[i*BlockLen].PC {
						t.Errorf("block %d: pc %#x, want %#x", i, r.PC, recs[i*BlockLen].PC)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestStoreBadGroupSize(t *testing.T) {
	if _, err := WriteStore(&bytes.Buffer{}, NewSliceSource(nil), StoreOptions{GroupRecords: 100}); err == nil {
		t.Fatal("WriteStore accepted a group size that is not a block multiple")
	}
}

func TestWriteStorePropagatesSourceError(t *testing.T) {
	recs := randomRecords(BlockLen, 3)
	rep := Capture(NewSliceSource(recs))
	buf := rep.Bytes()
	damaged := NewReplayBytes(buf[:len(buf)/2], rep.Len())
	var out bytes.Buffer
	if _, err := WriteStore(&out, damaged.Open(), StoreOptions{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("WriteStore over damaged source: err=%v, want ErrCorrupt", err)
	}
}

func TestConsumeBatchesMatchesConsume(t *testing.T) {
	recs := randomRecords(2*BlockLen+345, 13)
	rep := Capture(NewSliceSource(recs))
	want := NewStats().Consume(rep.Open())

	img := writeStore(t, recs, StoreOptions{Compress: true, GroupRecords: BlockLen})
	s := openStore(t, img, 0)
	got, err := NewStats().ConsumeBatches(s, 0)
	if err != nil {
		t.Fatalf("ConsumeBatches: %v", err)
	}
	if *sumStats(got) != *sumStats(want) {
		t.Fatalf("stats differ: got %+v, want %+v", sumStats(got), sumStats(want))
	}
	if got.StaticIndJumps() != want.StaticIndJumps() {
		t.Fatalf("static ind jumps %d, want %d", got.StaticIndJumps(), want.StaticIndJumps())
	}

	// A limit stops exactly at the requested record count.
	limited, err := NewStats().ConsumeBatches(s, BlockLen+7)
	if err != nil {
		t.Fatalf("ConsumeBatches limited: %v", err)
	}
	if limited.Instructions != BlockLen+7 {
		t.Fatalf("limited Instructions = %d, want %d", limited.Instructions, BlockLen+7)
	}

	// A damaged capture yields its clean prefix, erroring only when the
	// limit reaches past it.
	buf := rep.Bytes()
	damaged := NewReplayBytes(buf[:len(buf)-20], rep.Len())
	clean := damaged.CleanLen()
	if clean >= rep.Len() || clean == 0 {
		t.Fatalf("damaged capture clean length %d of %d", clean, rep.Len())
	}
	if _, err := NewStats().ConsumeBatches(damaged, clean); err != nil {
		t.Fatalf("ConsumeBatches within clean prefix: %v", err)
	}
	if _, err := NewStats().ConsumeBatches(damaged, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ConsumeBatches past clean prefix: err=%v, want ErrCorrupt", err)
	}
}

// sumStats projects the comparable scalar fields.
func sumStats(s *Stats) *struct {
	I, B, C, U, Ca, R, IJ int64
	Op                    [NumOpClasses]int64
} {
	return &struct {
		I, B, C, U, Ca, R, IJ int64
		Op                    [NumOpClasses]int64
	}{s.Instructions, s.Branches, s.CondDirect, s.UncondDirect, s.Calls, s.Returns, s.IndJumps, s.OpMix}
}
