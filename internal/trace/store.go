package trace

// Out-of-core columnar trace store: the TCSTORE1 on-disk format holds a
// capture as compressed (or raw) structure-of-arrays block groups in the
// Blocks column layout, value columns always uint64, so budgets far beyond
// RAM replay in flat memory. A Store reads groups lazily through an
// io.ReaderAt, decodes them into ordinary Blocks batches (narrow or wide
// per block, by the in-memory rule), and keeps a bounded LRU cache of
// decoded groups; the simulation kernels iterate it through the same
// BlockSource interface the in-memory path uses.
//
// File layout (all integers little-endian):
//
//	magic            8  bytes  "TCSTORE1"
//	group 0..G-1     per group: encoded payload | uint32 CRC32(payload)
//	index            per group: int64 offset | uint32 encLen | uint32 recs
//	footer          44  bytes  int64 indexOff | uint32 groups |
//	                           int64 totalRecs | uint32 flags |
//	                           uint32 blockLen | uint32 groupRecs |
//	                           uint32 CRC32(index) | 8 bytes "TCSTEND1"
//
// A group payload is, before optional compression:
//
//	uint32 recs | PC[recs]×8 | Target[recs]×8 | Addr[recs]×8 |
//	Meta[recs] | Dst[recs] | Src1[recs] | Src2[recs]
//
// Every byte of the file is covered by a check: group payloads and the
// index carry CRC32s, and the footer fields are cross-validated against
// the file size, the block layout constants, and each other. Damage never
// panics: it surfaces as an ErrCorrupt from OpenStore or from BlockAt on
// the affected group, mirroring the in-memory decoder's contract.

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

const (
	storeMagic    = "TCSTORE1"
	storeEndMagic = "TCSTEND1"
	// storeFooterLen is the fixed footer size.
	storeFooterLen = 8 + 4 + 8 + 4 + 4 + 4 + 4 + 8
	// storeIndexEntryLen is one index entry: offset, encoded length,
	// record count.
	storeIndexEntryLen = 8 + 4 + 4
	// storeFlagFlate marks flate-compressed group payloads.
	storeFlagFlate = 1 << 0
	// storeGroupRecords is the default records per group: 16 blocks,
	// ~1.8 MB of raw columns — large enough to amortise a read syscall,
	// small enough that a bounded cache holds tens of groups.
	storeGroupRecords = 16 * BlockLen
	// storeDefaultCacheBytes bounds the decoded-group LRU cache when the
	// caller passes no explicit budget.
	storeDefaultCacheBytes = 64 << 20
)

// storeRawBytesPerRecord is one record's footprint in a group payload:
// the on-disk layout always stores the value columns as uint64. A decoded
// group holds NarrowRecordBytes or WideRecordBytes per record, block by
// block, and the LRU cache charges that.
const storeRawBytesPerRecord = 3*8 + 4

// StoreOptions configure WriteStore.
type StoreOptions struct {
	// Compress flate-compresses every group payload. Decoding costs more
	// per cache miss; the file is typically 2-4× smaller.
	Compress bool
	// GroupRecords is the records per block group; 0 means the default
	// (16 blocks). It must be a positive multiple of BlockLen.
	GroupRecords int
}

// WriteStore drains src into w in the TCSTORE1 format and returns the
// record count written. The stream is written strictly forward (no
// seeking), so w can be a pipe or a growing file.
func WriteStore(w io.Writer, src Source, opts StoreOptions) (int64, error) {
	groupRecs := opts.GroupRecords
	if groupRecs == 0 {
		groupRecs = storeGroupRecords
	}
	if groupRecs <= 0 || groupRecs%BlockLen != 0 {
		return 0, fmt.Errorf("trace: store group size %d is not a positive multiple of %d", groupRecs, BlockLen)
	}
	sw := &storeWriter{
		w:         w,
		groupRecs: groupRecs,
		compress:  opts.Compress,
		pc:        make([]uint64, 0, groupRecs),
		target:    make([]uint64, 0, groupRecs),
		addr:      make([]uint64, 0, groupRecs),
		meta:      make([]uint8, 0, groupRecs),
		dst:       make([]uint8, 0, groupRecs),
		src1:      make([]uint8, 0, groupRecs),
		src2:      make([]uint8, 0, groupRecs),
	}
	if err := sw.writeRaw([]byte(storeMagic)); err != nil {
		return 0, err
	}
	var r Record
	for src.Next(&r) {
		if err := sw.add(&r); err != nil {
			return sw.n, err
		}
	}
	if err := SourceErr(src); err != nil {
		return sw.n, err
	}
	if err := sw.finish(); err != nil {
		return sw.n, err
	}
	return sw.n, nil
}

type storeGroupMeta struct {
	off    int64
	encLen uint32
	recs   uint32
}

type storeWriter struct {
	w         io.Writer
	off       int64
	n         int64
	groupRecs int
	compress  bool
	index     []storeGroupMeta

	pc, target, addr      []uint64
	meta, dst, src1, src2 []uint8
	payload, encoded      []byte
	flateW                *flate.Writer
}

func (sw *storeWriter) writeRaw(b []byte) error {
	n, err := sw.w.Write(b)
	sw.off += int64(n)
	return err
}

func (sw *storeWriter) add(r *Record) error {
	sw.pc = append(sw.pc, r.PC)
	sw.target = append(sw.target, r.Target)
	sw.addr = append(sw.addr, r.Addr)
	mb := uint8(r.Class) | uint8(r.Op)<<MetaOpShift
	if r.Taken {
		mb |= MetaTaken
	}
	sw.meta = append(sw.meta, mb)
	sw.dst = append(sw.dst, r.Dst)
	sw.src1 = append(sw.src1, r.Src1)
	sw.src2 = append(sw.src2, r.Src2)
	sw.n++
	if len(sw.meta) == sw.groupRecs {
		return sw.flushGroup()
	}
	return nil
}

// flushGroup encodes the pending records as one group and writes it.
func (sw *storeWriter) flushGroup() error {
	recs := len(sw.meta)
	if recs == 0 {
		return nil
	}
	raw := sw.payload[:0]
	raw = binary.LittleEndian.AppendUint32(raw, uint32(recs))
	for _, v := range sw.pc {
		raw = binary.LittleEndian.AppendUint64(raw, v)
	}
	for _, v := range sw.target {
		raw = binary.LittleEndian.AppendUint64(raw, v)
	}
	for _, v := range sw.addr {
		raw = binary.LittleEndian.AppendUint64(raw, v)
	}
	raw = append(raw, sw.meta...)
	raw = append(raw, sw.dst...)
	raw = append(raw, sw.src1...)
	raw = append(raw, sw.src2...)
	sw.payload = raw

	enc := raw
	if sw.compress {
		var buf bytes.Buffer
		buf.Grow(len(raw) / 2)
		if sw.flateW == nil {
			zw, err := flate.NewWriter(&buf, flate.BestSpeed)
			if err != nil {
				return err
			}
			sw.flateW = zw
		} else {
			sw.flateW.Reset(&buf)
		}
		if _, err := sw.flateW.Write(raw); err != nil {
			return err
		}
		if err := sw.flateW.Close(); err != nil {
			return err
		}
		sw.encoded = buf.Bytes()
		enc = sw.encoded
	}

	sw.index = append(sw.index, storeGroupMeta{off: sw.off, encLen: uint32(len(enc)), recs: uint32(recs)})
	if err := sw.writeRaw(enc); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(enc))
	if err := sw.writeRaw(crc[:]); err != nil {
		return err
	}
	sw.pc, sw.target, sw.addr = sw.pc[:0], sw.target[:0], sw.addr[:0]
	sw.meta, sw.dst, sw.src1, sw.src2 = sw.meta[:0], sw.dst[:0], sw.src1[:0], sw.src2[:0]
	return nil
}

func (sw *storeWriter) finish() error {
	if err := sw.flushGroup(); err != nil {
		return err
	}
	indexOff := sw.off
	idx := make([]byte, 0, len(sw.index)*storeIndexEntryLen)
	for _, g := range sw.index {
		idx = binary.LittleEndian.AppendUint64(idx, uint64(g.off))
		idx = binary.LittleEndian.AppendUint32(idx, g.encLen)
		idx = binary.LittleEndian.AppendUint32(idx, g.recs)
	}
	if err := sw.writeRaw(idx); err != nil {
		return err
	}
	var flags uint32
	if sw.compress {
		flags |= storeFlagFlate
	}
	foot := make([]byte, 0, storeFooterLen)
	foot = binary.LittleEndian.AppendUint64(foot, uint64(indexOff))
	foot = binary.LittleEndian.AppendUint32(foot, uint32(len(sw.index)))
	foot = binary.LittleEndian.AppendUint64(foot, uint64(sw.n))
	foot = binary.LittleEndian.AppendUint32(foot, flags)
	foot = binary.LittleEndian.AppendUint32(foot, BlockLen)
	foot = binary.LittleEndian.AppendUint32(foot, uint32(sw.groupRecs))
	foot = binary.LittleEndian.AppendUint32(foot, crc32.ChecksumIEEE(idx))
	foot = append(foot, storeEndMagic...)
	return sw.writeRaw(foot)
}

// ---- reader ----

// Store is a lazily decoded TCSTORE1 capture. It implements BlockSource
// (and through it Factory), so every simulation kernel and cursor runs
// over it unchanged; block groups are decoded on demand and held in a
// bounded LRU cache. All methods are safe for concurrent use.
type Store struct {
	r        io.ReaderAt
	closer   io.Closer
	size     int64
	compress bool

	groups     []storeGroupMeta
	groupRecs  int
	blocksPerG int
	nblocks    int
	n          int64

	cacheCap int64
	mu       sync.Mutex
	cached   map[int]*storeCacheEntry
	lruHead  *storeCacheEntry // most recent
	lruTail  *storeCacheEntry // next victim
	cacheUse int64

	hits, misses, evictions atomic.Int64
}

type storeCacheEntry struct {
	gi         int
	blocks     []Block
	bytes      int64
	prev, next *storeCacheEntry
}

// corruptf builds a store ErrCorrupt.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// OpenStore opens a TCSTORE1 capture from r (size bytes long), validating
// the footer and index. cacheBytes bounds the decoded-group LRU cache
// (<= 0 selects the 64 MB default). Group payloads are validated lazily:
// damage inside a group surfaces as an ErrCorrupt from BlockAt.
func OpenStore(r io.ReaderAt, size int64, cacheBytes int64) (*Store, error) {
	if cacheBytes <= 0 {
		cacheBytes = storeDefaultCacheBytes
	}
	if size < int64(len(storeMagic))+storeFooterLen {
		return nil, corruptf("store file too small (%d bytes)", size)
	}
	head := make([]byte, len(storeMagic))
	if _, err := r.ReadAt(head, 0); err != nil {
		return nil, fmt.Errorf("trace: store header: %w", err)
	}
	if string(head) != storeMagic {
		return nil, corruptf("bad store magic %q", head)
	}
	foot := make([]byte, storeFooterLen)
	if _, err := r.ReadAt(foot, size-storeFooterLen); err != nil {
		return nil, fmt.Errorf("trace: store footer: %w", err)
	}
	if string(foot[storeFooterLen-8:]) != storeEndMagic {
		return nil, corruptf("bad store end magic %q", foot[storeFooterLen-8:])
	}
	indexOff := int64(binary.LittleEndian.Uint64(foot[0:]))
	groupCount := int64(binary.LittleEndian.Uint32(foot[8:]))
	totalRecs := int64(binary.LittleEndian.Uint64(foot[12:]))
	flags := binary.LittleEndian.Uint32(foot[20:])
	blockLen := binary.LittleEndian.Uint32(foot[24:])
	groupRecs := int64(binary.LittleEndian.Uint32(foot[28:]))
	indexCRC := binary.LittleEndian.Uint32(foot[32:])
	if blockLen != BlockLen {
		return nil, corruptf("store block length %d, want %d", blockLen, BlockLen)
	}
	if flags&^uint32(storeFlagFlate) != 0 {
		return nil, corruptf("unknown store flags %#x", flags)
	}
	if groupRecs <= 0 || groupRecs%BlockLen != 0 {
		return nil, corruptf("store group size %d not a multiple of %d", groupRecs, BlockLen)
	}
	idxLen := groupCount * storeIndexEntryLen
	if indexOff < int64(len(storeMagic)) || indexOff+idxLen != size-storeFooterLen {
		return nil, corruptf("store index [%d,+%d) inconsistent with file size %d", indexOff, idxLen, size)
	}
	idx := make([]byte, idxLen)
	if _, err := r.ReadAt(idx, indexOff); err != nil {
		return nil, fmt.Errorf("trace: store index: %w", err)
	}
	if crc := crc32.ChecksumIEEE(idx); crc != indexCRC {
		return nil, corruptf("store index checksum %#x, want %#x", crc, indexCRC)
	}
	s := &Store{
		r:          r,
		size:       size,
		compress:   flags&storeFlagFlate != 0,
		groupRecs:  int(groupRecs),
		blocksPerG: int(groupRecs / BlockLen),
		cacheCap:   cacheBytes,
		cached:     make(map[int]*storeCacheEntry),
	}
	end := int64(len(storeMagic))
	var sum int64
	for gi := int64(0); gi < groupCount; gi++ {
		e := idx[gi*storeIndexEntryLen:]
		g := storeGroupMeta{
			off:    int64(binary.LittleEndian.Uint64(e[0:])),
			encLen: binary.LittleEndian.Uint32(e[8:]),
			recs:   binary.LittleEndian.Uint32(e[12:]),
		}
		if g.off != end || g.encLen == 0 {
			return nil, corruptf("store group %d at offset %d, want %d", gi, g.off, end)
		}
		if g.recs == 0 || int64(g.recs) > groupRecs {
			return nil, corruptf("store group %d holds %d records, group size %d", gi, g.recs, groupRecs)
		}
		if gi < groupCount-1 && int64(g.recs) != groupRecs {
			return nil, corruptf("store group %d short (%d of %d records) before last", gi, g.recs, groupRecs)
		}
		end = g.off + int64(g.encLen) + 4
		sum += int64(g.recs)
		s.groups = append(s.groups, g)
		s.nblocks += int(int64(g.recs)+BlockLen-1) / BlockLen
	}
	if end != indexOff {
		return nil, corruptf("store groups end at %d, index at %d", end, indexOff)
	}
	if sum != totalRecs {
		return nil, corruptf("store records %d, footer claims %d", sum, totalRecs)
	}
	s.n = totalRecs
	return s, nil
}

// OpenStoreFile opens a TCSTORE1 file from disk; Close releases it.
func OpenStoreFile(path string, cacheBytes int64) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	s, err := OpenStore(f, st.Size(), cacheBytes)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s.closer = f
	return s, nil
}

// Close releases the underlying file, if the Store owns one.
func (s *Store) Close() error {
	if s.closer != nil {
		return s.closer.Close()
	}
	return nil
}

// Len returns the record count the store holds.
func (s *Store) Len() int64 { return s.n }

// CleanLen implements BlockSource. The index is validated at open, so the
// claimed count is deliverable; group-payload damage surfaces as a
// BlockAt error at the affected group instead.
func (s *Store) CleanLen() int64 { return s.n }

// TailErr implements BlockSource; see CleanLen.
func (s *Store) TailErr() error { return nil }

// NumBlocks implements BlockSource.
func (s *Store) NumBlocks() int { return s.nblocks }

// SizeBytes returns the on-disk file size.
func (s *Store) SizeBytes() int64 { return s.size }

// Compressed reports whether group payloads are flate-compressed.
func (s *Store) Compressed() bool { return s.compress }

// BlockAt implements BlockSource, decoding the containing group on demand.
// The returned block remains valid even after the group is evicted from
// the cache (eviction drops the cache's reference; live readers keep
// theirs), so concurrent readers never observe reuse.
func (s *Store) BlockAt(i int) (*Block, error) {
	gi := i / s.blocksPerG
	bi := i % s.blocksPerG
	blocks, err := s.group(gi)
	if err != nil {
		return nil, err
	}
	if bi >= len(blocks) {
		return nil, corruptf("store block %d beyond group %d (%d blocks)", i, gi, len(blocks))
	}
	return &blocks[bi], nil
}

// group returns group gi's decoded blocks, from cache when possible.
func (s *Store) group(gi int) ([]Block, error) {
	s.mu.Lock()
	if e, ok := s.cached[gi]; ok {
		s.lruTouch(e)
		blocks := e.blocks
		s.mu.Unlock()
		s.hits.Add(1)
		storeHits.Add(1)
		return blocks, nil
	}
	s.mu.Unlock()
	s.misses.Add(1)
	storeMisses.Add(1)

	blocks, bytes, err := s.decodeGroup(gi)
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	if e, ok := s.cached[gi]; ok {
		// Another goroutine decoded the same group concurrently; keep the
		// incumbent so both readers share one copy.
		s.lruTouch(e)
		blocks = e.blocks
		s.mu.Unlock()
		return blocks, nil
	}
	e := &storeCacheEntry{gi: gi, blocks: blocks, bytes: bytes}
	s.cached[gi] = e
	s.lruInsert(e)
	s.cacheUse += bytes
	for s.cacheUse > s.cacheCap && s.lruTail != nil && s.lruTail != e {
		victim := s.lruTail
		s.lruRemove(victim)
		delete(s.cached, victim.gi)
		s.cacheUse -= victim.bytes
		s.evictions.Add(1)
		storeEvictions.Add(1)
	}
	s.mu.Unlock()
	return blocks, nil
}

// lruInsert pushes e to the head (most recently used). Caller holds mu.
func (s *Store) lruInsert(e *storeCacheEntry) {
	e.prev, e.next = nil, s.lruHead
	if s.lruHead != nil {
		s.lruHead.prev = e
	}
	s.lruHead = e
	if s.lruTail == nil {
		s.lruTail = e
	}
}

// lruRemove unlinks e. Caller holds mu.
func (s *Store) lruRemove(e *storeCacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.lruHead = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.lruTail = e.prev
	}
	e.prev, e.next = nil, nil
}

// lruTouch moves e to the head. Caller holds mu.
func (s *Store) lruTouch(e *storeCacheEntry) {
	if s.lruHead == e {
		return
	}
	s.lruRemove(e)
	s.lruInsert(e)
}

// decodeGroup reads, checks and decodes one group into Blocks batches.
func (s *Store) decodeGroup(gi int) ([]Block, int64, error) {
	g := s.groups[gi]
	enc := make([]byte, int(g.encLen)+4)
	if _, err := s.r.ReadAt(enc, g.off); err != nil {
		return nil, 0, fmt.Errorf("trace: store group %d read: %w", gi, err)
	}
	wantCRC := binary.LittleEndian.Uint32(enc[g.encLen:])
	enc = enc[:g.encLen]
	if crc := crc32.ChecksumIEEE(enc); crc != wantCRC {
		return nil, 0, corruptf("store group %d checksum %#x, want %#x", gi, crc, wantCRC)
	}
	recs := int(g.recs)
	rawLen := 4 + recs*storeRawBytesPerRecord
	raw := enc
	if s.compress {
		raw = make([]byte, rawLen)
		zr := flate.NewReader(bytes.NewReader(enc))
		if _, err := io.ReadFull(zr, raw); err != nil {
			return nil, 0, corruptf("store group %d inflate: %v", gi, err)
		}
		// The payload must end exactly where the column layout says.
		if n, _ := zr.Read(make([]byte, 1)); n != 0 {
			return nil, 0, corruptf("store group %d inflates past %d bytes", gi, rawLen)
		}
	}
	if len(raw) != rawLen {
		return nil, 0, corruptf("store group %d payload %d bytes, want %d", gi, len(raw), rawLen)
	}
	if got := int(binary.LittleEndian.Uint32(raw)); got != recs {
		return nil, 0, corruptf("store group %d payload claims %d records, index %d", gi, got, recs)
	}

	pcCol := raw[4:]
	tgtCol := pcCol[recs*8:]
	addrCol := tgtCol[recs*8:]
	metaCol := addrCol[recs*8 : recs*8+recs]
	dstCol := addrCol[recs*8+recs:]
	src1Col := dstCol[recs:]
	src2Col := src1Col[recs:]

	// Carve all column storage from slabs sized to the group rather than
	// the shared columnArena: the arena over-provisions to its fixed slab
	// size, and a cached group pins whatever slab its blocks were carved
	// from — sized slabs keep the LRU's byte accounting equal to the bytes
	// actually held. Every block is decoded narrow first; one whose values
	// need the high half of their uint64 on disk is decoded again into
	// uint64 columns of its own, leaving its narrow slab space unused but
	// still charged.
	nblocks := (recs + BlockLen - 1) / BlockLen
	blocks := make([]Block, 0, nblocks)
	slab32 := make([]uint32, 3*recs)
	slab8 := make([]uint8, 4*recs)
	wideRecs := 0
	for done := 0; done < recs; {
		n := min(BlockLen, recs-done)
		u8 := slab8
		slab8 = u8[4*n:]
		blk := Block{
			Narrow: carveColumns(slab32, n),
			Meta:   u8[0*n : 1*n : 1*n],
			Dst:    u8[1*n : 2*n : 2*n],
			Src1:   u8[2*n : 3*n : 3*n],
			Src2:   u8[3*n : 4*n : 4*n],
		}
		slab32 = slab32[3*n:]
		at := 8 * done
		if readColumns(blk.Narrow, pcCol[at:], tgtCol[at:], addrCol[at:]) {
			blk.Narrow = Columns[uint32]{}
			blk.Wide = carveColumns(make([]uint64, 3*n), n)
			readColumns(blk.Wide, pcCol[at:], tgtCol[at:], addrCol[at:])
			wideRecs += n
		}
		copy(blk.Meta, metaCol[done:done+n])
		copy(blk.Dst, dstCol[done:done+n])
		copy(blk.Src1, src1Col[done:done+n])
		copy(blk.Src2, src2Col[done:done+n])
		for j := 0; j < n; j++ {
			mb := blk.Meta[j]
			if int(mb&MetaClassMask) >= numClasses || int(mb>>MetaOpShift&MetaOpMask) >= NumOpClasses {
				return nil, 0, corruptf("store group %d record %d: invalid meta byte %#x", gi, done+j, mb)
			}
		}
		blocks = append(blocks, blk)
		done += n
	}
	return blocks, int64(recs)*NarrowRecordBytes + int64(wideRecs)*3*8, nil
}

// readColumns fills cols from the starts of a group payload's uint64
// value columns and reports whether any value needs more than 32 bits, in
// which case uint32 columns hold truncated values.
func readColumns[W Word](cols Columns[W], pcCol, tgtCol, addrCol []byte) (wide bool) {
	n := len(cols.PC)
	pcs, tgts, addrs := cols.PC, cols.Target[:n], cols.Addr[:n]
	pcCol, tgtCol, addrCol = pcCol[:8*n], tgtCol[:8*n], addrCol[:8*n]
	var or uint64
	for j := range pcs {
		pc := binary.LittleEndian.Uint64(pcCol[8*j:])
		tgt := binary.LittleEndian.Uint64(tgtCol[8*j:])
		addr := binary.LittleEndian.Uint64(addrCol[8*j:])
		pcs[j], tgts[j], addrs[j] = W(pc), W(tgt), W(addr)
		or |= pc | tgt | addr
	}
	return or>>32 != 0
}

// Open implements Factory, returning a streaming cursor over the store.
func (s *Store) Open() Source { return &storeCursor{s: s} }

var (
	_ Factory     = (*Store)(nil)
	_ BlockSource = (*Store)(nil)
)

// storeCursor is a Source over a Store's records. Like Cursor and
// BatchCursor it yields the clean prefix and then surfaces the decode
// error, so the three cursor kinds are stream-for-stream interchangeable.
type storeCursor struct {
	s   *Store
	bi  int
	blk *Block
	i   int
	err error
}

// Next implements Source.
func (c *storeCursor) Next(r *Record) bool {
	if c.err != nil {
		return false
	}
	for {
		if c.blk != nil && c.i < c.blk.Len() {
			c.blk.Record(c.i, r)
			c.i++
			return true
		}
		if c.blk != nil {
			c.bi++
		}
		if c.bi >= c.s.NumBlocks() {
			return false
		}
		blk, err := c.s.BlockAt(c.bi)
		if err != nil {
			c.err = err
			return false
		}
		c.blk, c.i = blk, 0
	}
}

// Err returns the first decode error encountered, or nil on clean end.
func (c *storeCursor) Err() error { return c.err }

var _ ErrSource = (*storeCursor)(nil)

// CacheStats reports a store's decoded-group cache activity.
type CacheStats struct {
	Hits, Misses, Evictions int64
}

// CacheStats returns this store's cache counters.
func (s *Store) CacheStats() CacheStats {
	return CacheStats{Hits: s.hits.Load(), Misses: s.misses.Load(), Evictions: s.evictions.Load()}
}

// Package-wide store cache counters, aggregated across every Store for
// run-level telemetry.
var storeHits, storeMisses, storeEvictions atomic.Int64

// StoreCacheCounters returns process-wide store cache activity.
func StoreCacheCounters() CacheStats {
	return CacheStats{Hits: storeHits.Load(), Misses: storeMisses.Load(), Evictions: storeEvictions.Load()}
}
