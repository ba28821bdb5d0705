package trace

// Decode-once batched replay: the experiment suite replays one memoized
// capture through dozens of simulation cells, and profiling shows the
// per-cell varint decode in Cursor.Next dominating the suite's wall clock.
// Blocks decodes a Replay's buffer exactly once into immutable
// structure-of-arrays batches that every cell then iterates with plain
// slice loads — no varint work, no per-record branch on field presence,
// and a one-byte class/op/taken summary that lets kernels skip non-branch
// records without materializing a Record at all.
//
// The batch layout is parallel slices of BlockLen records each: pc, target
// and effective address as value columns, the register operands as byte
// slices, and a packed Meta byte per record (class, op class, taken bit).
// The value columns are uint32 whenever every value in the block fits in
// 32 bits — every shipped workload's addresses do, by a wide margin — and
// uint64 otherwise, decided per block so any input still round-trips: a
// narrow record costs 16 bytes, a wide one 28. Blocks are immutable once
// built; any number of goroutines may iterate them concurrently, matching
// the Cursor guarantee.

// BlockLen is the record capacity of one Block. A narrow block's column
// data spans 64KB (a wide one's 112KB), large enough to amortise loop
// setup and small enough to stay cache-friendly.
const BlockLen = 4096

// Decoded bytes per record: three value columns plus the Meta, Dst, Src1
// and Src2 bytes, in a narrow and in a wide block.
const (
	NarrowRecordBytes = 3*4 + 4
	WideRecordBytes   = 3*8 + 4
)

// Meta byte layout: bits 0-3 the Class, bits 4-6 the OpClass, bit 7 the
// taken flag. Together with the value columns this reconstructs the full
// Record (the v2 flag bits are derivable: a zero Target/Addr/register
// column entry means the field was absent).
const (
	MetaClassMask = 0x0f
	MetaOpShift   = 4
	MetaOpMask    = 0x07
	MetaTaken     = 0x80
)

// Word is the element type of a block's value columns.
type Word interface{ ~uint32 | ~uint64 }

// Columns are a block's value columns at element type W: per record its
// PC, its Target and its effective Addr (zero where the record has none).
type Columns[W Word] struct {
	PC, Target, Addr []W
}

// carveColumns splits the first 3*n words of slab into n-record columns,
// with full-slice expressions so no column can grow into the next.
func carveColumns[W Word](slab []W, n int) Columns[W] {
	return Columns[W]{PC: slab[0*n : 1*n : 1*n], Target: slab[1*n : 2*n : 2*n], Addr: slab[2*n : 3*n : 3*n]}
}

// Block is one structure-of-arrays batch of decoded records. All slices
// share the same length. The slices are exported so hot simulation kernels
// can index the columns directly; they are shared and must be treated as
// read-only.
//
// Exactly one of Narrow and Wide holds the value columns: Narrow when
// every PC, Target and Addr of the block fits in 32 bits, Wide otherwise.
// Kernels test IsWide once per block and run an inner loop generic over
// Word, so each element type compiles to its own direct code.
type Block struct {
	Narrow Columns[uint32]
	Wide   Columns[uint64]
	Meta   []uint8
	Dst    []uint8
	Src1   []uint8
	Src2   []uint8
}

// Len returns the number of records in the block.
func (b *Block) Len() int { return len(b.Meta) }

// IsWide reports whether the block's value columns are Wide.
func (b *Block) IsWide() bool { return b.Wide.PC != nil }

// ByteSize returns the resident size of the block's columns in bytes.
func (b *Block) ByteSize() int64 {
	if b.IsWide() {
		return int64(b.Len()) * WideRecordBytes
	}
	return int64(b.Len()) * NarrowRecordBytes
}

// Class returns record i's control-flow class.
func (b *Block) Class(i int) Class { return Class(b.Meta[i] & MetaClassMask) }

// Op returns record i's functional-unit class.
func (b *Block) Op(i int) OpClass { return OpClass(b.Meta[i] >> MetaOpShift & MetaOpMask) }

// Taken reports whether record i redirected the instruction stream.
func (b *Block) Taken(i int) bool { return b.Meta[i]&MetaTaken != 0 }

// Record materializes record i into *r.
func (b *Block) Record(i int, r *Record) {
	m := b.Meta[i]
	*r = Record{
		Class: Class(m & MetaClassMask),
		Op:    OpClass(m >> MetaOpShift & MetaOpMask),
		Taken: m&MetaTaken != 0,
		Dst:   b.Dst[i],
		Src1:  b.Src1[i],
		Src2:  b.Src2[i],
	}
	if b.IsWide() {
		r.PC, r.Target, r.Addr = b.Wide.PC[i], b.Wide.Target[i], b.Wide.Addr[i]
	} else {
		r.PC, r.Target, r.Addr = uint64(b.Narrow.PC[i]), uint64(b.Narrow.Target[i]), uint64(b.Narrow.Addr[i])
	}
}

// setValues stores record i's value columns, widening the block the first
// time a value does not fit in 32 bits.
func (b *Block) setValues(i int, pc, target, addr uint64) {
	if !b.IsWide() {
		if (pc|target|addr)>>32 == 0 {
			b.Narrow.PC[i], b.Narrow.Target[i], b.Narrow.Addr[i] = uint32(pc), uint32(target), uint32(addr)
			return
		}
		b.widen()
	}
	b.Wide.PC[i], b.Wide.Target[i], b.Wide.Addr[i] = pc, target, addr
}

// widen converts a narrow block under construction to wide columns of the
// same length, carrying over every value stored so far. The narrow
// columns' slab space is abandoned: a wide record is rare enough that
// reclaiming it is not worth an allocator.
func (b *Block) widen() {
	n := len(b.Meta)
	b.Wide = carveColumns(make([]uint64, 3*n), n)
	for i := range n {
		b.Wide.PC[i] = uint64(b.Narrow.PC[i])
		b.Wide.Target[i] = uint64(b.Narrow.Target[i])
		b.Wide.Addr[i] = uint64(b.Narrow.Addr[i])
	}
	b.Narrow = Columns[uint32]{}
}

// BlockSource is a randomly addressable decoded capture: the abstraction
// the batched simulation kernels iterate. Implementations are an in-memory
// Blocks (or the Replay wrapping one) and the out-of-core Store, which
// decodes block groups lazily from a file. All implementations obey the
// same layout invariant: block i covers records [i*BlockLen, i*BlockLen +
// BlockAt(i).Len()), i.e. every block except the last holds exactly
// BlockLen records — kernels rely on this to seek to a record index
// without scanning.
//
// Len is the record count the source claims to hold; CleanLen is the count
// BlockAt can actually deliver (smaller when the underlying bytes were
// damaged), and TailErr is the decode error a streaming cursor would
// report after yielding the clean prefix. File-backed sources may instead
// surface damage as a BlockAt error at the affected block. The kernel
// contract for a budget-limited run mirrors the streaming loop exactly:
// process min(budget, CleanLen) records, then report TailErr only when
// budget > CleanLen.
type BlockSource interface {
	Factory
	// Len returns the record count the source claims to hold.
	Len() int64
	// CleanLen returns the number of records deliverable through BlockAt.
	CleanLen() int64
	// NumBlocks returns the batch count covering the clean prefix.
	NumBlocks() int
	// BlockAt returns batch i, decoding it on demand for file-backed
	// sources. A non-nil error wraps ErrCorrupt and identifies the
	// damaged region; the returned block stays valid after later calls.
	BlockAt(i int) (*Block, error)
	// TailErr returns the decode error that truncated the capture, or nil.
	TailErr() error
}

// Blocks is a fully decoded capture: the batched form of a Replay. It is
// immutable after construction and safe for concurrent iteration.
type Blocks struct {
	blocks []Block
	n      int64
	// err records where decoding stopped short: the same ErrCorrupt error
	// a Cursor reports at that position. The decoded prefix is valid.
	err error
}

// Len returns the number of cleanly decoded records.
func (bs *Blocks) Len() int64 { return bs.n }

// CleanLen implements BlockSource; for an in-memory Blocks every record
// counted by Len is deliverable.
func (bs *Blocks) CleanLen() int64 { return bs.n }

// Err returns the decode error that truncated the capture, or nil when the
// whole buffer decoded cleanly.
func (bs *Blocks) Err() error { return bs.err }

// TailErr implements BlockSource; it is Err under the interface's name.
func (bs *Blocks) TailErr() error { return bs.err }

// NumBlocks returns the batch count.
func (bs *Blocks) NumBlocks() int { return len(bs.blocks) }

// Block returns batch i.
func (bs *Blocks) Block(i int) *Block { return &bs.blocks[i] }

// BlockAt implements BlockSource; in-memory batches never fail.
func (bs *Blocks) BlockAt(i int) (*Block, error) { return &bs.blocks[i], nil }

// Open implements Factory, returning a fresh BatchCursor over the decoded
// records.
func (bs *Blocks) Open() Source { return &BatchCursor{bs: bs} }

var (
	_ Factory     = (*Blocks)(nil)
	_ BlockSource = (*Blocks)(nil)
)

// columnArena hands out block columns carved from large slabs. Profiling
// the experiment suite shows per-block column allocation (7 fresh slices
// every 4096 records) dominating capture cost — mostly page-fault and
// allocator overhead on the many small makes. One slab covers
// arenaBlocks=64 blocks (3 MB of uint32 columns, 1 MB of byte columns),
// cutting the allocation count 64× while keeping each block's columns
// contiguous. Blocks start narrow; the rare block that widens allocates
// its uint64 columns on its own (Block.widen). Slices are carved with
// full-slice expressions so a block can never grow into its neighbour's
// storage.
type columnArena struct {
	u32 []uint32
	u8  []uint8
}

const arenaBlocks = 64

// alloc returns a zeroed narrow Block with column capacity n.
func (a *columnArena) alloc(n int) Block {
	if len(a.u32) < 3*n || len(a.u8) < 4*n {
		a.u32 = make([]uint32, 3*BlockLen*arenaBlocks)
		a.u8 = make([]uint8, 4*BlockLen*arenaBlocks)
	}
	u32, u8 := a.u32, a.u8
	a.u32, a.u8 = u32[3*n:], u8[4*n:]
	return Block{
		Narrow: carveColumns(u32, n),
		Meta:   u8[0*n : 1*n : 1*n],
		Dst:    u8[1*n : 2*n : 2*n],
		Src1:   u8[2*n : 3*n : 3*n],
		Src2:   u8[3*n : 4*n : 4*n],
	}
}

// decodeBlocks decodes every record in rep into batches. A decode failure
// stops the scan and is recorded verbatim, so iterating the result yields
// exactly the records (and then the error) a streaming Cursor yields.
//
// The loop is Cursor.Next inlined to write the column slices directly:
// same checks, same failure messages, same offsets — the differential and
// fuzz tests in blocks_test.go compare the two decoders record-for-record
// over damaged buffers to pin that equivalence. Writing columns in place
// (instead of materializing a Record and copying it) and taking a
// single-byte fast path on the varints roughly halves the one-time decode
// cost of a capture.
func decodeBlocks(rep *Replay) *Blocks {
	rep.ensureBuf()
	bs := &Blocks{}
	cur := Cursor{rep: rep}
	buf := rep.buf
	var arena columnArena
	var blk *Block
	filled := 0
	var prevPC, prevAddr uint64
	for {
		// ---- Cursor.Next, record header ----
		if cur.pos >= len(buf) {
			if cur.decoded != rep.n {
				cur.fail(cur.pos, "truncated replay (%d of %d records)", cur.decoded, rep.n)
			}
			break
		}
		if cur.decoded >= rep.n {
			cur.fail(cur.pos, "replay decodes past %d records", rep.n)
			break
		}
		start := cur.pos
		if cur.pos+2 > len(buf) {
			cur.fail(start, "truncated record header")
			break
		}
		flags, classOp := buf[cur.pos], buf[cur.pos+1]
		if flags&0xf0 != 0 {
			cur.fail(start, "invalid flags %#x", flags)
			break
		}
		if int(classOp&0xf) >= numClasses || int(classOp>>4) >= NumOpClasses {
			cur.fail(start, "invalid class byte %#x", classOp)
			break
		}
		cur.pos += 2

		// ---- field varints, with a one-byte fast path ----
		var pc, target, addr uint64
		var d uint64
		if cur.pos < len(buf) && buf[cur.pos] < 0x80 {
			d = uint64(buf[cur.pos])
			cur.pos++
		} else if v, ok := cur.uvarint(buf); ok {
			d = v
		} else {
			cur.fail(cur.pos, "invalid pc varint")
			break
		}
		pc = prevPC + uint64(unzig(d))
		prevPC = pc
		if flags&2 != 0 {
			if cur.pos < len(buf) && buf[cur.pos] < 0x80 {
				d = uint64(buf[cur.pos])
				cur.pos++
			} else if v, ok := cur.uvarint(buf); ok {
				d = v
			} else {
				cur.fail(cur.pos, "invalid target varint")
				break
			}
			target = pc + uint64(unzig(d))
		}
		if flags&4 != 0 {
			if cur.pos < len(buf) && buf[cur.pos] < 0x80 {
				d = uint64(buf[cur.pos])
				cur.pos++
			} else if v, ok := cur.uvarint(buf); ok {
				d = v
			} else {
				cur.fail(cur.pos, "invalid addr varint")
				break
			}
			addr = prevAddr + uint64(unzig(d))
			prevAddr = addr
		}

		// ---- column writes ----
		if blk == nil || filled == len(blk.Meta) {
			// A fresh block sized to what remains of the claimed record
			// count (>= 1: the decodes-past-n check above guarantees it).
			// Full-length, zeroed columns: absent fields (target, addr,
			// registers) keep the zero the codec implies, store-free.
			capHint := BlockLen
			if rem := rep.n - bs.n; rem < int64(capHint) {
				capHint = int(rem)
			}
			bs.blocks = append(bs.blocks, arena.alloc(capHint))
			blk = &bs.blocks[len(bs.blocks)-1]
			filled = 0
		}
		if flags&8 != 0 {
			if cur.pos+3 > len(buf) {
				cur.fail(cur.pos, "truncated register bytes")
				break
			}
			blk.Dst[filled] = buf[cur.pos]
			blk.Src1[filled] = buf[cur.pos+1]
			blk.Src2[filled] = buf[cur.pos+2]
			cur.pos += 3
		}
		blk.setValues(filled, pc, target, addr)
		// classOp already packs class (bits 0-3) and op (bits 4-6) in the
		// Meta layout; only the taken bit is added.
		mb := classOp
		if flags&1 != 0 {
			mb |= MetaTaken
		}
		blk.Meta[filled] = mb
		filled++
		bs.n++
		cur.decoded++
	}
	if blk != nil {
		blk.truncate(filled)
	}
	if len(bs.blocks) > 0 && bs.blocks[len(bs.blocks)-1].Len() == 0 {
		bs.blocks = bs.blocks[:len(bs.blocks)-1]
	}
	bs.err = cur.Err()
	return bs
}

// blockBuilder accumulates records into batches during capture. A fresh
// capture has every Record in hand as it is encoded, so building the
// batched form inline costs one column store per field instead of the
// full varint decode pass decodeBlocks would spend recovering the same
// values from the buffer just written. The result is indistinguishable
// from decodeBlocks on the finished buffer (the capture-vs-decode
// differential test in blocks_test.go pins this): the codec round-trips
// every field exactly, and absent fields encode as zero both ways.
type blockBuilder struct {
	bs     Blocks
	filled int
	arena  columnArena
}

// add appends one record.
func (b *blockBuilder) add(r *Record) {
	if b.filled == BlockLen || len(b.bs.blocks) == 0 {
		b.bs.blocks = append(b.bs.blocks, b.arena.alloc(BlockLen))
		b.filled = 0
	}
	blk := &b.bs.blocks[len(b.bs.blocks)-1]
	i := b.filled
	blk.setValues(i, r.PC, r.Target, r.Addr)
	blk.Dst[i] = r.Dst
	blk.Src1[i] = r.Src1
	blk.Src2[i] = r.Src2
	mb := uint8(r.Class) | uint8(r.Op)<<MetaOpShift
	if r.Taken {
		mb |= MetaTaken
	}
	blk.Meta[i] = mb
	b.filled++
	b.bs.n++
}

// finish seals the builder into an immutable Blocks.
func (b *blockBuilder) finish() *Blocks {
	if n := len(b.bs.blocks); n > 0 {
		b.bs.blocks[n-1].truncate(b.filled)
	}
	out := b.bs
	b.bs = Blocks{}
	return &out
}

// ByteSize returns the resident size of the decoded columns in bytes
// (NarrowRecordBytes or WideRecordBytes per record, block by block), the
// figure memory accounting wants for an in-memory capture.
func (bs *Blocks) ByteSize() int64 {
	var n int64
	for i := range bs.blocks {
		n += bs.blocks[i].ByteSize()
	}
	return n
}

// truncate seals a block's columns at its decoded length.
func (b *Block) truncate(n int) {
	if b.IsWide() {
		b.Wide = b.Wide.truncate(n)
	} else {
		b.Narrow = b.Narrow.truncate(n)
	}
	b.Meta = b.Meta[:n]
	b.Dst = b.Dst[:n]
	b.Src1 = b.Src1[:n]
	b.Src2 = b.Src2[:n]
}

// truncate returns the columns cut to n records.
func (c Columns[W]) truncate(n int) Columns[W] {
	return Columns[W]{PC: c.PC[:n], Target: c.Target[:n], Addr: c.Addr[:n]}
}

// Blocks returns the capture decoded into batches, decoding on first call
// and returning the cached result afterwards. Every caller (and every
// simulation cell sharing this Replay through the workload memo) sees the
// same immutable Blocks, so the buffer is varint-decoded exactly once per
// capture for the life of the process.
func (rep *Replay) Blocks() *Blocks {
	rep.blocksOnce.Do(func() { rep.blocks = decodeBlocks(rep) })
	return rep.blocks
}

// BatchCursor is an allocation-free Source over a decoded Blocks. Like
// Cursor it yields the capture's records in order and surfaces the decode
// error (if the underlying buffer was damaged) only after the cleanly
// decoded prefix has been consumed, so the two cursors are stream-for-
// stream interchangeable. Distinct cursors may run concurrently.
type BatchCursor struct {
	bs  *Blocks
	bi  int
	i   int
	err error
}

// NewBatchCursor returns a cursor positioned at the first record.
func NewBatchCursor(bs *Blocks) *BatchCursor { return &BatchCursor{bs: bs} }

// Reset rewinds the cursor to the start and clears any reported error.
func (c *BatchCursor) Reset() { *c = BatchCursor{bs: c.bs} }

// Err returns the decode error encountered, or nil on clean end.
func (c *BatchCursor) Err() error { return c.err }

var _ ErrSource = (*BatchCursor)(nil)

// Next implements Source.
func (c *BatchCursor) Next(r *Record) bool {
	if c.err != nil {
		return false
	}
	bs := c.bs
	for c.bi < len(bs.blocks) {
		blk := &bs.blocks[c.bi]
		if c.i < len(blk.Meta) {
			blk.Record(c.i, r)
			c.i++
			return true
		}
		c.bi++
		c.i = 0
	}
	c.err = bs.err
	return false
}
