package trace

// WidenBlocks returns a copy of bs in which every block that pick selects
// holds wide value columns with the same values, so tests can run one
// capture through both column element types. bs is not modified.
func WidenBlocks(bs *Blocks, pick func(bi int) bool) *Blocks {
	out := &Blocks{blocks: make([]Block, len(bs.blocks)), n: bs.n, err: bs.err}
	for bi, b := range bs.blocks {
		if pick(bi) && !b.IsWide() {
			b.widen()
		}
		out.blocks[bi] = b
	}
	return out
}
