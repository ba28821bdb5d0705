package btb

// RAS is a return address stack (Webb; Kaeli & Emma). Calls push their
// fall-through address; returns pop. The stack has a fixed depth and wraps
// on overflow, silently overwriting the oldest entry, as hardware stacks do.
type RAS struct {
	stack []uint64
	top   int // index of next free slot (mod len)
	depth int // number of live entries, capped at len(stack)
}

// NewRAS returns a return address stack with the given capacity.
func NewRAS(capacity int) *RAS {
	if capacity < 1 {
		panic("btb: RAS capacity must be positive")
	}
	return &RAS{stack: make([]uint64, capacity)}
}

// Push records a return address (the fall-through of a call).
func (s *RAS) Push(addr uint64) {
	s.stack[s.top] = addr
	s.top = (s.top + 1) % len(s.stack)
	if s.depth < len(s.stack) {
		s.depth++
	}
}

// Pop predicts the target of a return. It returns 0, false when the stack
// is empty (mispredicted by construction).
func (s *RAS) Pop() (uint64, bool) {
	if s.depth == 0 {
		return 0, false
	}
	s.top = (s.top - 1 + len(s.stack)) % len(s.stack)
	s.depth--
	return s.stack[s.top], true
}

// Peek returns the top of stack without popping.
func (s *RAS) Peek() (uint64, bool) {
	if s.depth == 0 {
		return 0, false
	}
	return s.stack[(s.top-1+len(s.stack))%len(s.stack)], true
}

// Depth returns the number of live entries.
func (s *RAS) Depth() int { return s.depth }

// Cap returns the stack's capacity.
func (s *RAS) Cap() int { return len(s.stack) }

// Reset empties the stack.
func (s *RAS) Reset() { s.top, s.depth = 0, 0 }
