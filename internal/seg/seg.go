// Package seg is the append-only segmented store behind the runtime's
// records of what happened: closed trace spans (internal/trace) and the
// ordered event log (internal/obs).
//
// Values live in segments that grow from MinSegment to MaxSegment values
// and are never regrown once allocated, so appending never copies or
// moves a stored value. View hands out the segments clipped to their
// length and capacity: readers walk the values in place, appends made
// afterwards land beyond every clipped length, and nobody can append
// into a segment someone else reads.
package seg

// Segment capacities: small for short-lived stores (one per job tracer),
// bounded so one segment never costs more than MaxSegment values of slack.
const (
	MinSegment = 8
	MaxSegment = 1024
)

// Store is an append-only sequence of T kept in segments. The zero value
// is an empty store. A Store is not safe for concurrent use; its owner
// locks around it. Segments returned by View stay valid and unchanged
// after the owner's lock is released.
type Store[T any] struct {
	segs [][]T
	n    int // values across segs
	next int // capacity of the next segment this store allocates
}

// Append stores one value, opening a new segment when the last one is
// full (or was adopted from another store).
func (s *Store[T]) Append(v T) {
	if k := len(s.segs) - 1; k >= 0 && len(s.segs[k]) < cap(s.segs[k]) {
		s.segs[k] = append(s.segs[k], v)
	} else {
		if s.next == 0 {
			s.next = MinSegment
		}
		seg := make([]T, 1, s.next)
		seg[0] = v
		s.segs = append(s.segs, seg)
		s.next = min(2*s.next, MaxSegment)
	}
	s.n++
}

// Reserve sizes the store for n more values: when the last segment has
// room for fewer, the next segment it opens takes the rest in one piece,
// up to MaxSegment values. Reserve itself allocates nothing, and a store
// that never reserves grows as before.
func (s *Store[T]) Reserve(n int) {
	room := 0
	if k := len(s.segs) - 1; k >= 0 {
		room = cap(s.segs[k]) - len(s.segs[k])
	}
	if want := min(n-room, MaxSegment); want > max(s.next, MinSegment) {
		s.next = want
	}
}

// Len reports how many values are stored.
func (s *Store[T]) Len() int { return s.n }

// View returns the stored values as segments in append order, each
// clipped to its length and capacity. The values are shared, not
// copied: callers must not write through the view. Values appended
// later never show up in it.
func (s *Store[T]) View() [][]T {
	if len(s.segs) == 0 {
		return nil
	}
	out := make([][]T, len(s.segs))
	for i, seg := range s.segs {
		out[i] = seg[:len(seg):len(seg)]
	}
	return out
}

// Adopt appends another store's view by reference, clipping each
// segment, so the next Append opens a fresh segment rather than writing
// into an adopted one.
func (s *Store[T]) Adopt(view [][]T) {
	for _, seg := range view {
		s.segs = append(s.segs, seg[:len(seg):len(seg)])
		s.n += len(seg)
	}
}

// Copy returns the stored values in one freshly allocated slice, in
// append order.
func (s *Store[T]) Copy() []T {
	out := make([]T, 0, s.n)
	for _, seg := range s.segs {
		out = append(out, seg...)
	}
	return out
}

// Each calls fn on every stored value in append order.
func (s *Store[T]) Each(fn func(*T)) {
	for _, seg := range s.segs {
		for i := range seg {
			fn(&seg[i])
		}
	}
}
