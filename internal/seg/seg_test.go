package seg

import "testing"

// TestAdoptNeverSharesSpareCapacity adopts an unclipped segment with
// spare capacity and checks that neither store's later appends show up
// in the other or in a view taken before them.
func TestAdoptNeverSharesSpareCapacity(t *testing.T) {
	var a, b Store[int]
	for i := 0; i < 5; i++ { // 5 of a MinSegment-capacity segment
		a.Append(i)
	}
	shared := a.segs[0] // unclipped: len 5, cap MinSegment
	b.Adopt([][]int{shared})
	before := b.View()
	b.Append(100)
	a.Append(5)
	if got := b.Copy(); len(got) != 6 || got[5] != 100 || b.Len() != 6 {
		t.Fatalf("adopting store holds %v (Len %d), want 0..4 then 100", got, b.Len())
	}
	if got := a.Copy(); len(got) != 6 || got[5] != 5 {
		t.Fatalf("source store holds %v, want 0..5", got)
	}
	if len(before) != 1 || len(before[0]) != 5 || cap(before[0]) != 5 {
		t.Fatalf("view taken before the appends is %v", before)
	}
	var sum int
	b.Each(func(v *int) { sum += *v })
	if sum != 0+1+2+3+4+100 {
		t.Fatalf("Each visited values summing to %d", sum)
	}
	var empty Store[int]
	if empty.View() != nil || empty.Len() != 0 || len(empty.Copy()) != 0 {
		t.Fatal("the zero Store is not empty")
	}
}

// TestReserveSizesNextSegment: a reserve opens one segment for what the
// last segment cannot hold, capped at MaxSegment, and leaves a store that
// already has the room, or never reserves, growing as before.
func TestReserveSizesNextSegment(t *testing.T) {
	var s Store[int]
	for i := 0; i < 9; i++ { // segments of 8 and 16: 15 values of room
		s.Append(i)
	}
	s.Reserve(5) // fits the room: no change
	s.Reserve(100)
	for i := 0; i < 100; i++ {
		s.Append(i)
	}
	if n := len(s.segs); n != 3 || cap(s.segs[2]) != 85 {
		t.Fatalf("%d segments, last of capacity %d; want 3, 85", n, cap(s.segs[n-1]))
	}
	s.Append(0)
	if got := cap(s.segs[3]); got != 2*85 {
		t.Fatalf("segment after the reserved one has capacity %d, want %d", got, 2*85)
	}
	s.Reserve(10 * MaxSegment)
	for i := 0; i < MaxSegment; i++ {
		s.Append(i)
	}
	if got := cap(s.segs[len(s.segs)-1]); got != MaxSegment {
		t.Fatalf("reserved segment has capacity %d, want the %d cap", got, MaxSegment)
	}
	if s.Len() != 9+100+1+MaxSegment {
		t.Fatalf("Len = %d", s.Len())
	}
}
