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
