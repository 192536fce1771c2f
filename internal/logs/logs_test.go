package logs

import "testing"

func TestFrontEndChanged(t *testing.T) {
	r := DayRecord{Switched: true, PrevFrontEnd: 1, FrontEnd: 2}
	if !r.FrontEndChanged() {
		t.Fatal("switch with different FE should count")
	}
	r = DayRecord{Switched: true, PrevFrontEnd: 2, FrontEnd: 2}
	if r.FrontEndChanged() {
		t.Fatal("ingress-only switch should not count as a front-end change")
	}
	r = DayRecord{Switched: false, PrevFrontEnd: 1, FrontEnd: 2}
	if r.FrontEndChanged() {
		t.Fatal("no switch event means no change")
	}
}

func TestAppendAtRoundTrip(t *testing.T) {
	recs := []DayRecord{
		{ClientID: 7, Day: 3, FrontEnd: 2, Switched: true, PrevFrontEnd: 1, Queries: 11},
		{ClientID: 9, Day: 0, FrontEnd: 0, Switched: false, PrevFrontEnd: 0, Queries: 0},
		{ClientID: 1, Day: 29, FrontEnd: 5, Switched: true, PrevFrontEnd: 5, Queries: 1},
	}
	var l Log
	base := l.Extend(len(recs))
	for i, r := range recs {
		l.Set(base+i, r)
	}
	if l.Len() != len(recs) {
		t.Fatalf("Len = %d, want %d", l.Len(), len(recs))
	}
	for i, want := range recs {
		if got := l.At(i); got != want {
			t.Fatalf("At(%d) = %+v, want %+v", i, got, want)
		}
	}
}

// TestExtendSetAndCursor pins that Extend preserves the records already
// in the log, that a non-positive count is a no-op, and that Set fills
// the extended range in any order.
func TestExtendSetAndCursor(t *testing.T) {
	var l Log
	first := DayRecord{ClientID: 1, Day: 0, FrontEnd: 1, Switched: true, PrevFrontEnd: 0, Queries: 1}
	l.Set(l.Extend(1), first)
	if base := l.Extend(-5); base != 1 || l.Len() != 1 {
		t.Fatalf("Extend(-5) = %d with Len %d, want a no-op at 1", base, l.Len())
	}
	base := l.Extend(2)
	if base != 1 {
		t.Fatalf("Extend base = %d, want 1", base)
	}
	if l.Len() != 3 {
		t.Fatalf("Len after Extend = %d, want 3", l.Len())
	}
	want1 := DayRecord{ClientID: 2, Day: 1, FrontEnd: 1, Switched: true, PrevFrontEnd: 0, Queries: 4}
	want2 := DayRecord{ClientID: 3, Day: 2, FrontEnd: 2, Queries: 9}
	l.Set(base+1, want2)
	l.Set(base, want1)
	want := []DayRecord{first, want1, want2}
	for i := range want {
		if got := l.At(i); got != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got, want[i])
		}
	}
}

// TestGrowPreservesRecords pins that growing the log by a large Extend
// keeps the records already written, and that a negative count does not
// grow it.
func TestGrowPreservesRecords(t *testing.T) {
	var l Log
	r0 := DayRecord{ClientID: 5, Day: 1, FrontEnd: 1, Switched: true, PrevFrontEnd: 0, Queries: 2}
	l.Set(l.Extend(1), r0)
	if base := l.Extend(1000); base != 1 || l.Len() != 1001 {
		t.Fatalf("Extend(1000) = %d with Len %d, want base 1 and Len 1001", base, l.Len())
	}
	if got := l.At(0); got != r0 {
		t.Fatalf("Extend corrupted record: %+v", got)
	}
	if got := l.At(1000); got != (DayRecord{}) {
		t.Fatalf("extended record = %+v, want zero", got)
	}
	l.Extend(-5) // no-op
	if l.Len() != 1001 {
		t.Fatalf("Len = %d, want 1001", l.Len())
	}
}
