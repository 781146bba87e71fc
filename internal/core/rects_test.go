package core

import "testing"

// canonical reports whether r respects the X1 ≤ X2 < Y1 ≤ Y2 ordering
// convention.
func canonical(r Rect) bool {
	return r.X1 <= r.X2 && r.X2 < r.Y1 && r.Y1 <= r.Y2
}

// encloses reports whether r fully contains s.
func encloses(r, s Rect) bool {
	return r.X1 <= s.X1 && s.X2 <= r.X2 && r.Y1 <= s.Y1 && s.Y2 <= r.Y2
}

// overlaps reports whether r and s share at least one point.
func overlaps(r, s Rect) bool {
	return r.X1 <= s.X2 && s.X1 <= r.X2 && r.Y1 <= s.Y2 && s.Y1 <= r.Y2
}

func TestRectPredicates(t *testing.T) {
	r := Rect{X1: 1, X2: 2, Y1: 5, Y2: 6}
	if !canonical(r) {
		t.Error("canonical rect reported non-canonical")
	}
	if !encloses(r, Rect{X1: 1, X2: 1, Y1: 6, Y2: 6}) {
		t.Error("encloses missed inner point")
	}
	if encloses(r, Rect{X1: 0, X2: 2, Y1: 5, Y2: 6}) {
		t.Error("encloses accepted wider rect")
	}
	if !overlaps(r, Rect{X1: 2, X2: 3, Y1: 6, Y2: 9}) {
		t.Error("overlaps missed corner touch")
	}
	if overlaps(r, Rect{X1: 3, X2: 4, Y1: 5, Y2: 6}) {
		t.Error("overlaps spurious")
	}
	if !(Rect{X1: 3, X2: 3, Y1: 8, Y2: 8}).IsPoint() {
		t.Error("IsPoint")
	}
	if !(Rect{X1: 3, X2: 3, Y1: 7, Y2: 8}).IsVLine() {
		t.Error("IsVLine")
	}
	if !(Rect{X1: 2, X2: 3, Y1: 8, Y2: 8}).IsHLine() {
		t.Error("IsHLine")
	}
	if canonical(Rect{X1: 2, X2: 1, Y1: 3, Y2: 4}) {
		t.Error("non-canonical rect accepted")
	}
}
