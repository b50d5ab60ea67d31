package conc

import "testing"

// Failure-injection tests: the concurrency contracts are enforced by
// panics, which must actually fire on misuse rather than corrupt state
// silently.

func expectPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

func TestEraseUniqueAbsentPanics(t *testing.T) {
	s := NewEdgeSet(8, 2)
	expectPanic(t, "EraseUnique of absent edge", func() {
		s.EraseUnique(edge(1, 2), 0)
	})
}

func TestEdgeSetFullPanics(t *testing.T) {
	s := NewEdgeSet(4, 1) // 16 buckets
	expectPanic(t, "insert beyond capacity", func() {
		for i := uint32(0); i < 64; i++ {
			s.InsertUnique(edge(i, i+100), 0)
		}
	})
}
