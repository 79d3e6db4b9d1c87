package ring

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// check holds r to the model: the same entries in the same order, the
// backing array a power of two of at least 8 (or none), and every slot not
// holding an entry zeroed. Entries are never zero, so a live slot is told
// apart from an empty one.
func check(t *testing.T, r *Ring[int], model []int, where string) {
	t.Helper()
	if r.Len() != len(model) {
		t.Fatalf("%s: Len %d, model %d", where, r.Len(), len(model))
	}
	for i, want := range model {
		if got := *r.At(i); got != want {
			t.Fatalf("%s: At(%d) = %d, model %d", where, i, got, want)
		}
	}
	size := len(r.buf)
	if size != 0 && (size < 8 || size&(size-1) != 0) {
		t.Fatalf("%s: backing array of %d slots", where, size)
	}
	live := 0
	for _, v := range r.buf {
		if v != 0 {
			live++
		}
	}
	if live != len(model) {
		t.Fatalf("%s: %d slots hold a value for %d entries: a removed slot was not zeroed", where, live, len(model))
	}
}

// TestRingMatchesSlice runs random programs of every operation against a
// plain slice, checking the whole ring after each step, and that the array
// grows only when a Push or PushFront finds it full (to double, or 8) or a
// Reserve asks for more than it has (to the least power of two that holds
// it).
func TestRingMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	next := 1
	for prog := 0; prog < 200; prog++ {
		var r Ring[int]
		var model []int
		for step := 0; step < 400; step++ {
			size, n := len(r.buf), r.Len()
			wantSize := size
			var op string
			switch k := rng.Intn(12); {
			case k < 5:
				op = "Push"
				r.Push(next)
				model = append(model, next)
				next++
				if n == size {
					wantSize = max(2*size, 8)
				}
			case k < 7:
				op = "PushFront"
				r.PushFront(next)
				model = slices.Insert(model, 0, next)
				next++
				if n == size {
					wantSize = max(2*size, 8)
				}
			case k < 9 && n > 0:
				op = "PopFront"
				if got := r.PopFront(); got != model[0] {
					t.Fatalf("program %d, step %d: PopFront = %d, model %d", prog, step, got, model[0])
				}
				model = model[1:]
			case k < 10 && n > 0:
				op = "PopBack"
				if got := r.PopBack(); got != model[n-1] {
					t.Fatalf("program %d, step %d: PopBack = %d, model %d", prog, step, got, model[n-1])
				}
				model = model[:n-1]
			case k < 11:
				op = "Truncate"
				keep := rng.Intn(n + 1)
				r.Truncate(keep)
				model = model[:keep]
			default:
				op = "Reserve"
				want := rng.Intn(100)
				r.Reserve(want)
				for wantSize = 8; wantSize < want; wantSize *= 2 {
				}
				wantSize = max(wantSize, size)
			}
			where := fmt.Sprintf("program %d, step %d (%s)", prog, step, op)
			check(t, &r, model, where)
			if len(r.buf) != wantSize {
				t.Fatalf("%s: backing array went from %d to %d slots holding %d entries, want %d", where, size, len(r.buf), n, wantSize)
			}
		}
	}
}

// TestReservedRingAllocatesNothing: once reserved, a ring that stays
// within what it reserved pushes and pops without allocating.
func TestReservedRingAllocatesNothing(t *testing.T) {
	var r Ring[[]byte]
	r.Reserve(64)
	msg := make([]byte, 100)
	if n := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			r.Push(msg)
		}
		for r.Len() > 0 {
			r.PopFront()
		}
	}); n != 0 {
		t.Fatalf("Push/PopFront on a reserved ring allocates %v times a run, want 0", n)
	}
}
