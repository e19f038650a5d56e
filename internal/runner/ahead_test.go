package runner

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// counter is a feed that returns base, base+1, ... and counts its
// draws; panicAt, when positive, makes the draw returning base+panicAt
// panic instead.
type counter struct {
	base, panicAt int
	draws         atomic.Int64
}

func (c *counter) next() int {
	n := int(c.draws.Add(1)) - 1
	if c.panicAt > 0 && n == c.panicAt {
		panic(fmt.Sprintf("counter %d: draw %d", c.base, n))
	}
	return c.base + n
}

func (c *counter) feed(limit int) Feed[int] { return Feed[int]{Next: c.next, Limit: limit} }

// TestAheadOrder: every stream yields exactly its feed's sequence, in
// order, however the consumer interleaves the streams — across chunk
// boundaries and with the default sizing alike.
func TestAheadOrder(t *testing.T) {
	for _, size := range []struct{ chunk, depth int }{{3, 2}, {1, 1}, {aheadChunk, aheadDepth}} {
		t.Run(fmt.Sprintf("chunk%d_depth%d", size.chunk, size.depth), func(t *testing.T) {
			cs := []*counter{{base: 0}, {base: 1 << 20}, {base: 2 << 20}}
			const limit = 10_000
			a := newAhead([]Feed[int]{cs[0].feed(limit), cs[1].feed(limit), cs[2].feed(limit)}, size.chunk, size.depth)
			defer a.Stop()
			taken := make([]int, len(cs))
			// Stream i takes i+1 items per round, so the streams drain
			// at different rates.
			for round := 0; taken[0] < limit; round++ {
				for i, c := range cs {
					for k := 0; k <= i && taken[i] < limit; k++ {
						if got, want := a.Stream(i).Next(), c.base+taken[i]; got != want {
							t.Fatalf("stream %d item %d = %d, want %d", i, taken[i], got, want)
						}
						taken[i]++
					}
				}
			}
		})
	}
}

// TestAheadLimit: a feed is never drawn more than its limit, and a
// stream drawn past it panics.
func TestAheadLimit(t *testing.T) {
	c := &counter{}
	a := newAhead([]Feed[int]{c.feed(10)}, 4, 3)
	for i := 0; i < 10; i++ {
		if got := a.Stream(0).Next(); got != i {
			t.Fatalf("item %d = %d", i, got)
		}
	}
	if v := catchPanic(func() { a.Stream(0).Next() }); v == nil {
		t.Error("drawing past the limit did not panic")
	}
	a.Stop()
	if n := c.draws.Load(); n != 10 {
		t.Errorf("feed drawn %d times, limit 10", n)
	}

	// A consumer that takes nothing: the producer stops at its buffers
	// (or the limit) and never overdraws.
	c = &counter{}
	a = newAhead([]Feed[int]{c.feed(7), {Next: c.next, Limit: 0}}, 4, 8)
	rest := a.Stop()
	if n := c.draws.Load(); n > 7 || int(n) != len(rest[0].Items) {
		t.Errorf("feed drawn %d times, %d returned, limit 7", n, len(rest[0].Items))
	}
	if len(rest[1].Items) != 0 {
		t.Errorf("zero-limit feed returned %v", rest[1].Items)
	}
}

// TestAheadStopLeftovers: Stop returns exactly the drawn-but-untaken
// items, in order, and stops the feed there.
func TestAheadStopLeftovers(t *testing.T) {
	for _, take := range []int{0, 1, 5, 8, 13} {
		cs := []*counter{{base: 0}, {base: 1000}}
		a := newAhead([]Feed[int]{cs[0].feed(1000), cs[1].feed(1000)}, 4, 3)
		for i := 0; i < take; i++ {
			a.Stream(0).Next()
		}
		rest := a.Stop()
		for i, c := range cs {
			took := 0
			if i == 0 {
				took = take
			}
			lo := rest[i]
			if lo.Fault != nil {
				t.Fatalf("take %d stream %d: fault %v", take, i, lo.Fault)
			}
			if drawn := int(c.draws.Load()); drawn != took+len(lo.Items) {
				t.Fatalf("take %d stream %d: drawn %d, took %d, returned %d", take, i, drawn, took, len(lo.Items))
			}
			for k, v := range lo.Items {
				if v != c.base+took+k {
					t.Fatalf("take %d stream %d: leftover %d = %d, want %d", take, i, k, v, c.base+took+k)
				}
			}
		}
		if a.Stop() != nil {
			t.Error("second Stop returned leftovers")
		}
		if v := catchPanic(func() { a.Stream(0).Next() }); v == nil {
			t.Error("Next after Stop did not panic")
		}
	}
}

// TestAheadPanic: a panic in a feed is raised on the consumer, with the
// same value, at the draw where it happened — or, if Stop comes first,
// handed back after the leftovers.
func TestAheadPanic(t *testing.T) {
	c := &counter{panicAt: 9}
	other := &counter{base: 100}
	a := newAhead([]Feed[int]{c.feed(50), other.feed(50)}, 4, 2)
	for i := 0; i < 9; i++ {
		if got := a.Stream(0).Next(); got != i {
			t.Fatalf("item %d = %d", i, got)
		}
	}
	v := catchPanic(func() { a.Stream(0).Next() })
	if v != "counter 0: draw 9" {
		t.Fatalf("panic value %v, want the feed's", v)
	}
	// The other stream is unaffected.
	for i := 0; i < 20; i++ {
		if got := a.Stream(1).Next(); got != 100+i {
			t.Fatalf("other stream item %d = %d", i, got)
		}
	}
	rest := a.Stop()
	if rest[0].Fault != nil || len(rest[0].Items) != 0 {
		t.Errorf("raised panic left %+v behind", rest[0])
	}

	c = &counter{panicAt: 6}
	a = newAhead([]Feed[int]{c.feed(50)}, 4, 4)
	a.Stream(0).Next()
	a.Stream(0).Next()
	waitFor(t, func() bool { return c.draws.Load() == 7 })
	rest = a.Stop()
	if fmt.Sprint(rest[0].Items) != "[2 3 4 5]" || rest[0].Fault != "counter 0: draw 6" {
		t.Errorf("leftover %+v, want items 2-5 then the panic", rest[0])
	}
}

// TestAheadNoGoroutineLeft: Stop ends the producer, whether it was
// blocked on full buffers, finished, or panicked.
func TestAheadNoGoroutineLeft(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		blocked := newAhead([]Feed[int]{(&counter{}).feed(1 << 30)}, 8, 2)
		blocked.Stream(0).Next()
		blocked.Stop()
		done := NewAhead((&counter{}).feed(3))
		done.Stream(0).Next()
		done.Stop()
		failed := NewAhead((&counter{panicAt: 1}).feed(100))
		catchPanic(func() { failed.Stream(0).Next(); failed.Stream(0).Next() })
		failed.Stop()
		NewAhead[int]().Stop()
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before })
}

// catchPanic runs fn and returns the value it panicked with.
func catchPanic(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}
