package runner

// Read-ahead sizing: each stream keeps at most aheadDepth chunks of
// aheadChunk items drawn, so the producer runs at most that far in front
// of the consumer and hands items over a chunk (not an item) at a time.
const (
	aheadChunk = 4096
	aheadDepth = 4
)

// Feed is one input stream to read ahead: Next draws its next item and
// at most Limit items are drawn.
type Feed[T any] struct {
	Next  func() T
	Limit int
}

// Ahead draws a set of pure input streams ahead of their consumer on
// one goroutine of its own. The producer calls each feed's Next in
// chunks; the consumer takes every stream's items, in the order Next
// returned them, through that stream's Next; Stop ends the producer and
// hands back what it drew but the consumer did not take.
//
// All streams share one producer goroutine, not one each: a producer per
// stream competes with the consumer for the processors, and a consumer
// that has to wait behind the producers loses what reading ahead gains.
//
// Every feed's Next runs on the producer goroutine, so it must share no
// mutable state with the consumer or with another feed. The consumer
// side (the streams' Next, Stop) belongs to one goroutine.
type Ahead[T any] struct {
	streams []*AheadStream[T]
	free    chan aheadSlot[T] // emptied buffers, back to the producer; room for all of them
	stop    chan struct{}
	done    chan struct{} // closed when the producer has exited
	stopped bool
}

// AheadStream is the consumer end of one feed.
type AheadStream[T any] struct {
	id   int
	full chan aheadBatch[T] // drawn chunks, in order, one slot per buffer; closed when the feed is done
	free chan aheadSlot[T]

	cur     []T // chunk being consumed
	pos     int // next item of cur
	fault   any // panic to raise once cur is exhausted
	stopped bool
}

// aheadBatch is one chunk handed from the producer to a stream. fault,
// when non-nil, is the value the feed's Next panicked with on the draw
// after the last item.
type aheadBatch[T any] struct {
	items []T
	fault any
}

// aheadSlot is an empty buffer tagged with the stream it belongs to.
type aheadSlot[T any] struct {
	id  int
	buf []T
}

// NewAhead starts one producer goroutine that reads every feed ahead.
// Stream(i) is the consumer end of feeds[i]; Stop must be called to end
// the producer.
func NewAhead[T any](feeds ...Feed[T]) *Ahead[T] {
	return newAhead(feeds, aheadChunk, aheadDepth)
}

// newAhead is NewAhead with explicit chunk size and depth (tests use
// small chunks to reach the chunk boundaries).
func newAhead[T any](feeds []Feed[T], chunk, depth int) *Ahead[T] {
	a := &Ahead[T]{
		streams: make([]*AheadStream[T], len(feeds)),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	sizes := make([]int, len(feeds))
	bufs := make([]int, len(feeds))
	total := 0
	for i, f := range feeds {
		// No bigger or more buffers than the limit can ever fill.
		sizes[i] = min(chunk, max(f.Limit, 0))
		if sizes[i] > 0 {
			bufs[i] = min(depth, (f.Limit+sizes[i]-1)/sizes[i])
		}
		total += bufs[i]
		a.streams[i] = &AheadStream[T]{id: i, full: make(chan aheadBatch[T], bufs[i])}
	}
	a.free = make(chan aheadSlot[T], total)
	// Queue the buffers round-robin so the first fills alternate
	// between the streams.
	for k := 0; k < depth; k++ {
		for i := range feeds {
			if k < bufs[i] {
				a.free <- aheadSlot[T]{id: i, buf: make([]T, 0, sizes[i])}
			}
		}
	}
	for _, s := range a.streams {
		s.free = a.free
	}
	go a.produce(feeds)
	return a
}

// Stream returns the consumer end of the i-th feed.
func (a *Ahead[T]) Stream(i int) *AheadStream[T] { return a.streams[i] }

// produce is the producer goroutine. A stream owns at most depth
// buffers and its full channel holds depth chunks, so the send never
// blocks: the producer waits only for an emptied buffer or for Stop.
func (a *Ahead[T]) produce(feeds []Feed[T]) {
	left := make([]int, len(feeds))
	live := 0
	for i, f := range feeds {
		left[i] = f.Limit
		if f.Limit > 0 {
			live++
		} else {
			close(a.streams[i].full)
		}
	}
	defer func() {
		for i, s := range a.streams {
			if left[i] > 0 {
				close(s.full)
			}
		}
		close(a.done)
	}()
	for live > 0 {
		select {
		case <-a.stop:
			return
		default:
		}
		var slot aheadSlot[T]
		select {
		case slot = <-a.free:
		case <-a.stop:
			return
		}
		i := slot.id
		if left[i] <= 0 {
			continue // the feed is done; its buffer retires
		}
		b := fill(slot.buf[:0], min(cap(slot.buf), left[i]), feeds[i].Next)
		left[i] -= len(b.items)
		if b.fault != nil {
			left[i] = 0
		}
		a.streams[i].full <- b
		if left[i] <= 0 {
			close(a.streams[i].full)
			live--
		}
	}
}

// fill appends n draws of next to buf. A panic in next ends the chunk
// early and is carried in the batch instead of crashing the producer.
func fill[T any](buf []T, n int, next func() T) (b aheadBatch[T]) {
	defer func() {
		if v := recover(); v != nil {
			b = aheadBatch[T]{items: buf, fault: v}
		}
	}()
	for i := 0; i < n; i++ {
		buf = append(buf, next())
	}
	return aheadBatch[T]{items: buf}
}

// Next returns the stream's next item. If the feed's Next panicked on
// the corresponding draw, Next panics with the same value; drawing more
// than the feed's limit also panics, as does Next after Stop.
func (s *AheadStream[T]) Next() T {
	if s.pos == len(s.cur) {
		s.refill()
	}
	v := s.cur[s.pos]
	s.pos++
	return v
}

// refill swaps the exhausted chunk for the next drawn one. It panics
// with the feed's panic value when that is the next draw, and on a
// stream drawn past its limit or already stopped.
func (s *AheadStream[T]) refill() {
	for s.pos == len(s.cur) {
		if f := s.fault; f != nil {
			s.fault = nil
			panic(f)
		}
		if s.stopped {
			panic("runner: AheadStream.Next after Stop")
		}
		if s.cur != nil {
			s.free <- aheadSlot[T]{id: s.id, buf: s.cur[:0]} // room for every buffer: never blocks
		}
		b, ok := <-s.full
		if !ok {
			s.cur, s.pos = nil, 0
			panic("runner: AheadStream drawn past its limit")
		}
		s.cur, s.pos, s.fault = b.items, 0, b.fault
	}
}

// Leftover is what a stream drew that its consumer did not take: the
// items in order, and the value the feed's Next panicked with right
// after them (nil when it did not).
type Leftover[T any] struct {
	Items []T
	Fault any
}

// Stop ends the producer, waits for it to exit and returns every
// stream's leftover, indexed like the feeds. Later calls return nil.
func (a *Ahead[T]) Stop() []Leftover[T] {
	if a.stopped {
		return nil
	}
	a.stopped = true
	close(a.stop)
	<-a.done
	out := make([]Leftover[T], len(a.streams))
	for i, s := range a.streams {
		lo := Leftover[T]{Fault: s.fault}
		lo.Items = append(lo.Items, s.cur[s.pos:]...)
		for b := range s.full { // closed by the exited producer
			lo.Items = append(lo.Items, b.items...)
			lo.Fault = b.fault
		}
		out[i] = lo
		s.cur, s.pos, s.fault, s.stopped = nil, 0, nil, true
	}
	return out
}
