package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// span is one timed call the harness made into a layer. Spans of one
// request, access or batch share an id; a child names its parent's
// index in the recorder. Times are nanoseconds since the recorder's
// epoch (a monotonic clock reading).
type span struct {
	id         uint64
	start, end int64
	parent     int32
	name       uint16
}

// recorder keeps spans in memory until the run ends. It is not safe for
// concurrent use: each goroutine records into its own recorder and the
// owner merges them afterwards.
type recorder struct {
	epoch time.Time
	// clockNs is what one now() costs. The interval between two
	// readings carries about one call's cost besides the work it
	// times, so a leaf span's self time is net of it.
	clockNs float64
	names   *[]string
	spans   []span
	limit   int
	dropped int
}

// newRecorder returns a recorder with room for limit spans.
func newRecorder(limit int) *recorder {
	r := &recorder{epoch: time.Now(), names: new([]string), spans: spanBuffer(limit), limit: limit}
	r.clockNs = r.clockCost()
	return r
}

// clockCost measures one now() call: the least mean over rounds of
// back-to-back calls, so a preempted round does not count.
func (r *recorder) clockCost() float64 {
	const rounds, calls = 16, 4096
	best := math.Inf(1)
	for i := 0; i < rounds; i++ {
		t0 := r.now()
		for j := 0; j < calls; j++ {
			r.now()
		}
		best = min(best, float64(r.now()-t0)/(calls+1))
	}
	return best
}

// fork returns an empty recorder with room for limit spans, sharing r's
// epoch and name table, for another goroutine. Intern every name before
// forking.
func (r *recorder) fork(limit int) *recorder {
	return &recorder{epoch: r.epoch, clockNs: r.clockNs, names: r.names, spans: spanBuffer(limit), limit: limit}
}

// layerSpans is about how many spans a traced run keeps per layer.
const layerSpans = 1 << 15

// stride is the sampling interval that keeps about layerSpans of n
// calls.
func stride(n int) int { return max(1, (n+layerSpans-1)/layerSpans) }

// spanBuffer allocates room for n spans and touches every page of it,
// so recording neither copies a growing slice nor takes a page fault
// inside a timed span.
func spanBuffer(n int) []span {
	buf := make([]span, n)
	const perPage = 4096 / 32
	for i := 0; i < n; i += perPage {
		buf[i].end = 1
	}
	return buf[:0]
}

// name interns a span name.
func (r *recorder) name(s string) uint16 {
	for i, n := range *r.names {
		if n == s {
			return uint16(i)
		}
	}
	*r.names = append(*r.names, s)
	return uint16(len(*r.names) - 1)
}

// now reads the clock as an offset from the epoch.
func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// room reports whether n more spans fit; a caller records a span and
// its children only when they all fit, so no child loses its parent.
func (r *recorder) room(n int) bool {
	if len(r.spans)+n > r.limit {
		r.dropped += n
		return false
	}
	return true
}

// add records a span and returns its index.
func (r *recorder) add(name uint16, id uint64, parent int32, start, end int64) int32 {
	r.spans = append(r.spans, span{id: id, start: start, end: end, parent: parent, name: name})
	return int32(len(r.spans) - 1)
}

// timed records a root span around fn and returns fn's duration.
func (r *recorder) timed(name uint16, id uint64, fn func()) time.Duration {
	start := r.now()
	fn()
	end := r.now()
	if r.room(1) {
		r.add(name, id, -1, start, end)
	}
	return time.Duration(end - start)
}

// merge appends other's spans, re-basing their parent indices.
func (r *recorder) merge(other *recorder) {
	base := int32(len(r.spans))
	for _, s := range other.spans {
		if s.parent >= 0 {
			s.parent += base
		}
		r.spans = append(r.spans, s)
	}
	r.dropped += other.dropped
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	count int
	// selfNs and durNs sum self time and duration over the spans.
	selfNs, durNs float64
}

func (s *layerStat) meanSelf() float64 {
	if s == nil || s.count == 0 {
		return 0
	}
	return s.selfNs / float64(s.count)
}

func (s *layerStat) countOrZero() int {
	if s == nil {
		return 0
	}
	return s.count
}

func (s *layerStat) meanDur() float64 {
	if s == nil || s.count == 0 {
		return 0
	}
	return s.durNs / float64(s.count)
}

// stats computes each span's self time (its duration minus the part of
// its interval its children cover, or for a leaf its duration minus the
// clock's cost) and aggregates by name.
func (r *recorder) stats() map[string]*layerStat {
	// Children sorted by (parent, start) so each parent's covered
	// interval is one sweep.
	var kids []int32
	for i, s := range r.spans {
		if s.parent >= 0 {
			kids = append(kids, int32(i))
		}
	}
	sort.Slice(kids, func(a, b int) bool {
		sa, sb := r.spans[kids[a]], r.spans[kids[b]]
		if sa.parent != sb.parent {
			return sa.parent < sb.parent
		}
		return sa.start < sb.start
	})
	covered := make([]int64, len(r.spans))
	parent := make([]bool, len(r.spans))
	for i := 0; i < len(kids); {
		p := r.spans[kids[i]].parent
		ps := r.spans[p]
		var total int64
		curStart, curEnd := int64(-1), int64(-1)
		for ; i < len(kids) && r.spans[kids[i]].parent == p; i++ {
			c := r.spans[kids[i]]
			s, e := max(c.start, ps.start), min(c.end, ps.end)
			if e <= s {
				continue
			}
			if s > curEnd {
				if curEnd > curStart {
					total += curEnd - curStart
				}
				curStart, curEnd = s, e
			} else if e > curEnd {
				curEnd = e
			}
		}
		if curEnd > curStart {
			total += curEnd - curStart
		}
		covered[p], parent[p] = total, true
	}
	out := make(map[string]*layerStat)
	for i, s := range r.spans {
		n := (*r.names)[s.name]
		st := out[n]
		if st == nil {
			st = &layerStat{}
			out[n] = st
		}
		dur := float64(s.end - s.start)
		st.count++
		st.durNs += dur
		st.selfNs += dur - float64(covered[i])
		if !parent[i] {
			st.selfNs -= r.clockNs
		}
	}
	return out
}

// write saves the spans as tab-separated lines: name, id, parent index,
// start and end in nanoseconds since the epoch.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# name\tid\tparent\tstart_ns\tend_ns\t(dropped %d)\n", r.dropped)
	for _, s := range r.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", (*r.names)[s.name], s.id, s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
