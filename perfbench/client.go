package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"syscall"
	"unsafe"

	"molcache/internal/rng"
)

// Request verbs the load generators issue.
const (
	opGet byte = 'G'
	opSet byte = 'S'
	opDel byte = 'D'
)

// tenantSpec is one TENANT registration.
type tenantSpec struct {
	name       string
	goal       float64
	lineFactor int
}

// pending is one request awaiting its reply.
type pending struct {
	id uint64
	// due is when the request was due to be sent (open loop) or was
	// queued (closed loop), in nanoseconds on the window's clock.
	due    int64
	verb   byte
	tenant uint8
	key    int32
	// version is the value version the reply must show: for GET the
	// version last SET on this connection (0: absent), for SET the new
	// version, for DEL the version being deleted (0: absent).
	version uint32
}

// client is one load-generating connection. It owns a disjoint slice
// of every tenant's key space and remembers the version it last SET for
// each of its keys, so every reply can be checked exactly.
type client struct {
	id   int
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	// reads counts read calls on the connection.
	reads int64

	tenants  []tenantSpec
	keyNames []string
	valueLen int
	model    [][]uint32 // [tenant][key] version last SET (0: absent)
	nextVer  uint32
	seq      uint64

	req, val, got []byte
	// rec keeps a copy of the bytes sent while recLimit allows; recFirst
	// is the sequence number of its first request.
	rec      []byte
	recLimit int
	recFirst uint64
}

type countingReader struct{ c *client }

func (r countingReader) Read(p []byte) (int, error) {
	r.c.reads++
	return r.c.conn.Read(p)
}

func dialClient(addr string, id int, tenants []tenantSpec, keys, valueLen int) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &client{id: id, conn: conn, tenants: tenants, valueLen: valueLen}
	c.br = bufio.NewReader(countingReader{c})
	c.bw = bufio.NewWriter(conn)
	for k := 0; k < keys; k++ {
		c.keyNames = append(c.keyNames, "c"+strconv.Itoa(id)+"-"+strconv.Itoa(k))
	}
	c.model = make([][]uint32, len(tenants))
	for t := range c.model {
		c.model[t] = make([]uint32, keys)
	}
	return c, nil
}

// record starts keeping a copy of the bytes sent, up to limit bytes,
// allocated up front so the send path never copies a growing buffer.
func (c *client) record(limit int) {
	c.rec, c.recLimit, c.recFirst = make([]byte, 0, limit), limit, c.seq
}

// appendValue appends the n-byte value of one (connection, tenant, key,
// version): a deterministic pseudo-random fill, so a GET reply can be
// compared byte for byte without keeping the values.
func appendValue(dst []byte, conn, tenant, key int, version uint32, n int) []byte {
	x := uint64(conn)<<56 ^ uint64(tenant)<<48 ^ uint64(key)<<32 ^ uint64(version)
	for i := 0; i < n; i += 8 {
		x += 0x9e3779b97f4a7c15
		z := (x ^ x>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
		for j := 0; j < 8 && i+j < n; j++ {
			dst = append(dst, byte(z>>(8*j)))
		}
	}
	return dst
}

// send encodes p, updates the connection's model and buffers the
// request; the caller flushes.
func (c *client) send(p *pending) error {
	p.id = uint64(c.id)<<40 | c.seq
	c.seq++
	t, k := c.tenants[p.tenant].name, c.keyNames[p.key]
	versions := c.model[p.tenant]
	req := c.req[:0]
	switch p.verb {
	case opGet:
		p.version = versions[p.key]
		req = append(append(append(append(append(req, "GET "...), t...), ' '), k...), "\r\n"...)
	case opSet:
		c.nextVer++
		p.version = c.nextVer
		versions[p.key] = p.version
		req = append(append(append(append(append(req, "SET "...), t...), ' '), k...), ' ')
		req = append(strconv.AppendInt(req, int64(c.valueLen), 10), "\r\n"...)
		req = append(appendValue(req, c.id, int(p.tenant), int(p.key), p.version, c.valueLen), "\r\n"...)
	case opDel:
		p.version = versions[p.key]
		versions[p.key] = 0
		req = append(append(append(append(append(req, "DEL "...), t...), ' '), k...), "\r\n"...)
	}
	c.req = req
	if len(c.rec)+len(req) <= c.recLimit {
		c.rec = append(c.rec, req...)
	}
	_, err := c.bw.Write(req)
	return err
}

// malformed is a reply the client cannot parse; the stream is then
// unusable.
type malformed struct{ line string }

func (e *malformed) Error() string { return fmt.Sprintf("malformed reply %q", e.line) }

func validHit(tok []byte) bool { return string(tok) == "HIT" || string(tok) == "MISS" }

// readReply reads the reply to p and reports whether it is the one p's
// expectation allows: a GET returns exactly the value this connection
// last SET for the key, or NOTFOUND when it never set it or deleted it;
// a SET is STORED; a DEL is DELETED exactly when the key was present.
// An ERR reply or a wrong value is a failed request; an error means the
// stream can no longer be parsed.
func (c *client) readReply(p *pending) (bool, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return false, err
	}
	if !bytes.HasSuffix(line, []byte("\r\n")) {
		return false, &malformed{string(line)}
	}
	line = line[:len(line)-2]
	word, rest, _ := bytes.Cut(line, []byte(" "))
	switch string(word) {
	case "VALUE":
		hit, size, _ := bytes.Cut(rest, []byte(" "))
		n, err := strconv.Atoi(string(size))
		if !validHit(hit) || err != nil || n < 0 {
			return false, &malformed{string(line)}
		}
		if cap(c.got) < n+2 {
			c.got = make([]byte, n+2)
		}
		got := c.got[:n+2]
		if _, err := io.ReadFull(c.br, got); err != nil {
			return false, err
		}
		if got[n] != '\r' || got[n+1] != '\n' {
			return false, &malformed{"VALUE body without CRLF"}
		}
		if p.verb != opGet || p.version == 0 {
			return false, nil
		}
		c.val = appendValue(c.val[:0], c.id, int(p.tenant), int(p.key), p.version, c.valueLen)
		return bytes.Equal(got[:n], c.val), nil
	case "NOTFOUND":
		if len(rest) != 0 {
			return false, &malformed{string(line)}
		}
		return (p.verb == opGet || p.verb == opDel) && p.version == 0, nil
	case "STORED":
		if !validHit(rest) {
			return false, &malformed{string(line)}
		}
		return p.verb == opSet, nil
	case "DELETED":
		if !validHit(rest) {
			return false, &malformed{string(line)}
		}
		return p.verb == opDel && p.version != 0, nil
	case "ERR":
		return false, nil
	}
	return false, &malformed{string(line)}
}

// tenant registers t and checks the OK reply.
func (c *client) tenant(t tenantSpec) error {
	line := fmt.Sprintf("TENANT %s %g", t.name, t.goal)
	if t.lineFactor > 0 {
		line += " " + strconv.Itoa(t.lineFactor)
	}
	if _, err := c.bw.WriteString(line + "\r\n"); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	reply, err := c.br.ReadString('\n')
	if err != nil {
		return err
	}
	if len(reply) < 4 || reply[:3] != "OK " {
		return fmt.Errorf("TENANT %s: reply %q", t.name, reply)
	}
	return nil
}

// opGen draws a connection's request stream, deterministic in its seed.
type opGen struct {
	src     *rng.Source
	keys    int
	tenants int
	// mixed selects Client.Drive's mix (40% SET, 50% GET, 10% DEL,
	// three in four requests on the hot eighth of the keys) over every
	// tenant; otherwise 95% GET and 5% SET, uniform over the keys of
	// tenant 0.
	mixed bool
}

func (g *opGen) next(p *pending) {
	if !g.mixed {
		p.tenant = 0
		p.key = int32(g.src.Intn(g.keys))
		p.verb = opGet
		if g.src.Intn(100) >= 95 {
			p.verb = opSet
		}
		return
	}
	p.tenant = uint8(g.src.Intn(g.tenants))
	idx := g.src.Intn(g.keys)
	if g.src.Intn(4) > 0 {
		idx = g.src.Intn(g.keys/8 + 1)
	}
	p.key = int32(idx)
	switch op := g.src.Intn(10); {
	case op < 4:
		p.verb = opSet
	case op < 9:
		p.verb = opGet
	default:
		p.verb = opDel
	}
}

// connStats is one connection's share of a window.
type connStats struct {
	sent, replies, good, failed int64
	lat                         latencies
	lag                         []float64 // microseconds
	// start is the window's start; replies and good count the replies
	// and the good ones by the second they arrived in.
	start             int64
	replySec, goodSec perSecond
	err               error
}

// closedLoop keeps depth requests in flight on c until the deadline,
// then drains them. Replies are flushed for as long as the read buffer
// holds more replies, so a burst of replies triggers one burst of
// requests. Latency runs from when a request was queued.
func (c *client) closedLoop(g *opGen, depth int, clk *recorder, reqName uint16, traced bool, start, deadline, limit int64) connStats {
	st := connStats{start: start}
	ring := make([]pending, depth)
	head, n := 0, 0
	issue := func(now int64) {
		p := &ring[(head+n)%depth]
		*p = pending{due: now}
		g.next(p)
		if err := c.send(p); err != nil && st.err == nil {
			st.err = err
		}
		st.sent++
		n++
	}
	now := clk.now()
	for n < depth {
		issue(now)
	}
	for n > 0 {
		if st.err != nil {
			st.failed += int64(n)
			break
		}
		if c.br.Buffered() == 0 {
			if err := c.bw.Flush(); err != nil {
				st.err = err
				continue
			}
		}
		p := ring[head]
		ok, err := c.readReply(&p)
		now = clk.now()
		head = (head + 1) % depth
		n--
		if err != nil {
			st.err = err
			st.failed++
			continue
		}
		st.note(p, ok, now, limit)
		if traced && clk.room(1) {
			clk.add(reqName, p.id, -1, p.due, now)
		}
		if now < deadline {
			issue(now)
		}
	}
	return st
}

// note accounts one reply.
func (st *connStats) note(p pending, ok bool, now, limit int64) {
	st.replies++
	st.replySec.add(now - st.start)
	lat := now - p.due
	st.lat.add(float64(lat) / 1e3)
	if !ok {
		st.failed++
		return
	}
	if lat <= limit {
		st.good++
		st.goodSec.add(now - st.start)
	}
}

// drain reads the replies to the requests the generator hands over on
// ch, in order, timing each from when it was due.
func (c *client) drain(ch <-chan pending, clk *recorder, reqName uint16, traced bool, start, limit int64) connStats {
	st := connStats{start: start}
	for p := range ch {
		if st.err != nil {
			st.failed++
			continue
		}
		ok, err := c.readReply(&p)
		now := clk.now()
		if err != nil {
			st.err = err
			st.failed++
			continue
		}
		st.note(p, ok, now, limit)
		if traced && clk.room(1) {
			clk.add(reqName, p.id, -1, p.due, now)
		}
	}
	return st
}

// pacer puts the open-loop generator to sleep until a request is due.
// time.Sleep rounds sub-millisecond waits up to the runtime's timer
// granularity, which would turn the schedule into millisecond bursts;
// nanosleep or spinning would hold a CPU the server needs. A Linux
// timerfd read through the runtime's netpoller does neither: the
// goroutine gives its CPU back and wakes within microseconds.
type pacer struct {
	f  *os.File
	fd uintptr
}

func newPacer() (*pacer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, 1 /* CLOCK_MONOTONIC */, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// until returns once the clock reaches due.
func (p *pacer) until(clk *recorder, due int64) error {
	d := due - clk.now()
	if d <= 0 {
		return nil
	}
	// struct itimerspec: a zero interval, then the relative expiry.
	spec := [4]int64{0, 0, d / 1e9, d % 1e9}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec[0])), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	_, err := p.f.Read(expirations[:])
	return err
}
