package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"
)

// poolOps is the length of each connection's pre-encoded command cycle.
// Commands are encoded before any timing starts, so the generator's
// per-request work is a copy into its write buffer.
const poolOps = 1 << 15

// opPool is one connection's pre-encoded command sequence.
type opPool struct {
	buf    []byte
	off    []int32 // command k is buf[off[k]:off[k+1]]
	member []int32
	inc    []int8 // ZINCRBY increment; 0 marks a ZRANK
}

func memberName(i int) string { return fmt.Sprintf("m:%05d", i) }

// appendCmd appends one RESP array of bulk strings.
func appendCmd(b []byte, args ...string) []byte {
	b = append(b, '*')
	b = strconv.AppendInt(b, int64(len(args)), 10)
	b = append(b, '\r', '\n')
	for _, a := range args {
		b = append(b, '$')
		b = strconv.AppendInt(b, int64(len(a)), 10)
		b = append(b, '\r', '\n')
		b = append(b, a...)
		b = append(b, '\r', '\n')
	}
	return b
}

func newPool(rng *rand.Rand, updateFrac float64) *opPool {
	p := &opPool{off: make([]int32, 1, poolOps+1), member: make([]int32, poolOps), inc: make([]int8, poolOps)}
	for k := range poolOps {
		m := rng.IntN(preloadMembers)
		p.member[k] = int32(m)
		if rng.Float64() < updateFrac {
			p.inc[k] = int8(1 + rng.IntN(9))
			p.buf = appendCmd(p.buf, "ZINCRBY", zkey, strconv.Itoa(int(p.inc[k])), memberName(m))
		} else {
			p.buf = appendCmd(p.buf, "ZRANK", zkey, memberName(m))
		}
		p.off = append(p.off, int32(len(p.buf)))
	}
	return p
}

func (p *opPool) cmd(k int) []byte { return p.buf[p.off[k]:p.off[k+1]] }

// preloadScores draws the preloaded integer score of every member.
func preloadScores(seed uint64) []float64 {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	s := make([]float64, preloadMembers)
	for i := range s {
		s[i] = float64(rng.IntN(1_000_000))
	}
	return s
}

// reply is one decoded RESP reply. bulk aliases the reader's buffer and is
// valid only until the next read.
type reply struct {
	kind byte
	n    int64
	bulk []byte
}

var errProto = errors.New("malformed reply")

func readReply(r *bufio.Reader) (reply, error) {
	line, err := r.ReadSlice('\n')
	if err != nil {
		return reply{}, err
	}
	if len(line) < 3 || line[len(line)-2] != '\r' {
		return reply{}, errProto
	}
	rep := reply{kind: line[0], bulk: line[1 : len(line)-2]}
	switch rep.kind {
	case '+', '-':
		return rep, nil
	case ':', '*':
		rep.n, err = strconv.ParseInt(string(rep.bulk), 10, 64)
		rep.bulk = nil
		return rep, err
	case '$':
		if rep.n, err = strconv.ParseInt(string(rep.bulk), 10, 64); err != nil || rep.n < 0 {
			return reply{}, errProto
		}
		b, err := r.Peek(int(rep.n) + 2)
		if err != nil {
			return reply{}, err
		}
		if b[rep.n] != '\r' || b[rep.n+1] != '\n' {
			return reply{}, errProto
		}
		rep.bulk = b[:rep.n]
		_, err = r.Discard(int(rep.n) + 2)
		return rep, err
	}
	return reply{}, errProto
}

// client is one load-generator connection. pos and incs persist across
// the warm-up and measured phases so the final-state check covers both.
type client struct {
	conn    net.Conn
	r       *bufio.Reader
	wbuf    []byte
	pool    *opPool
	pos     int
	incs    []int64 // per member: increments sent
	initial []float64
	arrival *rand.Rand // open-loop inter-arrival draws
}

func dialClient(addr string, pool *opPool, initial []float64, arrival *rand.Rand) (*client, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{
		conn: c, r: bufio.NewReaderSize(c, 64<<10), pool: pool,
		incs: make([]int64, preloadMembers), initial: initial, arrival: arrival,
	}, nil
}

// spanSamples are the client-side spans of each request, one slice entry
// per request (the entry index is the span id they share), in ns.
type spanSamples struct{ encode, write, wait, decode []int64 }

func (s *spanSamples) merge(o *spanSamples) {
	s.encode = append(s.encode, o.encode...)
	s.write = append(s.write, o.write...)
	s.wait = append(s.wait, o.wait...)
	s.decode = append(s.decode, o.decode...)
}

// loadStats is what one load phase saw from the client side.
type loadStats struct {
	reads, updates uint64 // commands sent, by class
	answered       uint64
	errReplies     uint64 // -ERR replies
	unanswered     uint64 // sent, no reply before the drain deadline
	backlog        uint64 // due, never sent before the drain deadline
	invalid        uint64 // well-formed check failures
	firstInvalid   string
	lat            []int64 // per answered request, ns
	done           []int64 // per answered request: completion, ns after the phase start
	late           []int64 // generator lateness per request, ns
	elapsed        time.Duration
	spans          *spanSamples // nil when untraced
	realtime       bool         // the open-loop generator ran at real-time priority
	stolen         float64      // share of the guest's CPU time the host took (steal.go)
}

func (s *loadStats) attempted() uint64 { return s.reads + s.updates + s.backlog }

func (s *loadStats) failed() uint64 { return s.errReplies + s.unanswered + s.backlog }

func (s *loadStats) bad(format string, args ...any) {
	if s.invalid == 0 {
		s.firstInvalid = fmt.Sprintf(format, args...)
	}
	s.invalid++
}

func (s *loadStats) merge(o *loadStats) {
	s.reads += o.reads
	s.updates += o.updates
	s.answered += o.answered
	s.errReplies += o.errReplies
	s.unanswered += o.unanswered
	s.backlog += o.backlog
	s.realtime = s.realtime || o.realtime
	if s.invalid == 0 {
		s.firstInvalid = o.firstInvalid
	}
	s.invalid += o.invalid
	s.lat = append(s.lat, o.lat...)
	s.done = append(s.done, o.done...)
	s.late = append(s.late, o.late...)
	if o.spans != nil {
		if s.spans == nil {
			s.spans = &spanSamples{}
		}
		s.spans.merge(o.spans)
	}
}

// sent records command k of the pool as sent.
func (c *client) sent(k int, st *loadStats) {
	if inc := c.pool.inc[k]; inc != 0 {
		st.updates++
		c.incs[c.pool.member[k]] += int64(inc)
	} else {
		st.reads++
	}
}

// check validates the reply to pool command k: ZRANK must return a rank in
// [0, preloadMembers) and ZINCRBY an integral score no lower than the
// member's preload score plus this increment.
func (c *client) check(k int, rep reply, st *loadStats) {
	st.answered++
	if rep.kind == '-' {
		st.errReplies++
		return
	}
	m := c.pool.member[k]
	if inc := c.pool.inc[k]; inc != 0 {
		if rep.kind != '$' {
			st.bad("ZINCRBY %s: reply type %q", memberName(int(m)), rep.kind)
			return
		}
		v, err := strconv.ParseFloat(string(rep.bulk), 64)
		if err != nil || v != math.Trunc(v) || v < c.initial[m]+float64(inc) {
			st.bad("ZINCRBY %s: score %q below %v", memberName(int(m)), rep.bulk, c.initial[m]+float64(inc))
		}
		return
	}
	if rep.kind != ':' || rep.n < 0 || rep.n >= preloadMembers {
		st.bad("ZRANK %s: reply %q %d", memberName(int(m)), rep.kind, rep.n)
	}
}

// closedLoop sends depth pre-encoded commands in one write, reads their
// replies, and repeats until the deadline. A request's latency runs from
// its batch's write to the decode of its own reply; the generator is late
// by the gap between a batch's last reply and the next batch's write.
func (c *client) closedLoop(depth int, start, until time.Time, traced bool) (*loadStats, error) {
	st := &loadStats{}
	if traced {
		st.spans = &spanSamples{}
	}
	var lastDone time.Time
	encodeNs := make([]int64, depth)
	for time.Now().Before(until) {
		c.wbuf = c.wbuf[:0]
		for k := range depth {
			i := (c.pos + k) % poolOps
			if traced {
				t := time.Now()
				c.wbuf = append(c.wbuf, c.pool.cmd(i)...)
				encodeNs[k] = int64(time.Since(t))
			} else {
				c.wbuf = append(c.wbuf, c.pool.cmd(i)...)
			}
			c.sent(i, st)
		}
		t0 := time.Now()
		if !lastDone.IsZero() {
			st.late = append(st.late, int64(t0.Sub(lastDone)))
		}
		if _, err := c.conn.Write(c.wbuf); err != nil {
			return nil, fmt.Errorf("write: %w", err)
		}
		tw := time.Now()
		for k := range depth {
			i := (c.pos + k) % poolOps
			tav := tw
			if traced {
				if c.r.Buffered() == 0 {
					if _, err := c.r.Peek(1); err != nil {
						return nil, fmt.Errorf("read: %w", err)
					}
				}
				tav = time.Now()
			}
			rep, err := readReply(c.r)
			if err != nil {
				return nil, fmt.Errorf("read: %w", err)
			}
			td := time.Now()
			c.check(i, rep, st)
			st.lat = append(st.lat, int64(td.Sub(t0)))
			st.done = append(st.done, int64(td.Sub(start)))
			if traced {
				st.spans.encode = append(st.spans.encode, encodeNs[k])
				st.spans.write = append(st.spans.write, int64(tw.Sub(t0)))
				st.spans.wait = append(st.spans.wait, int64(tav.Sub(tw)))
				st.spans.decode = append(st.spans.decode, int64(td.Sub(tav)))
			}
			lastDone = td
		}
		c.pos = (c.pos + depth) % poolOps
	}
	return st, nil
}

// drive runs every client for d and merges their statistics.
//
// The generator's garbage collector is off while it drives: a collection
// cycle's assists and processor hand-offs delayed open-loop sends by
// milliseconds. A phase allocates a few tens of MB at most.
func drive(cs []*client, w workload, d time.Duration, traced bool) (*loadStats, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if w.rate > 0 {
		return openLoop(cs, w.rate, d, traced)
	}
	start := time.Now()
	until := start.Add(d)
	steal := readSteal()
	parts := make([]*loadStats, len(cs))
	errs := make([]error, len(cs))
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[i], errs[i] = c.closedLoop(w.depth, start, until, traced)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := &loadStats{elapsed: elapsed, stolen: stolenShare(steal, readSteal(), elapsed)}
	for i := range cs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		total.merge(parts[i])
	}
	return total, nil
}

// verifyFinal reads the whole set back and compares it with the preload
// plus every increment the clients sent, in ZRANGE order (score, then
// member).
func verifyFinal(c *client, all []*client) error {
	if _, err := c.conn.Write(appendCmd(nil, "ZRANGE", zkey, "0", "-1", "WITHSCORES")); err != nil {
		return err
	}
	head, err := readReply(c.r)
	if err != nil {
		return err
	}
	if head.kind != '*' || head.n != 2*preloadMembers {
		return fmt.Errorf("ZRANGE: header %q %d, want %d elements", head.kind, head.n, 2*preloadMembers)
	}
	type entry struct {
		member string
		score  float64
	}
	want := make([]entry, preloadMembers)
	for m := range want {
		want[m] = entry{memberName(m), c.initial[m]}
		for _, o := range all {
			want[m].score += float64(o.incs[m])
		}
	}
	sort.Slice(want, func(i, j int) bool {
		a, b := want[i], want[j]
		return a.score < b.score || (a.score == b.score && a.member < b.member)
	})
	for i := range want {
		mem, err := readReply(c.r)
		if err != nil || mem.kind != '$' {
			return fmt.Errorf("ZRANGE element %d: %v", 2*i, err)
		}
		if !bytes.Equal(mem.bulk, []byte(want[i].member)) {
			return fmt.Errorf("ZRANGE position %d: member %q, want %q (score %v)", i, mem.bulk, want[i].member, want[i].score)
		}
		sc, err := readReply(c.r)
		if err != nil || sc.kind != '$' {
			return fmt.Errorf("ZRANGE element %d: %v", 2*i+1, err)
		}
		if v, err := strconv.ParseFloat(string(sc.bulk), 64); err != nil || v != want[i].score {
			return fmt.Errorf("ZRANGE %s: score %q, want %v", want[i].member, sc.bulk, want[i].score)
		}
	}
	return nil
}
