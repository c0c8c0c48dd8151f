package main

import (
	"fmt"
	"net"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// drainGrace bounds how long an open-loop phase waits, after its last due
// time, for the generator to send what is due and the server to answer.
const drainGrace = 2 * time.Second

// arrival is one open-loop request: when it is due after the phase start,
// its connection, and its index among that connection's requests.
type arrival struct {
	due  time.Duration
	conn int
	k    int
}

// openConn is one connection's side of an open-loop phase.
type openConn struct {
	c        *client
	fd       int
	pos0     int
	due      []time.Duration
	sentN    int // requests written
	received int // replies decoded
	st       loadStats
	// traced only: per-request span boundaries, ns since the phase start
	sendAt, encoded, written []int64
}

// openLoop offers rate requests/s split evenly over the connections, each
// an independent seeded Poisson stream, and sends every request alone, in
// a write of its own, at its due time. Latency runs from the due time, so
// a stall also delays every request queued behind it; lateness is send
// time minus due time.
//
// Sending and receiving share one event loop on one OS thread, waiting in
// epoll_pwait2 for either the next due time or a reply: the runtime's own
// timers round sub-millisecond sleeps up to about a millisecond. The
// thread asks for real-time (SCHED_FIFO) priority, because under the
// server's load an ordinary thread woke hundreds of microseconds late at
// p99. Without the privilege it runs at normal priority with 1 ns timer
// slack; loadStats.realtime records which one it got, and
// loadgen.cpu_us_per_req what the loop cost.
func openLoop(cs []*client, rate float64, d time.Duration, traced bool) (*loadStats, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	realtime := setFIFO(true) == nil
	if realtime {
		defer setFIFO(false)
	}
	const prSetTimerSlack = 29
	// Best effort: a failure leaves the default 50 µs slack, which the
	// lateness metric then shows.
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)

	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, fmt.Errorf("epoll_create1: %w", err)
	}
	defer syscall.Close(epfd)
	per := make([]*openConn, len(cs))
	var all []arrival
	for i, c := range cs {
		if c.r.Buffered() != 0 {
			return nil, fmt.Errorf("connection %d has %d unread reply bytes", i, c.r.Buffered())
		}
		oc := &openConn{c: c, pos0: c.pos}
		rc, err := c.conn.(*net.TCPConn).SyscallConn()
		if err != nil {
			return nil, err
		}
		if err := rc.Control(func(fd uintptr) { oc.fd = int(fd) }); err != nil {
			return nil, err
		}
		ev := syscall.EpollEvent{Events: syscall.EPOLLIN, Fd: int32(i)}
		if err := syscall.EpollCtl(epfd, syscall.EPOLL_CTL_ADD, oc.fd, &ev); err != nil {
			return nil, fmt.Errorf("epoll_ctl: %w", err)
		}
		for t := time.Duration(0); ; {
			t += time.Duration(c.arrival.ExpFloat64() / rate * float64(len(cs)) * 1e9)
			if t >= d {
				break
			}
			all = append(all, arrival{due: t, conn: i, k: len(oc.due)})
			oc.due = append(oc.due, t)
		}
		n := len(oc.due)
		oc.st.late = make([]int64, 0, n)
		oc.st.lat, oc.st.done = make([]int64, 0, n), make([]int64, 0, n)
		if traced {
			oc.st.spans = &spanSamples{}
			oc.sendAt, oc.encoded, oc.written = make([]int64, n), make([]int64, n), make([]int64, n)
		}
		per[i] = oc
	}
	// Two draws can round to the same due time; ties keep each
	// connection's own order, which its replies follow.
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		return a.due < b.due || (a.due == b.due && (a.conn < b.conn || (a.conn == b.conn && a.k < b.k)))
	})

	// The schedule is fixed before the clock starts, so building it does
	// not make the first requests late.
	start := time.Now()
	steal := readSteal()
	giveUp := start.Add(d + drainGrace)
	events := make([]syscall.EpollEvent, len(per))
	next, pending := 0, len(all)
	for pending > 0 {
		now := time.Now()
		for ; next < len(all) && !start.Add(all[next].due).After(now); next++ {
			if err := per[all[next].conn].send(all[next], start, now, traced); err != nil {
				return nil, err
			}
			now = time.Now()
		}
		if now.After(giveUp) {
			break
		}
		wake := giveUp
		if next < len(all) {
			wake = start.Add(all[next].due)
		}
		n, err := epollWait(epfd, events, wake.Sub(now))
		if err != nil {
			return nil, err
		}
		for _, ev := range events[:n] {
			oc := per[ev.Fd]
			// One read syscall brings in whatever has arrived; every
			// complete reply in it is decoded now.
			for first := true; first || oc.c.r.Buffered() > 0; first = false {
				if oc.received == oc.sentN {
					return nil, fmt.Errorf("connection %d: reply with no request outstanding", ev.Fd)
				}
				if err := oc.receive(start, traced); err != nil {
					return nil, err
				}
				pending--
			}
		}
	}
	total := &loadStats{elapsed: d, realtime: realtime, stolen: stolenShare(steal, readSteal(), time.Since(start))}
	for _, oc := range per {
		oc.c.pos = (oc.pos0 + len(oc.due)) % poolOps
		oc.st.backlog = uint64(len(oc.due) - oc.sentN)
		oc.st.unanswered = uint64(oc.sentN - oc.received)
		total.merge(&oc.st)
	}
	return total, nil
}

// send writes request a, due at start+a.due, at time now.
func (oc *openConn) send(a arrival, start, now time.Time, traced bool) error {
	i := (oc.pos0 + a.k) % poolOps
	oc.c.sent(i, &oc.st)
	oc.st.late = append(oc.st.late, int64(now.Sub(start.Add(a.due))))
	oc.c.wbuf = append(oc.c.wbuf[:0], oc.c.pool.cmd(i)...)
	if traced {
		oc.sendAt[a.k] = int64(now.Sub(start))
		oc.encoded[a.k] = int64(time.Since(start))
	}
	if _, err := oc.c.conn.Write(oc.c.wbuf); err != nil {
		return fmt.Errorf("write: %w", err)
	}
	if traced {
		oc.written[a.k] = int64(time.Since(start))
	}
	oc.sentN++
	return nil
}

// receive decodes the connection's next reply.
func (oc *openConn) receive(start time.Time, traced bool) error {
	k := oc.received
	if oc.c.r.Buffered() == 0 {
		if _, err := oc.c.r.Peek(1); err != nil {
			return fmt.Errorf("read: %w", err)
		}
	}
	t0 := time.Now()
	rep, err := readReply(oc.c.r)
	if err != nil {
		return fmt.Errorf("read: %w", err)
	}
	td := time.Now()
	oc.c.check((oc.pos0+k)%poolOps, rep, &oc.st)
	oc.st.lat = append(oc.st.lat, int64(td.Sub(start.Add(oc.due[k]))))
	oc.st.done = append(oc.st.done, int64(td.Sub(start)))
	if traced {
		decodeAt := int64(t0.Sub(start))
		sp := oc.st.spans
		sp.encode = append(sp.encode, oc.encoded[k]-oc.sendAt[k])
		sp.write = append(sp.write, oc.written[k]-oc.encoded[k])
		sp.wait = append(sp.wait, max(0, decodeAt-oc.written[k]))
		sp.decode = append(sp.decode, int64(td.Sub(t0)))
	}
	oc.received++
	return nil
}

// epollWait is epoll_pwait2 (Linux 5.11+): unlike epoll_wait its timeout
// has nanosecond resolution. It is issued as a raw system call, so the
// thread keeps its scheduler slot while it waits; a signal (the runtime's
// preemption request) ends the wait early with no events.
func epollWait(epfd int, events []syscall.EpollEvent, timeout time.Duration) (int, error) {
	const sysEpollPwait2 = 441
	ts := syscall.NsecToTimespec(int64(max(timeout, 0)))
	n, _, errno := syscall.Syscall6(sysEpollPwait2, uintptr(epfd),
		uintptr(unsafe.Pointer(&events[0])), uintptr(len(events)), uintptr(unsafe.Pointer(&ts)), 0, 0)
	switch errno {
	case 0:
		return int(n), nil
	case syscall.EINTR:
		return 0, nil
	}
	return 0, fmt.Errorf("epoll_pwait2: %w", errno)
}

// setFIFO moves the calling thread to SCHED_FIFO priority 1, or back to
// SCHED_OTHER.
func setFIFO(on bool) error {
	const schedOther, schedFIFO = 0, 1
	policy, param := schedOther, int32(0)
	if on {
		policy, param = schedFIFO, 1
	}
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, uintptr(policy), uintptr(unsafe.Pointer(&param)))
	if errno != 0 {
		return errno
	}
	return nil
}
