package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one nrredis process under test.
type server struct {
	cmd         *exec.Cmd
	args        []string
	addr        string // RESP listener
	metricsAddr string // HTTP sidecar
	stderr      bytes.Buffer
	exited      chan struct{}
}

// freePort returns a loopback address no listener holds right now.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServer launches nrredis with its shipped defaults; only the two
// loopback listen addresses are chosen here. It returns once the process
// has been started, not once it serves.
func startServer(bin string) (*server, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	maddr, err := freePort()
	if err != nil {
		return nil, err
	}
	s := &server{addr: addr, metricsAddr: maddr, exited: make(chan struct{})}
	s.args = []string{"-addr", addr, "-metrics", maddr}
	s.cmd = exec.Command(bin, s.args...)
	s.cmd.Stderr = &s.stderr
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start nrredis: %w", err)
	}
	go func() {
		_ = s.cmd.Wait() // the exit status of a stopped server carries no information
		close(s.exited)
	}()
	return s, nil
}

// stop interrupts the server (its graceful shutdown path), kills it if it
// has not exited within five seconds, and waits for it to end.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(os.Interrupt)
	select {
	case <-s.exited:
		return
	case <-time.After(5 * time.Second):
	}
	_ = s.cmd.Process.Kill()
	<-s.exited
}

// awaitPing dials until the server accepts, then sends PING and waits for
// +PONG.
func (s *server) awaitPing(deadline time.Time) (net.Conn, *bufio.Reader, error) {
	for {
		select {
		case <-s.exited:
			return nil, nil, fmt.Errorf("nrredis exited during start-up: %s", s.stderr.String())
		default:
		}
		c, err := net.Dial("tcp", s.addr)
		if err == nil {
			r := bufio.NewReader(c)
			if _, err := c.Write(appendCmd(nil, "PING")); err != nil {
				c.Close()
				return nil, nil, err
			}
			rep, err := readReply(r)
			if err != nil || rep.kind != '+' || string(rep.bulk) != "PONG" {
				c.Close()
				return nil, nil, fmt.Errorf("PING: %q %v", rep.bulk, err)
			}
			return c, r, nil
		}
		if time.Now().After(deadline) {
			return nil, nil, fmt.Errorf("nrredis did not accept within the start-up deadline: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// preload ZADDs every member with its seeded score, pipelined in chunks,
// and checks every reply is :1 (a new member).
func preload(c net.Conn, r *bufio.Reader, scores []float64) error {
	const chunk = 500
	var buf []byte
	for lo := 0; lo < len(scores); lo += chunk {
		hi := min(lo+chunk, len(scores))
		buf = buf[:0]
		for m := lo; m < hi; m++ {
			buf = appendCmd(buf, "ZADD", zkey, strconv.FormatFloat(scores[m], 'f', -1, 64), memberName(m))
		}
		if _, err := c.Write(buf); err != nil {
			return err
		}
		for m := lo; m < hi; m++ {
			rep, err := readReply(r)
			if err != nil {
				return err
			}
			if rep.kind != ':' || rep.n != 1 {
				return fmt.Errorf("ZADD %s: reply %q %d", memberName(m), rep.kind, rep.n)
			}
		}
	}
	return nil
}

// setUp starts a server, waits for its first PING reply and preloads the
// set. The returned duration runs from process start to the end of the
// preload.
func setUp(bin string, scores []float64) (*server, time.Duration, error) {
	t0 := time.Now()
	s, err := startServer(bin)
	if err != nil {
		return nil, 0, err
	}
	c, r, err := s.awaitPing(t0.Add(30 * time.Second))
	if err == nil {
		err = preload(c, r, scores)
		c.Close()
	}
	setup := time.Since(t0)
	if err != nil {
		s.stop()
		return nil, 0, err
	}
	return s, setup, nil
}

var httpClient = &http.Client{Timeout: 10 * time.Second}

func (s *server) get(path string) (int, []byte, error) {
	resp, err := httpClient.Get("http://" + s.metricsAddr + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func (s *server) getJSON(path string, v any) error {
	code, body, err := s.get(path)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, code)
	}
	return json.Unmarshal(body, v)
}

// awaitMetrics polls /health until the HTTP sidecar answers.
func (s *server) awaitMetrics() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, _, err := s.get("/health")
		if err == nil && code == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("metrics sidecar not ready: status %d, %v", code, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// latencyCount is the exact part of one observed latency histogram: the
// mean is sum/count, so mean*count recovers the sum.
type latencyCount struct {
	Count  uint64 `json:"count"`
	MeanNs uint64 `json:"mean_ns"`
}

func (l latencyCount) sumNs() float64 { return float64(l.Count) * float64(l.MeanNs) }

// nrSnapshot is the slice of /metrics the benchmark reads.
type nrSnapshot struct {
	NR struct {
		Stats struct {
			Combines        uint64 `json:"combines"`
			CombinedOps     uint64 `json:"combined_ops"`
			ReaderRefreshes uint64 `json:"reader_refreshes"`
			HelpedEntries   uint64 `json:"helped_entries"`
			ReadOps         uint64 `json:"read_ops"`
			UpdateOps       uint64 `json:"update_ops"`
			ReaderAcquires  uint64 `json:"reader_acquires"`
			WriterAcquires  uint64 `json:"writer_acquires"`
			Panics          uint64 `json:"panics"`
			Stalls          uint64 `json:"stalls"`
		} `json:"stats"`
		Health struct {
			Poisoned     bool   `json:"poisoned"`
			Panics       uint64 `json:"panics"`
			Stalls       uint64 `json:"stalls"`
			StalledNodes []int  `json:"stalled_nodes"`
		} `json:"health"`
		Log struct {
			Tail uint64 `json:"tail"`
			Size uint64 `json:"size"`
		} `json:"log"`
		Observed struct {
			Read   latencyCount `json:"read"`
			Update latencyCount `json:"update"`
		} `json:"observed"`
	} `json:"nr"`
}

// memSnapshot is the runtime.MemStats slice of /debug/vars.
type memSnapshot struct {
	Memstats struct {
		Mallocs    uint64 `json:"Mallocs"`
		TotalAlloc uint64 `json:"TotalAlloc"`
		NumGC      uint64 `json:"NumGC"`
	} `json:"memstats"`
}

// procSnapshot is the server process as /proc reports it.
type procSnapshot struct {
	utimeTicks, stimeTicks uint64 // all threads, USER_HZ ticks
	syscr, syscw           uint64 // read- and write-class syscalls
	ctxSwitches            uint64 // summed over every thread
	hwmKB                  uint64 // VmHWM
}

// userHZ is the unit of /proc/<pid>/stat times; Linux fixes it at 100.
const userHZ = 100

func readProc(pid int) (procSnapshot, error) {
	var p procSnapshot
	base := fmt.Sprintf("/proc/%d", pid)
	stat, err := os.ReadFile(base + "/stat")
	if err != nil {
		return p, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	f := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
	if len(f) < 13 {
		return p, fmt.Errorf("short %s/stat", base)
	}
	p.utimeTicks, _ = strconv.ParseUint(f[11], 10, 64)
	p.stimeTicks, _ = strconv.ParseUint(f[12], 10, 64)
	io, err := os.ReadFile(base + "/io")
	if err != nil {
		return p, err
	}
	for _, line := range strings.Split(string(io), "\n") {
		k, v, _ := strings.Cut(line, ": ")
		n, _ := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
		switch k {
		case "syscr":
			p.syscr = n
		case "syscw":
			p.syscw = n
		}
	}
	status, err := os.ReadFile(base + "/status")
	if err != nil {
		return p, err
	}
	p.hwmKB = statusField(status, "VmHWM:")
	// The process-level status counts only the main thread's switches;
	// the goroutine hops happen on the other threads.
	tasks, err := filepath.Glob(base + "/task/*/status")
	if err != nil {
		return p, err
	}
	for _, t := range tasks {
		st, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		p.ctxSwitches += statusField(st, "voluntary_ctxt_switches:") + statusField(st, "nonvoluntary_ctxt_switches:")
	}
	return p, nil
}

// statusField returns the first number after key in a /proc status file.
func statusField(status []byte, key string) uint64 {
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				n, _ := strconv.ParseUint(f[0], 10, 64)
				return n
			}
		}
	}
	return 0
}

// snapshot is everything read from outside the server at one instant.
type snapshot struct {
	nr   nrSnapshot
	mem  memSnapshot
	proc procSnapshot
	self syscall.Rusage // the load generator's own CPU
}

// takeSnapshot reads the server's exports around a quiet point. The order
// keeps each source's own HTTP handling out of its neighbours' windows:
// /proc is read nearest the load, then /debug/vars, then /metrics.
func (s *server) takeSnapshot(before bool) (snapshot, error) {
	var sn snapshot
	steps := []func() error{
		func() error { return syscall.Getrusage(syscall.RUSAGE_SELF, &sn.self) },
		func() (err error) { sn.proc, err = readProc(s.cmd.Process.Pid); return err },
		func() error { return s.getJSON("/debug/vars", &sn.mem) },
		func() error { return s.getJSON("/metrics", &sn.nr) },
	}
	if before {
		for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
			steps[i], steps[j] = steps[j], steps[i]
		}
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return sn, err
		}
	}
	return sn, nil
}
