package miniredis

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/asplos17/nr/internal/baseline"
	"github.com/asplos17/nr/internal/topology"
)

func startServer(t *testing.T, method string) (*Server, net.Addr) {
	t.Helper()
	shared, err := NewShared(method, topology.New(2, 4, 1), 7)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(shared, 4)
	if err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan net.Addr, 1)
	go func() {
		if err := srv.Serve("127.0.0.1:0", func(a net.Addr) { addrCh <- a }); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	addr := <-addrCh
	t.Cleanup(srv.Close)
	return srv, addr
}

// client is a minimal RESP client for tests.
type client struct {
	conn net.Conn
	r    *bufio.Reader
}

func dial(t *testing.T, addr net.Addr) *client {
	t.Helper()
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &client{conn: conn, r: bufio.NewReader(conn)}
}

func (c *client) cmd(t *testing.T, args ...string) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "*%d\r\n", len(args))
	for _, a := range args {
		fmt.Fprintf(&b, "$%d\r\n%s\r\n", len(a), a)
	}
	if _, err := c.conn.Write([]byte(b.String())); err != nil {
		t.Fatal(err)
	}
	return c.readReply(t)
}

// pipeline sends every command in a single write, then reads one reply per
// command.
func (c *client) pipeline(t *testing.T, cmds ...[]string) []string {
	t.Helper()
	var b strings.Builder
	for _, args := range cmds {
		fmt.Fprintf(&b, "*%d\r\n", len(args))
		for _, a := range args {
			fmt.Fprintf(&b, "$%d\r\n%s\r\n", len(a), a)
		}
	}
	if _, err := c.conn.Write([]byte(b.String())); err != nil {
		t.Fatal(err)
	}
	replies := make([]string, len(cmds))
	for i := range replies {
		replies[i] = c.readReply(t)
	}
	return replies
}

func (c *client) readReply(t *testing.T) string {
	t.Helper()
	line, err := c.r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	line = strings.TrimRight(line, "\r\n")
	switch line[0] {
	case '+', '-', ':':
		return line
	case '$':
		if line == "$-1" {
			return "(nil)"
		}
		var n int
		fmt.Sscanf(line, "$%d", &n)
		data := make([]byte, n+2) // body + CRLF; the body may span lines (INFO)
		if _, err := io.ReadFull(c.r, data); err != nil {
			t.Fatal(err)
		}
		return string(data[:n])
	case '*':
		var n int
		fmt.Sscanf(line, "*%d", &n)
		items := make([]string, 0, n)
		for i := 0; i < n; i++ {
			items = append(items, c.readReply(t))
		}
		return strings.Join(items, ",")
	}
	t.Fatalf("unexpected reply %q", line)
	return ""
}

func TestServerEndToEnd(t *testing.T) {
	_, addr := startServer(t, MethodNR)
	c := dial(t, addr)
	if got := c.cmd(t, "PING"); got != "+PONG" {
		t.Errorf("PING = %q", got)
	}
	if got := c.cmd(t, "SET", "greeting", "hello"); got != "+OK" {
		t.Errorf("SET = %q", got)
	}
	if got := c.cmd(t, "GET", "greeting"); got != "hello" {
		t.Errorf("GET = %q", got)
	}
	if got := c.cmd(t, "GET", "missing"); got != "(nil)" {
		t.Errorf("GET missing = %q", got)
	}
	if got := c.cmd(t, "ZADD", "board", "10", "alice"); got != ":1" {
		t.Errorf("ZADD = %q", got)
	}
	c.cmd(t, "ZADD", "board", "5", "bob")
	c.cmd(t, "ZADD", "board", "15", "carol")
	if got := c.cmd(t, "ZRANK", "board", "alice"); got != ":1" {
		t.Errorf("ZRANK = %q", got)
	}
	if got := c.cmd(t, "ZINCRBY", "board", "20", "bob"); got != "25" {
		t.Errorf("ZINCRBY = %q", got)
	}
	if got := c.cmd(t, "ZRANGE", "board", "0", "-1"); got != "alice,carol,bob" {
		t.Errorf("ZRANGE = %q", got)
	}
	if got := c.cmd(t, "ZRANGE", "board", "0", "0", "WITHSCORES"); got != "alice,10" {
		t.Errorf("ZRANGE WITHSCORES = %q", got)
	}
	if got := c.cmd(t, "ZCARD", "board"); got != ":3" {
		t.Errorf("ZCARD = %q", got)
	}
	if got := c.cmd(t, "DBSIZE"); got != ":2" {
		t.Errorf("DBSIZE = %q", got)
	}
	if got := c.cmd(t, "BOGUS"); !strings.HasPrefix(got, "-ERR") {
		t.Errorf("BOGUS = %q", got)
	}
	if got := c.cmd(t, "ZADD", "greeting", "1", "m"); !strings.HasPrefix(got, "-ERR WRONGTYPE") {
		t.Errorf("type confusion = %q", got)
	}
}

func TestServerInlineCommands(t *testing.T) {
	_, addr := startServer(t, MethodSL)
	c := dial(t, addr)
	if _, err := c.conn.Write([]byte("PING\r\n")); err != nil {
		t.Fatal(err)
	}
	if got := c.readReply(t); got != "+PONG" {
		t.Errorf("inline PING = %q", got)
	}
}

func TestServerAllMethods(t *testing.T) {
	for _, method := range []string{MethodNR, MethodSL, MethodRWL, MethodFC, MethodFCP} {
		t.Run(method, func(t *testing.T) {
			_, addr := startServer(t, method)
			c := dial(t, addr)
			c.cmd(t, "ZADD", "s", "1", "x")
			if got := c.cmd(t, "ZSCORE", "s", "x"); got != "1" {
				t.Errorf("%s: ZSCORE = %q", method, got)
			}
		})
	}
	if _, err := NewShared("bogus", topology.New(1, 1, 1), 1); err == nil {
		t.Error("bogus method accepted")
	}
}

func TestServerConcurrentClients(t *testing.T) {
	_, addr := startServer(t, MethodNR)
	const clients, per = 6, 200
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		c := dial(t, addr)
		wg.Add(1)
		go func(g int, c *client) {
			defer wg.Done()
			member := fmt.Sprintf("m%d", g)
			for i := 0; i < per; i++ {
				c.cmd(t, "ZINCRBY", "hot", "1", member)
			}
		}(g, c)
	}
	wg.Wait()
	c := dial(t, addr)
	if got := c.cmd(t, "ZCARD", "hot"); got != fmt.Sprintf(":%d", clients) {
		t.Errorf("ZCARD = %q, want %d members", got, clients)
	}
	for g := 0; g < clients; g++ {
		if got := c.cmd(t, "ZSCORE", "hot", fmt.Sprintf("m%d", g)); got != fmt.Sprintf("%d", per) {
			t.Errorf("member m%d score = %q, want %d", g, got, per)
		}
	}
}

func TestServerDirect(t *testing.T) {
	shared, err := NewShared(MethodNR, topology.New(2, 2, 1), 3)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(shared, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ex, err := srv.Direct()
	if err != nil {
		t.Fatal(err)
	}
	ex.Execute(StoreOp{Cmd: CmdZAdd, Key: "z", Member: "m", Score: 2})
	if r := ex.Execute(StoreOp{Cmd: CmdZRank, Key: "z", Member: "m"}); !r.OK || r.Int != 0 {
		t.Errorf("direct ZRANK = %+v", r)
	}
}

func TestNewServerValidation(t *testing.T) {
	shared, _ := NewShared(MethodSL, topology.New(1, 1, 1), 1)
	if _, err := NewServer(shared, 0); err == nil {
		t.Error("0 workers accepted")
	}
}

// panicExec wraps an executor with an injected panic on SET kaboom, standing
// in for a contained NR user-code panic re-raised by Execute.
type panicExec struct {
	inner baseline.Executor[StoreOp, StoreResult]
}

func (p panicExec) Execute(op StoreOp) StoreResult {
	if op.Cmd == CmdSet && op.Key == "kaboom" {
		panic("injected store panic")
	}
	return p.inner.Execute(op)
}

type panicShared struct{ inner Shared }

func (p panicShared) Register() (baseline.Executor[StoreOp, StoreResult], error) {
	ex, err := p.inner.Register()
	if err != nil {
		return nil, err
	}
	return panicExec{ex}, nil
}

// TestServerWorkerSurvivesExecutePanic: a panic escaping the keyspace turns
// into an error reply for the offending command only; its handle goes back
// to the pool and every connection keeps working.
func TestServerWorkerSurvivesExecutePanic(t *testing.T) {
	inner, err := NewShared(MethodSL, topology.New(1, 2, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(panicShared{inner}, 2)
	if err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan net.Addr, 1)
	go func() { _ = srv.Serve("127.0.0.1:0", func(a net.Addr) { addrCh <- a }) }()
	addr := <-addrCh
	t.Cleanup(srv.Close)

	c := dial(t, addr)
	for i := 0; i < 3; i++ { // more panics than handles: none may leak
		if got := c.cmd(t, "SET", "kaboom", "x"); !strings.HasPrefix(got, "-ERR internal error") {
			t.Fatalf("panic op reply = %q, want -ERR internal error", got)
		}
	}
	// Same connection still works.
	if got := c.cmd(t, "SET", "fine", "1"); got != "+OK" {
		t.Errorf("SET after panic = %q", got)
	}
	// Inside a pipelined burst only the panicking command fails; its
	// neighbours, on either side, still run and answer in order.
	got := c.pipeline(t,
		[]string{"SET", "before", "b"},
		[]string{"SET", "kaboom", "x"},
		[]string{"SET", "after", "a"},
		[]string{"GET", "before"},
		[]string{"GET", "after"})
	want := []string{"+OK", "-ERR internal error", "+OK", "b", "a"}
	for i := range want {
		if !strings.HasPrefix(got[i], want[i]) {
			t.Errorf("burst reply %d = %q, want %q", i, got[i], want[i])
		}
	}
	// Fresh connections too.
	c2 := dial(t, addr)
	if got := c2.cmd(t, "GET", "fine"); got != "1" {
		t.Errorf("GET on new conn = %q", got)
	}
}

// TestServerCloseWithIdleClient: Close must return even while a client sits
// idle in a keepalive read (the pre-hardening server waited for the client
// to hang up first).
func TestServerCloseWithIdleClient(t *testing.T) {
	srv, addr := startServer(t, MethodSL)
	c := dial(t, addr)
	if got := c.cmd(t, "PING"); got != "+PONG" {
		t.Fatalf("PING = %q", got)
	}
	// Client idles; Close must not wait on it.
	done := make(chan struct{})
	go func() { srv.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung on an idle connection")
	}
	// The idle client observes the disconnect.
	if _, err := c.r.ReadByte(); err == nil {
		t.Error("idle connection still open after Close")
	}
}

// slowExec delays SET so a command can be in flight during Close.
type slowExec struct {
	inner baseline.Executor[StoreOp, StoreResult]
}

func (s slowExec) Execute(op StoreOp) StoreResult {
	if op.Cmd == CmdSet {
		time.Sleep(100 * time.Millisecond)
	}
	return s.inner.Execute(op)
}

type slowShared struct{ inner Shared }

func (s slowShared) Register() (baseline.Executor[StoreOp, StoreResult], error) {
	ex, err := s.inner.Register()
	if err != nil {
		return nil, err
	}
	return slowExec{ex}, nil
}

// TestServerCloseDrainsInFlight: a command already executing when Close is
// called still gets its reply before the connection goes down.
func TestServerCloseDrainsInFlight(t *testing.T) {
	inner, err := NewShared(MethodSL, topology.New(1, 2, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(slowShared{inner}, 2)
	if err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan net.Addr, 1)
	go func() { _ = srv.Serve("127.0.0.1:0", func(a net.Addr) { addrCh <- a }) }()
	addr := <-addrCh
	t.Cleanup(srv.Close)

	c := dial(t, addr)
	reply := make(chan string, 1)
	go func() { reply <- c.cmd(t, "SET", "slow", "v") }()
	time.Sleep(20 * time.Millisecond) // let the command reach the worker
	srv.Close()
	select {
	case got := <-reply:
		if got != "+OK" {
			t.Errorf("in-flight SET during Close = %q, want +OK", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight command never got its reply")
	}
}

// TestServerReadTimeoutDisconnectsIdleClient: WithReadTimeout bounds how
// long an idle connection can hold server resources.
func TestServerReadTimeoutDisconnectsIdleClient(t *testing.T) {
	shared, err := NewShared(MethodSL, topology.New(1, 2, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(shared, 1, WithReadTimeout(50*time.Millisecond), WithWriteTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan net.Addr, 1)
	go func() { _ = srv.Serve("127.0.0.1:0", func(a net.Addr) { addrCh <- a }) }()
	addr := <-addrCh
	t.Cleanup(srv.Close)

	c := dial(t, addr)
	if got := c.cmd(t, "PING"); got != "+PONG" {
		t.Fatalf("PING = %q", got)
	}
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.r.ReadByte(); err == nil {
		t.Error("idle connection not closed by read timeout")
	}
}

func TestServerDoubleClose(t *testing.T) {
	srv, _ := startServer(t, MethodSL)
	srv.Close()
	srv.Close() // idempotent
}

// TestServerPipelinedBurst: one write carrying keyspace, malformed and
// server-level commands gets every reply, in order, and the burst is
// answered with fewer flushes than commands.
func TestServerPipelinedBurst(t *testing.T) {
	srv, addr := startServer(t, MethodNR)
	c := dial(t, addr)
	got := c.pipeline(t,
		[]string{"ZADD", "board", "10", "alice"},
		[]string{"ZRANK", "board", "alice"},
		[]string{"ZRANK", "board"},
		[]string{"INFO"},
		[]string{"SLOWLOG", "LEN"},
		[]string{"PING"})
	if got[0] != ":1" || got[1] != ":0" {
		t.Errorf("ZADD, ZRANK = %q, %q; want :1, :0", got[0], got[1])
	}
	if !strings.HasPrefix(got[2], "-ERR wrong number of arguments") {
		t.Errorf("malformed ZRANK = %q", got[2])
	}
	if !strings.Contains(got[3], "# Server") {
		t.Errorf("INFO = %q", got[3])
	}
	if !strings.HasPrefix(got[4], "-ERR SLOWLOG requires the flight recorder") {
		t.Errorf("SLOWLOG without a recorder = %q", got[4])
	}
	if got[5] != "+PONG" {
		t.Errorf("PING = %q", got[5])
	}
	if ss := srv.ServerStats(); ss.TotalCommands != 6 || ss.TotalFlushes == 0 || ss.TotalFlushes >= 6 {
		t.Errorf("commands = %d, flushes = %d; want 6 commands in fewer flushes", ss.TotalCommands, ss.TotalFlushes)
	}
}

// TestServerRepliesBeforeBlocking: replies are flushed whenever the server
// would wait for input — after a lone command, and after the complete
// commands of a write that ends mid-command.
func TestServerRepliesBeforeBlocking(t *testing.T) {
	_, addr := startServer(t, MethodSL)
	c := dial(t, addr)
	c.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if got := c.cmd(t, "PING"); got != "+PONG" {
		t.Fatalf("lone PING = %q", got)
	}
	if _, err := c.conn.Write([]byte("*1\r\n$4\r\nPING\r\n*3\r\n$3\r\nSET\r\n$1\r\nk")); err != nil {
		t.Fatal(err)
	}
	if got := c.readReply(t); got != "+PONG" {
		t.Fatalf("PING ahead of a partial command = %q", got)
	}
	if _, err := c.conn.Write([]byte("\r\n$1\r\nv\r\n")); err != nil {
		t.Fatal(err)
	}
	if got := c.readReply(t); got != "+OK" {
		t.Fatalf("completed SET = %q", got)
	}
}

// stuckExec parks SET stuck until released, standing in for an executor
// that never returns (a stalled combiner).
type stuckExec struct {
	inner   executor
	entered chan<- struct{}
	release <-chan struct{}
}

func (s stuckExec) Execute(op StoreOp) StoreResult {
	if op.Cmd == CmdSet && op.Key == "stuck" {
		s.entered <- struct{}{}
		<-s.release
	}
	return s.inner.Execute(op)
}

type stuckShared struct {
	inner   Shared
	entered chan<- struct{}
	release <-chan struct{}
}

func (s stuckShared) Register() (executor, error) {
	ex, err := s.inner.Register()
	if err != nil {
		return nil, err
	}
	return stuckExec{ex, s.entered, s.release}, nil
}

// TestServerStuckExecutorShedsAndCloses: with the only handle held by an
// executor that never returns, more connections than the old request queue
// held each get -BUSY within the wait budget instead of hanging; Close
// returns within its grace bound, and afterwards commands meet a closed
// connection. No goroutine outlives Close except the stuck one.
func TestServerStuckExecutorShedsAndCloses(t *testing.T) {
	const conns = 1030
	before := runtime.NumGoroutine()
	inner, err := NewShared(MethodSL, topology.New(1, 1, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	defer close(release)
	srv, err := NewServer(stuckShared{inner, entered, release}, 1)
	if err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan net.Addr, 1)
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve("127.0.0.1:0", func(a net.Addr) { addrCh <- a })
	}()
	addr := <-addrCh

	stuck := dial(t, addr)
	if _, err := stuck.conn.Write([]byte("*3\r\n$3\r\nSET\r\n$5\r\nstuck\r\n$1\r\nv\r\n")); err != nil {
		t.Fatal(err)
	}
	<-entered

	// The replies are all due one wait budget after the writes.
	clients := make([]*client, conns)
	for i := range clients {
		clients[i] = dial(t, addr)
		if _, err := clients[i].conn.Write([]byte("PING\r\n")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(handleWaitBudget + 10*time.Second)
	for i, c := range clients {
		c.conn.SetReadDeadline(deadline)
		if got := c.readReply(t); !strings.HasPrefix(got, "-BUSY") {
			t.Fatalf("conn %d: PING with every handle stuck = %q, want -BUSY", i, got)
		}
	}
	if ss := srv.ServerStats(); ss.ShedTotal != conns || ss.HandleWaits != conns {
		t.Errorf("shed = %d, handle waits = %d; want %d each", ss.ShedTotal, ss.HandleWaits, conns)
	}

	// Commands in flight when Close begins get -BUSY, a shutdown error or
	// a closed connection.
	for _, c := range clients {
		if _, err := c.conn.Write([]byte("PING\r\n")); err != nil {
			t.Fatal(err)
		}
	}
	var ne net.Error
	start := time.Now()
	srv.Close()
	if took := time.Since(start); took > closeGrace+2*time.Second {
		t.Errorf("Close took %v with a stuck executor; bound %v", took, closeGrace)
	}
	for i, c := range clients {
		c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		line, err := c.r.ReadString('\n')
		switch {
		case errors.As(err, &ne) && ne.Timeout():
			t.Fatalf("conn %d: hung after Close", i)
		case err == nil && !strings.HasPrefix(line, "-BUSY") && !strings.HasPrefix(line, "-ERR server shutting down"):
			t.Fatalf("conn %d: reply after Close = %q", i, line)
		}
	}
	stuck.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := stuck.r.ReadByte(); err == nil {
		t.Error("stuck connection got a reply instead of being closed")
	} else if errors.As(err, &ne) && ne.Timeout() {
		t.Error("stuck connection left open after Close")
	}
	<-served
	if c, err := net.DialTimeout("tcp", addr.String(), time.Second); err == nil {
		c.Close()
		t.Error("listener still accepting after Close")
	}

	stuck.conn.Close()
	for _, c := range clients {
		c.conn.Close()
	}
	for wait := time.Now().Add(5 * time.Second); ; {
		n := runtime.NumGoroutine()
		if n <= before+1 { // +1: the handler parked in the stuck executor
			break
		}
		if time.Now().After(wait) {
			t.Fatalf("%d goroutines after Close, %d before (+1 stuck)", n, before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
