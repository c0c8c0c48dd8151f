package miniredis

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	nr "github.com/asplos17/nr"
	"github.com/asplos17/nr/internal/baseline"
	"github.com/asplos17/nr/internal/core"
	"github.com/asplos17/nr/internal/obs/tsdb"
	"github.com/asplos17/nr/internal/topology"
	"github.com/asplos17/nr/internal/trace"
)

// Shared is the concurrent keyspace interface (NR or a baseline wrapper).
type Shared = baseline.Shared[StoreOp, StoreResult]

// Method names accepted by NewShared.
const (
	MethodNR  = "nr"
	MethodSL  = "sl"
	MethodRWL = "rwl"
	MethodFC  = "fc"
	MethodFCP = "fc+"
)

// NewShared builds a concurrent keyspace with the given method. Seed fixes
// replica determinism; topo sizes NR's replicas and the lock/slot arrays.
// Extra nr options apply only to the NR method.
func NewShared(method string, topo topology.Topology, seed uint64, extra ...nr.Option) (Shared, error) {
	return NewSharedTraced(method, topo, seed, nil, extra...)
}

// NewSharedTraced is NewShared with a flight recorder attached to the NR
// instance (rec is ignored by the baseline methods, which have no protocol
// to trace). Pass the same recorder to the server via WithRecorder so
// SLOWLOG and /debug/trace can read it.
func NewSharedTraced(method string, topo topology.Topology, seed uint64, rec *trace.Recorder, extra ...nr.Option) (Shared, error) {
	maxThreads := topo.TotalThreads()
	switch method {
	case MethodNR:
		// The metrics observer feeds INFO's latency section and the
		// /metrics endpoint; it is cheap enough to be on by default.
		options := []nr.Option{
			nr.WithNodes(topo.Nodes(), topo.CoresPerNode(), topo.SMT()),
			nr.WithMetrics(),
		}
		if rec != nil {
			options = append(options, nr.WithFlightRecorderInstance(rec))
		}
		options = append(options, extra...)
		inst, err := nr.New(
			func() nr.Sequential[StoreOp, StoreResult] { return NewStore(seed) },
			options...)
		if err != nil {
			return nil, err
		}
		return &nrShared{exec: inst}, nil
	case MethodSL:
		return baseline.NewSpinLocked[StoreOp, StoreResult](NewStore(seed)), nil
	case MethodRWL:
		return baseline.NewRWLocked[StoreOp, StoreResult](NewStore(seed), maxThreads), nil
	case MethodFC:
		return baseline.NewFlatCombining[StoreOp, StoreResult](NewStore(seed), maxThreads), nil
	case MethodFCP:
		return baseline.NewFlatCombiningPlus[StoreOp, StoreResult](NewStore(seed), maxThreads), nil
	}
	return nil, fmt.Errorf("miniredis: unknown method %q", method)
}

// Default per-connection deadlines. The read deadline bounds how long an
// idle connection can pin server resources; the write deadline keeps a stuck
// client from wedging a handler.
const (
	DefaultReadTimeout  = 5 * time.Minute
	DefaultWriteTimeout = 30 * time.Second
)

// Serving-layer liveness bounds: a command waits at most handleWaitBudget
// for an executor handle before it is refused with -BUSY, so a stalled
// executor yields error replies rather than parked clients; Close waits
// closeGrace for in-flight commands before force-closing their connections.
const (
	handleWaitBudget = time.Second
	closeGrace       = 2 * time.Second
)

type executor = baseline.Executor[StoreOp, StoreResult]

// Server is a RESP server. Each connection's goroutine parses its commands
// and runs them itself: a command checks an executor handle out of a pool of
// `workers` registered handles, executes, and returns the handle before its
// reply is written. Replies are buffered and flushed once the connection has
// no more input to act on, so a pipelined burst costs one write.
//
// Failure containment: each connection handler recovers its own panics and
// closes only that connection; a panic escaping the keyspace (e.g. a
// contained NR user-code panic re-raised by Execute) becomes an error reply
// for that command alone. Close stops accepting, lets in-flight commands
// finish (replies included), unblocks idle readers, and after closeGrace
// force-closes whatever is left, so it returns even when an executor never
// does.
type Server struct {
	shared       Shared
	ln           net.Listener
	handles      chan executor
	readTimeout  time.Duration
	writeTimeout time.Duration
	started      time.Time
	// rec is the keyspace's flight recorder (nil = tracing off); SLOWLOG
	// and TraceHandler read it. See WithRecorder.
	rec *trace.Recorder
	// persist enables BGSAVE/LASTSAVE (nil = persistence off). See
	// WithPersistence.
	persist *Persistence

	// Serving counters (see ServerStats). commands and flushes are added
	// once per flush; the handle-wait and shed counters move only on the
	// slow path, when no handle was free.
	commands     atomic.Uint64
	flushes      atomic.Uint64
	connTotal    atomic.Uint64
	handleWaits  atomic.Uint64
	handleWaitNs atomic.Uint64
	shed         atomic.Uint64

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	// closing is closed by Close, releasing commands waiting for a handle;
	// drained is closed once Close has begun and the last connection is gone.
	closing chan struct{}
	drained chan struct{}
}

// MetricsSource is implemented by keyspaces that can report the NR unified
// metrics snapshot (baseline.NRAdapter does; the lock/FC baselines do not).
type MetricsSource interface {
	Metrics() core.Metrics
}

// TelemetrySource is implemented by keyspaces carrying a windowed telemetry
// collector (NR built with nr.WithTelemetry). Telemetry may return nil.
type TelemetrySource interface {
	Telemetry() *tsdb.Collector
}

// ShardStatsSource is implemented by sharded keyspaces that can report
// per-shard counters for the /metrics export.
type ShardStatsSource interface {
	ShardStats() []core.Stats
}

// ServerOption customizes NewServer.
type ServerOption func(*Server)

// WithReadTimeout sets the per-connection read deadline, refreshed before
// every socket read. Zero disables it (not recommended: Close then has to
// force-close idle connections mid-keepalive).
func WithReadTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.readTimeout = d }
}

// WithWriteTimeout sets the per-connection write deadline, refreshed before
// every socket write. Zero disables it.
func WithWriteTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.writeTimeout = d }
}

// WithRecorder hands the server the keyspace's flight recorder (the one
// passed to NewSharedTraced) so the SLOWLOG command and the /debug/trace
// endpoint can snapshot it. Without it SLOWLOG answers with an error and
// /debug/trace with 404.
func WithRecorder(rec *trace.Recorder) ServerOption {
	return func(s *Server) { s.rec = rec }
}

// WithPersistence hands the server the durability controller from
// NewPersistentShared, enabling the BGSAVE and LASTSAVE commands. Without
// it both answer with an error.
func WithPersistence(p *Persistence) ServerOption {
	return func(s *Server) { s.persist = p }
}

// NewServer builds a server over the shared keyspace, registering workers
// executor handles: at most that many commands execute at once.
func NewServer(shared Shared, workers int, opts ...ServerOption) (*Server, error) {
	if workers < 1 {
		return nil, errors.New("miniredis: need at least one worker")
	}
	s := &Server{
		shared:       shared,
		handles:      make(chan executor, workers),
		conns:        make(map[net.Conn]struct{}),
		readTimeout:  DefaultReadTimeout,
		writeTimeout: DefaultWriteTimeout,
		started:      time.Now(),
		closing:      make(chan struct{}),
		drained:      make(chan struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	for i := 0; i < workers; i++ {
		ex, err := shared.Register()
		if err != nil {
			return nil, fmt.Errorf("miniredis: registering worker %d: %w", i, err)
		}
		s.handles <- ex
	}
	return s, nil
}

// checkout takes an executor handle. Only when every handle is busy does it
// read the clock and wait, for at most handleWaitBudget; it returns nil when
// that budget runs out (the command is shed) or the server starts closing.
func (s *Server) checkout() executor {
	select {
	case ex := <-s.handles:
		return ex
	default:
	}
	start := time.Now()
	timer := time.NewTimer(handleWaitBudget)
	defer func() {
		timer.Stop()
		s.handleWaits.Add(1)
		s.handleWaitNs.Add(uint64(time.Since(start)))
	}()
	select {
	case ex := <-s.handles:
		return ex
	case <-timer.C:
		s.shed.Add(1)
	case <-s.closing:
	}
	return nil
}

// safeExecute runs one op, converting a panic escaping the keyspace — NR
// re-raises contained user-code panics from Execute — into an error reply,
// so one poisonous command neither kills its connection nor leaks its handle.
func safeExecute(ex executor, op StoreOp) (res StoreResult) {
	defer func() {
		if p := recover(); p != nil {
			res = StoreResult{Err: fmt.Sprintf("internal error executing command: %v", p)}
		}
	}()
	return ex.Execute(op)
}

// Serve accepts connections on addr until Close. It returns the bound
// address through the provided callback (nil allowed) so callers can use
// port 0.
func (s *Server) Serve(addr string, ready func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.ServeListener(ln, ready)
}

// Accept-retry policy: a transient Accept failure (EMFILE under fd
// pressure, ECONNABORTED, a momentary network hiccup) must not kill the
// whole server. Retries back off exponentially and are bounded — a
// persistently failing listener eventually surfaces its error rather than
// spinning forever.
const (
	acceptRetryMax   = 10
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffCap = 1 * time.Second
)

// ServeListener accepts connections on an existing listener until Close,
// retrying transient Accept errors with bounded exponential backoff. The
// listener is owned by the server from here on (Close closes it).
func (s *Server) ServeListener(ln net.Listener, ready func(net.Addr)) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("miniredis: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	if ready != nil {
		ready(ln.Addr())
	}
	retries := 0
	backoff := acceptBackoffMin
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			if errors.Is(err, net.ErrClosed) {
				return err // listener gone for good; no point retrying
			}
			if retries++; retries > acceptRetryMax {
				return fmt.Errorf("miniredis: accept failed %d times, last: %w", retries-1, err)
			}
			time.Sleep(backoff)
			if backoff *= 2; backoff > acceptBackoffCap {
				backoff = acceptBackoffCap
			}
			continue
		}
		retries = 0
		backoff = acceptBackoffMin
		if !s.track(conn) {
			conn.Close() // lost the race with Close
			continue
		}
		s.connTotal.Add(1)
		go s.handle(conn)
	}
}

// track registers a live connection, refusing when the server is closed.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	if s.closed && len(s.conns) == 0 {
		close(s.drained)
	}
	s.mu.Unlock()
}

func (s *Server) handle(conn net.Conn) {
	defer s.untrack(conn)
	defer conn.Close()
	// A panic anywhere in this connection's parse/execute/reply cycle —
	// protocol code fed hostile bytes, say — tears down only this
	// connection: the deferred Close above runs, the server keeps serving.
	defer func() { _ = recover() }()
	c := &session{s: s, conn: conn}
	c.w = NewWriter(bufio.NewWriter(c))
	r := bufio.NewReader(c)
	for {
		args, err := ReadCommand(r)
		if err != nil {
			// EOF and deadline expiry (idle timeout, or Close unblocking
			// us) are normal disconnects; only protocol garbage earns an
			// error reply.
			var ne net.Error
			if !errors.Is(err, io.EOF) && !(errors.As(err, &ne) && ne.Timeout()) {
				_ = c.w.Error("protocol error")
				_ = c.flush()
			}
			return
		}
		c.cmds++
		if err := s.dispatch(c.w, args); err != nil {
			return
		}
	}
}

// dispatch answers one command into w. Server-level commands are answered
// here; the rest run on a checked-out handle, returned before the reply is
// written.
func (s *Server) dispatch(w *Writer, args []string) error {
	// INFO reports on the serving machinery itself, SLOWLOG reads the
	// flight recorder (trace.go) and BGSAVE/LASTSAVE drive the durability
	// controller, so none of them is routed through the keyspace's
	// operation set.
	switch {
	case len(args) > 0 && strings.EqualFold(args[0], "INFO"):
		return w.Bulk(s.Info())
	case len(args) > 0 && strings.EqualFold(args[0], "SLOWLOG"):
		return s.slowlog(w, args[1:])
	case len(args) == 1 && (strings.EqualFold(args[0], "BGSAVE") || strings.EqualFold(args[0], "LASTSAVE")):
		return s.persistCmd(w, args[0])
	}
	op, errMsg := ParseCommand(args)
	if errMsg != "" {
		return w.Error(errMsg)
	}
	ex := s.checkout()
	if ex == nil {
		return w.ErrorCode("BUSY", "no executor free")
	}
	res := safeExecute(ex, op)
	s.handles <- ex
	return WriteResult(w, op, res)
}

// session is one connection's I/O. It sits between the connection and its
// bufio reader and writer so that every socket operation re-arms its own
// deadline, and so that buffered replies are flushed whenever the handler
// is about to wait for more input.
type session struct {
	s    *Server
	conn net.Conn
	w    *Writer
	cmds uint64 // commands answered since the last flush
}

// Read refills the command buffer from the socket. It runs only when every
// buffered command has been answered (or the next one is incomplete), so it
// first sends the replies owed so far: a pipelined burst gets one flush, and
// a lone command's reply never waits for further input.
func (c *session) Read(p []byte) (int, error) {
	if err := c.flush(); err != nil {
		return 0, err
	}
	// The read deadline is armed under the server mutex, which Close holds
	// while it expires every read, so a handler cannot re-arm a long
	// deadline after Close: it sees closed and reads no further.
	c.s.mu.Lock()
	closed := c.s.closed
	if !closed && c.s.readTimeout > 0 {
		_ = c.conn.SetReadDeadline(time.Now().Add(c.s.readTimeout))
	}
	c.s.mu.Unlock()
	if closed {
		return 0, io.EOF
	}
	return c.conn.Read(p)
}

// Write sends buffered replies under a fresh write deadline.
func (c *session) Write(p []byte) (int, error) {
	if c.s.writeTimeout > 0 {
		_ = c.conn.SetWriteDeadline(time.Now().Add(c.s.writeTimeout))
	}
	return c.conn.Write(p)
}

// flush sends buffered replies, counting the commands they answer.
func (c *session) flush() error {
	if c.cmds > 0 {
		c.s.commands.Add(c.cmds)
		c.s.flushes.Add(1)
		c.cmds = 0
	}
	return c.w.Flush()
}

// persistCmd answers BGSAVE and LASTSAVE from the durability controller.
func (s *Server) persistCmd(w *Writer, cmd string) error {
	if s.persist == nil {
		return w.Error("persistence not enabled (start the server with -appendonly)")
	}
	if strings.EqualFold(cmd, "BGSAVE") {
		if s.persist.BgSave() {
			return w.Simple("Background saving started")
		}
		return w.Error("background save already in progress")
	}
	var secs int64
	if ls := s.persist.LastSave(); !ls.IsZero() {
		secs = ls.Unix()
	}
	return w.Int(secs)
}

// Close stops accepting, lets every connection finish the command it is
// executing (replies included), unblocks connections idle in a read and
// commands waiting for a handle, and returns once every connection is gone
// — or after closeGrace, having force-closed the stragglers, whose handlers
// may still be stuck in an executor. Idempotent and safe to call
// concurrently.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.closing)
	if len(s.conns) == 0 {
		close(s.drained)
	}
	ln := s.ln
	// Expire pending reads so handlers parked in ReadCommand return
	// immediately; handlers mid-command finish and reply first because the
	// deadline only interrupts the *next* read.
	for conn := range s.conns {
		_ = conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	select {
	case <-s.drained:
	case <-time.After(closeGrace):
		s.mu.Lock()
		for conn := range s.conns {
			_ = conn.Close()
		}
		s.mu.Unlock()
	}
}

// Direct returns an executor for in-process benchmarking — the paper's
// "invoke Redis's operations directly at the server after the RPC layer"
// (§8.3).
func (s *Server) Direct() (baseline.Executor[StoreOp, StoreResult], error) {
	return s.shared.Register()
}
