package miniredis

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/asplos17/nr/internal/core"
)

// infoCmd sends INFO and reads the multi-line bulk reply by its declared
// length (the generic test client reads bulks line-wise, which a multi-line
// INFO body would break).
func (c *client) infoCmd(t *testing.T) string {
	t.Helper()
	if _, err := c.conn.Write([]byte("*1\r\n$4\r\nINFO\r\n")); err != nil {
		t.Fatal(err)
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	var n int
	if _, err := fmt.Sscanf(line, "$%d", &n); err != nil {
		t.Fatalf("INFO reply not a bulk string: %q", line)
	}
	buf := make([]byte, n+2) // body + trailing CRLF
	if _, err := io.ReadFull(c.r, buf); err != nil {
		t.Fatal(err)
	}
	return string(buf[:n])
}

func TestInfoCommandNR(t *testing.T) {
	_, addr := startServer(t, MethodNR)
	c := dial(t, addr)
	// Generate some traffic so counters are non-trivial.
	c.cmd(t, "SET", "k", "v")
	c.cmd(t, "GET", "k")

	info := c.infoCmd(t)
	for _, want := range []string{
		"# Server", "total_commands_processed:", "total_reply_flushes:",
		"shed_total:", "handle_waits:", "handle_wait_ns:",
		"# NR", "read_ops:", "combine_rounds:", "log_occupancy:",
		"# Health", "poisoned:false",
		"# Latency", "read_p50_ns:", "update_p99_ns:",
	} {
		if !strings.Contains(info, want) {
			t.Errorf("INFO missing %q:\n%s", want, info)
		}
	}
	// Case-insensitive command name, and the server keeps serving after.
	if _, err := c.conn.Write([]byte("*1\r\n$4\r\ninfo\r\n")); err != nil {
		t.Fatal(err)
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	var n int
	if _, err := fmt.Sscanf(line, "$%d", &n); err != nil {
		t.Fatalf("lowercase info reply not a bulk string: %q", line)
	}
	buf := make([]byte, n+2)
	if _, err := io.ReadFull(c.r, buf); err != nil {
		t.Fatal(err)
	}
	if got := c.cmd(t, "GET", "k"); got != "v" {
		t.Errorf("GET after INFO = %q, want v", got)
	}
}

func TestInfoCommandBaselineOmitsNRSections(t *testing.T) {
	_, addr := startServer(t, MethodSL)
	c := dial(t, addr)
	c.cmd(t, "SET", "k", "v")
	info := c.infoCmd(t)
	if !strings.Contains(info, "# Server") {
		t.Errorf("INFO missing server section:\n%s", info)
	}
	if strings.Contains(info, "# NR") {
		t.Errorf("spinlock INFO claims NR metrics:\n%s", info)
	}
}

func TestMetricsHandler(t *testing.T) {
	srv, addr := startServer(t, MethodNR)
	c := dial(t, addr)
	c.cmd(t, "SET", "k", "v")
	c.cmd(t, "GET", "k")

	rec := httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var payload struct {
		Server ServerStats   `json:"server"`
		NR     *core.Metrics `json:"nr"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatalf("/metrics not JSON: %v\n%s", err, rec.Body.String())
	}
	if payload.Server.TotalCommands < 2 || payload.Server.TotalFlushes < 2 {
		t.Errorf("total commands, flushes = %d, %d; want >= 2 each", payload.Server.TotalCommands, payload.Server.TotalFlushes)
	}
	if payload.NR == nil {
		t.Fatal("/metrics missing nr section for an NR-backed server")
	}
	if payload.NR.Stats.ReadOps < 1 || payload.NR.Stats.UpdateOps < 1 {
		t.Errorf("nr stats empty: %+v", payload.NR.Stats)
	}
	if payload.NR.Observed == nil {
		t.Error("/metrics missing observed distributions (NewShared attaches the metrics observer)")
	}
	if payload.NR.Log.Size == 0 {
		t.Error("/metrics log gauges empty")
	}
}

func TestMetricsHandlerBaseline(t *testing.T) {
	srv, _ := startServer(t, MethodFC)
	rec := httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	var payload map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatal(err)
	}
	if _, has := payload["nr"]; has {
		t.Error("baseline /metrics claims an nr section")
	}
}

func TestHealthHandler(t *testing.T) {
	srv, addr := startServer(t, MethodNR)
	c := dial(t, addr)
	c.cmd(t, "SET", "k", "v")

	rec := httptest.NewRecorder()
	srv.HealthHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/health", nil))
	if rec.Code != 200 {
		t.Fatalf("/health status = %d, want 200 while healthy", rec.Code)
	}
	var h core.Health
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatalf("/health not JSON: %v", err)
	}
	if h.Poisoned {
		t.Error("healthy server reports poisoned")
	}

	// Baselines always report ok.
	srv2, _ := startServer(t, MethodRWL)
	rec2 := httptest.NewRecorder()
	srv2.HealthHandler().ServeHTTP(rec2, httptest.NewRequest("GET", "/health", nil))
	if rec2.Code != 200 {
		t.Errorf("baseline /health = %d, want 200", rec2.Code)
	}
}

func TestServerStatsCountsConnections(t *testing.T) {
	srv, addr := startServer(t, MethodNR)
	c1 := dial(t, addr)
	c1.cmd(t, "PING")
	c2 := dial(t, addr)
	c2.cmd(t, "PING")
	ss := srv.ServerStats()
	if ss.TotalConnections < 2 {
		t.Errorf("total connections = %d, want >= 2", ss.TotalConnections)
	}
	if ss.ConnectedClients < 2 {
		t.Errorf("connected clients = %d, want >= 2", ss.ConnectedClients)
	}
	if ss.TotalCommands < 2 {
		t.Errorf("total commands = %d, want >= 2", ss.TotalCommands)
	}
	if ss.UptimeSeconds < 0 {
		t.Errorf("uptime negative: %v", ss.UptimeSeconds)
	}
}
