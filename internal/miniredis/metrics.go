// Server-level observability: the INFO command text and the HTTP metrics
// and health endpoints the nrredis binary mounts. All of it reads the same
// unified core.Metrics snapshot the library exposes, plus the server's own
// connection and command counters.
package miniredis

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"github.com/asplos17/nr/internal/core"
	"github.com/asplos17/nr/internal/obs"
	"github.com/asplos17/nr/internal/obs/prom"
	"github.com/asplos17/nr/internal/obs/tsdb"
)

// Metrics returns the NR unified snapshot of the underlying keyspace, and
// whether one is available (false for the lock and flat-combining
// baselines, which have no NR instance to report on).
func (s *Server) Metrics() (core.Metrics, bool) {
	if src, ok := s.shared.(MetricsSource); ok {
		return src.Metrics(), true
	}
	return core.Metrics{}, false
}

// ServerStats is the serving-layer slice of the metrics export.
type ServerStats struct {
	UptimeSeconds    float64 `json:"uptime_seconds"`
	ConnectedClients int     `json:"connected_clients"`
	TotalConnections uint64  `json:"total_connections"`
	TotalCommands    uint64  `json:"total_commands"`
	// TotalFlushes counts reply flushes; TotalCommands/TotalFlushes is the
	// mean pipeline depth.
	TotalFlushes uint64 `json:"total_flushes"`
	// ShedTotal counts commands refused with -BUSY because no executor
	// handle came free within the wait budget.
	ShedTotal uint64 `json:"shed_total"`
	// HandleWaits counts commands that found every handle checked out and
	// had to wait; HandleWaitNs is their total wait.
	HandleWaits  uint64 `json:"handle_waits"`
	HandleWaitNs uint64 `json:"handle_wait_ns"`
}

// ServerStats reports the serving layer's own counters.
func (s *Server) ServerStats() ServerStats {
	s.mu.Lock()
	clients := len(s.conns)
	s.mu.Unlock()
	return ServerStats{
		UptimeSeconds:    time.Since(s.started).Seconds(),
		ConnectedClients: clients,
		TotalConnections: s.connTotal.Load(),
		TotalCommands:    s.commands.Load(),
		TotalFlushes:     s.flushes.Load(),
		ShedTotal:        s.shed.Load(),
		HandleWaits:      s.handleWaits.Load(),
		HandleWaitNs:     s.handleWaitNs.Load(),
	}
}

// Info renders the redis INFO-style report: "# Section" headers followed by
// key:value lines. Sections cover the serving layer always, and the NR
// stats, health, log gauges, and latency distributions when the keyspace is
// NR-backed.
func (s *Server) Info() string {
	var b strings.Builder
	ss := s.ServerStats()
	fmt.Fprintf(&b, "# Server\r\n")
	fmt.Fprintf(&b, "uptime_in_seconds:%.0f\r\n", ss.UptimeSeconds)
	fmt.Fprintf(&b, "connected_clients:%d\r\n", ss.ConnectedClients)
	fmt.Fprintf(&b, "total_connections_received:%d\r\n", ss.TotalConnections)
	fmt.Fprintf(&b, "total_commands_processed:%d\r\n", ss.TotalCommands)
	fmt.Fprintf(&b, "total_reply_flushes:%d\r\n", ss.TotalFlushes)
	fmt.Fprintf(&b, "shed_total:%d\r\n", ss.ShedTotal)
	fmt.Fprintf(&b, "handle_waits:%d\r\n", ss.HandleWaits)
	fmt.Fprintf(&b, "handle_wait_ns:%d\r\n", ss.HandleWaitNs)

	m, ok := s.Metrics()
	if !ok {
		return b.String()
	}
	fmt.Fprintf(&b, "# NR\r\n")
	fmt.Fprintf(&b, "read_ops:%d\r\n", m.Stats.ReadOps)
	fmt.Fprintf(&b, "update_ops:%d\r\n", m.Stats.UpdateOps)
	fmt.Fprintf(&b, "combine_rounds:%d\r\n", m.Stats.Combines)
	fmt.Fprintf(&b, "combined_ops:%d\r\n", m.Stats.CombinedOps)
	fmt.Fprintf(&b, "reader_refreshes:%d\r\n", m.Stats.ReaderRefreshes)
	fmt.Fprintf(&b, "helped_entries:%d\r\n", m.Stats.HelpedEntries)
	fmt.Fprintf(&b, "log_occupancy:%.4f\r\n", m.Log.Occupancy)
	for _, r := range m.Replicas {
		fmt.Fprintf(&b, "replica%d_completed_lag:%d\r\n", r.Node, r.CompletedLag)
	}
	fmt.Fprintf(&b, "# Health\r\n")
	fmt.Fprintf(&b, "poisoned:%v\r\n", m.Health.Poisoned)
	fmt.Fprintf(&b, "contained_panics:%d\r\n", m.Health.Panics)
	fmt.Fprintf(&b, "stalled_combiners:%d\r\n", len(m.Health.StalledNodes))
	if o := m.Observed; o != nil {
		fmt.Fprintf(&b, "# Latency\r\n")
		fmt.Fprintf(&b, "read_p50_ns:%d\r\n", o.Read.P50Ns)
		fmt.Fprintf(&b, "read_p99_ns:%d\r\n", o.Read.P99Ns)
		fmt.Fprintf(&b, "update_p50_ns:%d\r\n", o.Update.P50Ns)
		fmt.Fprintf(&b, "update_p99_ns:%d\r\n", o.Update.P99Ns)
		fmt.Fprintf(&b, "combiner_batch_mean:%.2f\r\n", o.Batch.Mean)
		fmt.Fprintf(&b, "combiner_batch_p99:%d\r\n", o.Batch.P99)
	}
	return b.String()
}

// Telemetry returns the keyspace's windowed collector, nil when the
// keyspace has none (baselines, or NR built without nr.WithTelemetry).
func (s *Server) Telemetry() *tsdb.Collector {
	if src, ok := s.shared.(TelemetrySource); ok {
		return src.Telemetry()
	}
	return nil
}

// telemetryPayload is the windowed-telemetry slice of the JSON export.
type telemetryPayload struct {
	IntervalSeconds float64          `json:"interval_seconds"`
	Windows         []tsdb.Window    `json:"windows"`
	SLOs            []tsdb.SLOStatus `json:"slos,omitempty"`
}

// metricsPayload is the JSON body /metrics serves.
type metricsPayload struct {
	Server ServerStats   `json:"server"`
	NR     *core.Metrics `json:"nr,omitempty"`
	// ShardStats carries per-shard counters for sharded keyspaces; nrtop
	// derives per-shard throughput from their deltas across polls.
	ShardStats []core.Stats `json:"shard_stats,omitempty"`
	// Telemetry carries the windowed views when the keyspace was built
	// with nr.WithTelemetry.
	Telemetry *telemetryPayload `json:"telemetry,omitempty"`
}

// wantsPrometheus decides the /metrics representation: Prometheus text for
// scrapers that ask for it (Accept mentioning text/plain or openmetrics,
// or an explicit ?format=prometheus), JSON otherwise — the historical
// default, which dashboards and nrtop consume.
func wantsPrometheus(r *http.Request) bool {
	if r.URL.Query().Get("format") == "prometheus" {
		return true
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics")
}

// MetricsHandler serves the full observability snapshot: by default as
// JSON — the serving-layer counters plus, for NR-backed keyspaces, the
// unified NR metrics, per-shard counters, and windowed telemetry — and as
// Prometheus text exposition (v0.0.4) under content negotiation (see
// wantsPrometheus).
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if wantsPrometheus(r) {
			s.servePrometheus(w)
			return
		}
		p := metricsPayload{Server: s.ServerStats()}
		if m, ok := s.Metrics(); ok {
			p.NR = &m
		}
		if src, ok := s.shared.(ShardStatsSource); ok {
			p.ShardStats = src.ShardStats()
		}
		if t := s.Telemetry(); t != nil {
			p.Telemetry = &telemetryPayload{
				IntervalSeconds: t.Interval().Seconds(),
				Windows:         t.Snapshot(),
				SLOs:            t.SLOStatuses(),
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(p)
	})
}

// servePrometheus renders the Prometheus exposition: the serving layer's
// own families, the unified NR snapshot, and — when a telemetry collector
// is attached — the latency/batch histograms (from the collector's newest
// cumulative capture) and SLO gauges.
func (s *Server) servePrometheus(w http.ResponseWriter) {
	e := prom.New()
	ss := s.ServerStats()
	e.Gauge("nrredis_uptime_seconds", "Seconds since the server started.", ss.UptimeSeconds)
	e.Gauge("nrredis_connected_clients", "Currently connected clients.", float64(ss.ConnectedClients))
	e.Counter("nrredis_connections_total", "Connections accepted since start.", float64(ss.TotalConnections))
	e.Counter("nrredis_commands_total", "Commands processed since start.", float64(ss.TotalCommands))
	e.Counter("nrredis_flushes_total", "Reply flushes since start; commands_total/flushes_total is the mean pipeline depth.", float64(ss.TotalFlushes))
	e.Counter("nrredis_shed_total", "Commands refused with -BUSY: no executor handle free within the wait budget.", float64(ss.ShedTotal))
	e.Counter("nrredis_handle_waits_total", "Commands that waited for an executor handle.", float64(ss.HandleWaits))
	e.Counter("nrredis_handle_wait_seconds_total", "Total time commands waited for an executor handle.", float64(ss.HandleWaitNs)/1e9)
	if m, ok := s.Metrics(); ok {
		prom.AppendMetrics(e, &m)
	}
	if t := s.Telemetry(); t != nil {
		var cum obs.Cum
		if t.LatestCum(&cum) {
			prom.AppendCum(e, &cum)
		}
		prom.AppendSLO(e, t.SLOStatuses())
	}
	w.Header().Set("Content-Type", prom.ContentType)
	_, _ = e.WriteTo(w)
}

// HealthHandler serves a liveness/health probe: 200 with the Health JSON
// while the keyspace is healthy, 503 once it is poisoned (replicas have
// diverged — the sticky failure state of DESIGN.md's failure model). For
// baselines without an NR instance it always reports 200.
func (s *Server) HealthHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		m, ok := s.Metrics()
		if !ok {
			w.WriteHeader(http.StatusOK)
			fmt.Fprintln(w, `{"status":"ok"}`)
			return
		}
		if m.Health.Poisoned {
			w.WriteHeader(http.StatusServiceUnavailable)
		} else {
			w.WriteHeader(http.StatusOK)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(m.Health)
	})
}
