package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"time"
)

// warmup is driven on every server before the measured window, so lazy
// set-up (connection buffers, replica caches, the first GCs) is paid
// outside it.
const warmup = time.Second

// lateBoundUs is the open-loop generator's own lateness bound: a run whose
// generator p99 lateness exceeds it is flagged in its record, because its
// latencies then partly measure the generator.
const lateBoundUs = 500

// stealFlag is the stolen share of CPU time above which a run is flagged
// in its record: its closed-loop figures then lean on the steal correction.
const stealFlag = 0.2

type runEnv struct {
	server  string
	seed    uint64
	seconds int
}

// phaseResult is one server process's run: its set-ups, the measured load
// and the server's exports on both sides of the measured window.
type phaseResult struct {
	w             workload
	setups        []time.Duration
	args          []string
	load          *loadStats
	before, after snapshot
	problems      []string           // failed correctness checks
	phases        map[string][]int64 // traced only: NR phase samples, ns
}

func (p *phaseResult) fail(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// phase starts `setups` servers in turn, keeps the last, warms it up,
// measures one load window, checks the outcome and stops the server.
func (e runEnv) phase(w workload, setups int, traced bool) (*phaseResult, error) {
	scores := preloadScores(e.seed)
	pr := &phaseResult{w: w}
	var srv *server
	for i := range setups {
		s, d, err := setUp(e.server, scores)
		if err != nil {
			return nil, err
		}
		pr.setups = append(pr.setups, d)
		if i < setups-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	defer srv.stop()
	pr.args = srv.args
	if err := srv.awaitMetrics(); err != nil {
		return nil, err
	}
	cs := make([]*client, conns)
	for i := range cs {
		pool := newPool(rand.New(rand.NewPCG(e.seed, uint64(i+1))), w.updateFrac)
		c, err := dialClient(srv.addr, pool, scores, rand.New(rand.NewPCG(e.seed, uint64(i+101))))
		if err != nil {
			return nil, err
		}
		defer c.conn.Close()
		cs[i] = c
	}
	warm, err := drive(cs, w, warmup, false)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if pr.before, err = srv.takeSnapshot(true); err != nil {
		return nil, err
	}
	if pr.load, err = drive(cs, w, time.Duration(e.seconds)*time.Second, traced); err != nil {
		return nil, err
	}
	if pr.after, err = srv.takeSnapshot(false); err != nil {
		return nil, err
	}

	for _, st := range []*loadStats{warm, pr.load} {
		if st.invalid > 0 {
			pr.fail("%d malformed or out-of-range replies, first: %s", st.invalid, st.firstInvalid)
		}
	}
	b, a := &pr.before.nr.NR, &pr.after.nr.NR
	if d := a.Stats.ReadOps - b.Stats.ReadOps; d != pr.load.reads {
		pr.fail("nr.read_ops grew by %d, clients sent %d ZRANK", d, pr.load.reads)
	}
	if d := a.Stats.UpdateOps - b.Stats.UpdateOps; d != pr.load.updates {
		pr.fail("nr.update_ops grew by %d, clients sent %d ZINCRBY", d, pr.load.updates)
	}
	if err := verifyFinal(cs[0], cs); err != nil {
		pr.fail("final state: %v", err)
	}
	if code, body, err := srv.get("/health"); err != nil || code != http.StatusOK {
		pr.fail("/health: status %d %v %s", code, err, body)
	}
	if h := a.Health; h.Poisoned || h.Panics != 0 || h.Stalls != 0 || len(h.StalledNodes) != 0 || a.Stats.Stalls != 0 {
		pr.fail("health: poisoned=%v panics=%d stalls=%d stalled=%v", h.Poisoned, h.Panics, h.Stalls, h.StalledNodes)
	}
	if traced {
		// Fetched after the final-state check, so on a workload without
		// ZRANK the read-path phases hold only that check's read.
		code, body, err := srv.get("/debug/trace")
		if err != nil || code != http.StatusOK {
			return nil, fmt.Errorf("/debug/trace: status %d %v", code, err)
		}
		if pr.phases, err = nrPhases(body); err != nil {
			return nil, err
		}
	}
	return pr, nil
}

// run measures one workload: the untraced run always, and with traced the
// traced run and the in-process probes as well.
func (e runEnv) run(w workload, traced bool) (outcome, error) {
	setups := setupsPerRun
	if traced {
		setups = 1 // set-up time is an end-to-end metric, reported untraced
	}
	base, err := e.phase(w, setups, false)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{
		Correct:   len(base.problems) == 0,
		Attempted: base.load.attempted(),
		Failed:    base.load.failed(),
		Metrics:   metrics{},
	}
	e2e, layers := metrics{}, metrics{}
	base.endToEnd(e2e)
	base.counterLayers(layers)
	record := map[string]any{
		"workload":     w.name,
		"seed":         e.seed,
		"seconds":      e.seconds,
		"host":         hostInfo(),
		"server_flags": base.args,
		"conns":        conns,
		"depth":        w.depth,
		"offered_rps":  w.rate,
		"update_frac":  w.updateFrac,
		"samples":      len(base.load.lat),
		"steal_frac":   base.load.stolen,
		"error_frac":   ratio(float64(out.Failed), float64(out.Attempted)),
		"nr_log_wraps": layers["nr.log_wraps"].Value,
		"problems":     base.problems,
	}
	if w.rate > 0 {
		record["generator_realtime"] = base.load.realtime
	}
	if base.load.stolen > stealFlag {
		record["flag_steal"] = fmt.Sprintf("host stole %.0f%% of the guest's CPU time", 100*base.load.stolen)
		fmt.Printf("FLAG %s: %s\n", w.name, record["flag_steal"])
	}
	if w.rate > 0 && layers["loadgen.late_p99_us"].Value > lateBoundUs {
		record["flag"] = fmt.Sprintf("generator late: p99 %.0f us > %d us bound", layers["loadgen.late_p99_us"].Value, lateBoundUs)
		fmt.Printf("FLAG %s: %s\n", w.name, record["flag"])
	}
	problems := base.problems
	if traced {
		tr, err := e.phase(w, setups, true)
		if err != nil {
			return outcome{}, fmt.Errorf("traced run: %w", err)
		}
		out.Correct = out.Correct && len(tr.problems) == 0
		out.Attempted += tr.load.attempted()
		out.Failed += tr.load.failed()
		tr.tracedLayers(layers)
		layers.set("bench.trace_overhead_frac", 1-tr.throughput()/base.throughput(), "ratio")
		if err := probes(w, e.seed, layers); err != nil {
			return outcome{}, fmt.Errorf("probes: %w", err)
		}
		record["traced_problems"] = tr.problems
		problems = append(problems, tr.problems...)
		record["traced_samples"] = len(tr.load.lat)
		out.Metrics = layers
	} else {
		out.Metrics = e2e
	}
	for _, p := range problems {
		fmt.Printf("CHECK FAILED %s: %s\n", w.name, p)
	}
	printMetrics(w.name, e2e)
	printMetrics(w.name, layers)
	fmt.Printf("%s %-34s %14.6f ratio (attempted %d, failed %d)\n", w.name, "error_frac", record["error_frac"], out.Attempted, out.Failed)
	n := len(base.load.lat)
	fmt.Printf("%s latency samples %d (p99 has %d beyond); host stole %.1f%% of the CPU time\n",
		w.name, n, n-int(0.99*float64(n)), 100*base.load.stolen)
	record["end_to_end"], record["per_layer"] = e2e, layers
	line, err := json.Marshal(record)
	if err != nil {
		return outcome{}, err
	}
	fmt.Printf("record %s\n", line)
	return out, nil
}

// granted is the share of the window's CPU time a closed loop's figures
// are scaled to (steal.go); an open loop's are left as measured.
func (p *phaseResult) granted() float64 {
	if p.w.rate > 0 {
		return 1
	}
	return 1 - p.load.stolen
}

// throughput is requests answered per second of granted CPU time.
func (p *phaseResult) throughput() float64 {
	return float64(p.load.answered) / (p.load.elapsed.Seconds() * p.granted())
}

// endToEnd fills the metrics a user of the server sees. Throughput and
// percentiles come from the raw client-side samples, never from the
// server's power-of-two histograms.
func (p *phaseResult) endToEnd(m metrics) {
	lat := sorted(p.load.lat)
	g := p.granted()
	m.set("throughput_rps", p.throughput(), "1/s")
	m.set("latency_p50_us", g*percentile(lat, 0.50)/1e3, "us")
	m.set("latency_p99_us", g*percentile(lat, 0.99)/1e3, "us")
	m.set("setup_s", medianDur(p.setups).Seconds(), "s")
	b, a := p.before.proc, p.after.proc
	cpuUs := float64(a.utimeTicks+a.stimeTicks-b.utimeTicks-b.stimeTicks) * 1e6 / userHZ
	m.set("server_cpu_us_per_req", cpuUs/float64(p.load.answered), "us")
	m.set("server_rss_mb", float64(a.hwmKB)/1024, "MB")
}

// counterLayers fills the per-layer metrics read from the server's
// counters on both sides of the window; they cost the run nothing.
func (p *phaseResult) counterLayers(m metrics) {
	req := float64(p.load.answered)
	b, a := p.before.proc, p.after.proc
	m.set("server.write_syscalls_per_req", float64(a.syscw-b.syscw)/req, "count")
	m.set("server.read_syscalls_per_req", float64(a.syscr-b.syscr)/req, "count")
	m.set("server.user_cpu_us_per_req", float64(a.utimeTicks-b.utimeTicks)*1e6/userHZ/req, "us")
	m.set("server.sys_cpu_us_per_req", float64(a.stimeTicks-b.stimeTicks)*1e6/userHZ/req, "us")
	m.set("server.ctx_switches_per_req", float64(a.ctxSwitches-b.ctxSwitches)/req, "count")
	bm, am := p.before.mem.Memstats, p.after.mem.Memstats
	m.set("server.allocs_per_req", float64(am.Mallocs-bm.Mallocs)/req, "count")
	m.set("server.alloc_bytes_per_req", float64(am.TotalAlloc-bm.TotalAlloc)/req, "B")
	m.set("server.gc_per_kreq", float64(am.NumGC-bm.NumGC)*1e3/req, "count")

	bn, an := &p.before.nr.NR, &p.after.nr.NR
	reads := float64(an.Stats.ReadOps - bn.Stats.ReadOps)
	updates := float64(an.Stats.UpdateOps - bn.Stats.UpdateOps)
	m.set("nr.helped_per_update", ratio(float64(an.Stats.HelpedEntries-bn.Stats.HelpedEntries), updates), "count")
	wraps := 0.0
	if an.Log.Size > 0 {
		wraps = float64(an.Log.Tail/an.Log.Size - bn.Log.Tail/bn.Log.Size)
	}
	m.set("nr.log_wraps", wraps, "count")
	m.set("nr.batch_mean", ratio(float64(an.Stats.CombinedOps-bn.Stats.CombinedOps), float64(an.Stats.Combines-bn.Stats.Combines)), "count")
	m.set("nr.writer_acquires_per_update", ratio(float64(an.Stats.WriterAcquires-bn.Stats.WriterAcquires), updates), "count")
	m.set("nr.reader_acquires_per_read", ratio(float64(an.Stats.ReaderAcquires-bn.Stats.ReaderAcquires), reads), "count")
	m.set("nr.reader_refreshes_per_read", ratio(float64(an.Stats.ReaderRefreshes-bn.Stats.ReaderRefreshes), reads), "count")
	ro, uo := an.Observed.Read, an.Observed.Update
	rb, ub := bn.Observed.Read, bn.Observed.Update
	readSum, updSum := ro.sumNs()-rb.sumNs(), uo.sumNs()-ub.sumNs()
	readN, updN := float64(ro.Count-rb.Count), float64(uo.Count-ub.Count)
	m.set("nr.read_mean_ns", ratio(readSum, readN), "ns")
	m.set("nr.update_mean_ns", ratio(updSum, updN), "ns")
	m.set("server.outside_nr_us", (mean(p.load.lat)-ratio(readSum+updSum, readN+updN))/1e3, "us")

	bs, as := p.before.self, p.after.self
	selfUs := float64(as.Utime.Nano()+as.Stime.Nano()-bs.Utime.Nano()-bs.Stime.Nano()) / 1e3
	m.set("loadgen.cpu_us_per_req", selfUs/req, "us")
	m.set("loadgen.late_p99_us", percentile(sorted(p.load.late), 0.99)/1e3, "us")
}

// tracedLayers fills the metrics only the traced run has: NR phase self
// times from /debug/trace and the client's per-request spans.
func (p *phaseResult) tracedLayers(m metrics) {
	for _, name := range phaseNames {
		s := sorted(p.phases[name])
		m.set("nr.phase."+name+"_ns", mean(s), "ns")
		m.set("nr.phase."+name+"_p50_ns", percentile(s, 0.5), "ns")
	}
	sp := p.load.spans
	m.set("client.encode_us", mean(sp.encode)/1e3, "us")
	m.set("client.write_us", mean(sp.write)/1e3, "us")
	m.set("client.wait_us", mean(sp.wait)/1e3, "us")
	m.set("client.decode_us", mean(sp.decode)/1e3, "us")
}
