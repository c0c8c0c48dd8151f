package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	nr "github.com/asplos17/nr"
	"github.com/asplos17/nr/internal/miniredis"
	"github.com/asplos17/nr/internal/topology"
	"github.com/asplos17/nr/internal/trace"
)

// probeReps is how many times each in-process probe repeats; it reports
// the median repetition.
const probeReps = 5

// storeOps converts a pool's commands into the ops the server would parse
// from them.
func storeOps(p *opPool) []miniredis.StoreOp {
	ops := make([]miniredis.StoreOp, poolOps)
	for k := range ops {
		ops[k] = miniredis.StoreOp{Cmd: miniredis.CmdZRank, Key: zkey, Member: memberName(int(p.member[k]))}
		if inc := p.inc[k]; inc != 0 {
			ops[k].Cmd, ops[k].Score = miniredis.CmdZIncrBy, float64(inc)
		}
	}
	return ops
}

func preloadStore(ex interface {
	Execute(miniredis.StoreOp) miniredis.StoreResult
}, scores []float64) {
	for m, s := range scores {
		ex.Execute(miniredis.StoreOp{Cmd: miniredis.CmdZAdd, Key: zkey, Member: memberName(m), Score: s})
	}
}

// timePerOp runs f probeReps times over n items and returns the median ns
// per item.
func timePerOp(n int, f func()) float64 {
	xs := make([]float64, probeReps)
	for r := range xs {
		t := time.Now()
		f()
		xs[r] = float64(time.Since(t)) / float64(n)
	}
	return median(xs)
}

// probes times exported functions in process: the RESP codec, the
// sequential store (the black-box floor) and the NR keyspace nrredis
// builds, driven directly with no server (the §8.3 ceiling).
func probes(w workload, seed uint64, m metrics) error {
	pool := newPool(rand.New(rand.NewPCG(seed, 1)), w.updateFrac)
	scores := preloadScores(seed)

	// RESP: ReadCommand+ParseCommand over the workload's own command
	// stream, then WriteResult of the store's real results.
	ops := make([]miniredis.StoreOp, poolOps)
	parse := func() {
		r := bufio.NewReaderSize(bytes.NewReader(pool.buf), 64<<10)
		for k := range ops {
			args, err := miniredis.ReadCommand(r)
			if err != nil {
				panic(err) // the stream is our own well-formed encoding
			}
			ops[k], _ = miniredis.ParseCommand(args)
		}
	}
	m.set("resp.parse_ns", timePerOp(poolOps, parse), "ns")
	st := miniredis.NewStore(1)
	preloadStore(st, scores)
	results := make([]miniredis.StoreResult, poolOps)
	for k, op := range ops {
		results[k] = st.Execute(op)
		if results[k].Err != "" {
			return fmt.Errorf("store: %s", results[k].Err)
		}
	}
	bw := bufio.NewWriter(io.Discard)
	wr := miniredis.NewWriter(bw)
	reply := func() {
		for k, op := range ops {
			_ = miniredis.WriteResult(wr, op, results[k]) // io.Discard never fails
		}
		_ = wr.Flush()
	}
	m.set("resp.reply_ns", timePerOp(poolOps, reply), "ns")
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	parse()
	reply()
	runtime.ReadMemStats(&ms1)
	m.set("resp.allocs_per_cmd", float64(ms1.Mallocs-ms0.Mallocs)/poolOps, "count")

	// Store.Execute on the same 10k-member set, one op class at a time.
	rng := rand.New(rand.NewPCG(seed, 2))
	ranks, incrs := make([]miniredis.StoreOp, poolOps), make([]miniredis.StoreOp, poolOps)
	for k := range ranks {
		mem := memberName(rng.IntN(preloadMembers))
		ranks[k] = miniredis.StoreOp{Cmd: miniredis.CmdZRank, Key: zkey, Member: mem}
		incrs[k] = miniredis.StoreOp{Cmd: miniredis.CmdZIncrBy, Key: zkey, Member: mem, Score: 1}
	}
	exec := func(ops []miniredis.StoreOp) func() {
		return func() {
			for _, op := range ops {
				st.Execute(op)
			}
		}
	}
	m.set("store.zrank_ns", timePerOp(poolOps, exec(ranks)), "ns")
	m.set("store.zincrby_ns", timePerOp(poolOps, exec(incrs)), "ns")

	// NR keyspace without a server, with and without the flight recorder,
	// alternating so drift hits both arms alike.
	direct := storeOps(pool)
	var with, without []float64
	for r := range 6 {
		rate, err := directRate(direct, scores, r%2 == 0)
		if err != nil {
			return err
		}
		if r%2 == 0 {
			with = append(with, rate)
		} else {
			without = append(without, rate)
		}
	}
	m.set("nr.direct_ops_per_s", median(with), "1/s")
	m.set("trace.recorder_cost_frac", 1-median(with)/median(without), "ratio")
	return nil
}

// directWindow is how long one direct-drive repetition runs.
const directWindow = 500 * time.Millisecond

// directRate builds the keyspace exactly as nrredis does by default (NR,
// 4×14×2 topology, seed 1, metrics, telemetry at 1 s, optionally the
// flight recorder with nrredis's ring size), preloads it, and drives ops
// from GOMAXPROCS goroutines for directWindow.
func directRate(ops []miniredis.StoreOp, scores []float64, recorder bool) (float64, error) {
	var rec *trace.Recorder
	if recorder {
		rec = trace.New(trace.Config{RingSlots: 4096})
	}
	shared, err := miniredis.NewSharedTraced(miniredis.MethodNR, topology.New(4, 14, 2), 1, rec,
		nr.WithTelemetry(time.Second, 120))
	if err != nil {
		return 0, err
	}
	ex, err := shared.Register()
	if err != nil {
		return 0, err
	}
	preloadStore(ex, scores)
	g := runtime.GOMAXPROCS(0)
	var stop atomic.Bool
	var done atomic.Uint64
	var wg sync.WaitGroup
	errs := make([]error, g)
	for i := range g {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ex, err := shared.Register()
			if err != nil {
				errs[i] = err
				return
			}
			n := 0
			for k := i * poolOps / g; !stop.Load(); k = (k + 1) % poolOps {
				ex.Execute(ops[k])
				n++
			}
			done.Add(uint64(n))
		}()
	}
	t := time.Now()
	time.Sleep(directWindow)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(t)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return float64(done.Load()) / elapsed.Seconds(), nil
}
