// Command e2ebench is the repository's end-to-end benchmark: a RESP load
// generator that drives a freshly started nrredis process over loopback
// with the paper's §8.3 sorted-set workloads, checks every reply, and
// splits each request's cost into serving, NR and data-structure layers
// using only what the server already exports (/metrics, /debug/vars,
// /debug/trace, /proc/<pid>) plus in-process probes of exported functions.
//
// Run it through run.sh, which builds nrredis and this command from the
// checkout first:
//
//	bash e2ebench/run.sh --workload zset-read-pipelined --seed 1 --seconds 10 --trace 0
//	bash e2ebench/run.sh --workload all --seed 1 --seconds 10
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics, which need a second, traced server run and the in-process
// probes. --workload all runs every workload both ways. The last line of
// standard output is always one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// workload is one traffic mix. All three share one sorted set of
// preloadMembers members and uniform member choice.
type workload struct {
	name       string
	updateFrac float64 // share of ZINCRBY; the rest is ZRANK
	depth      int     // closed-loop pipeline depth per connection
	rate       float64 // open-loop offered rate over all connections, req/s; 0 = closed loop
}

var workloads = []workload{
	// The serving layer and NR's reader path do most of the work.
	{name: "zset-read-pipelined", updateFrac: 0.10, depth: 16},
	// Every request goes through the combiner, log reserve/fill and the
	// replay of idle replicas at each log wrap; the reader path is idle.
	{name: "zset-update-pipelined", updateFrac: 1.0, depth: 16},
	// Independent users at about half the unpipelined capacity of two
	// connections: requests arrive alone, so batching cannot help. Not in
	// BENCHMARK.json: on a 2-CPU guest its p99 varies by a third between
	// 30 s runs (see README.md), wider than any regression bound it could
	// carry; it stays runnable for diagnosis.
	{name: "zset-mixed-open", updateFrac: 0.10, depth: 1, rate: 10000},
}

// Fixed shape of every run.
const (
	conns          = 2 // load-generator connections (the box has 2 cores)
	preloadMembers = 10000
	zkey           = "bench:zset"
	setupsPerRun   = 5 // server starts per untraced run; setup_s is their median
)

// metric is one named, unit-tagged value in the output.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) { m[name] = metric{value, unit} }

// outcome is the last line of standard output.
type outcome struct {
	Correct   bool    `json:"correct"`
	Attempted uint64  `json:"attempted"`
	Failed    uint64  `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name, or all")
		seed    = flag.Uint64("seed", 1, "input seed: preload scores, member choice, increments, arrivals")
		seconds = flag.Int("seconds", 10, "measured seconds per load phase")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics (traced run + probes)")
		server  = flag.String("server", "", "path to the nrredis binary under test")
	)
	flag.Parse()
	if *server == "" || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: need -server, -seconds >= 1 and -trace 0|1")
		os.Exit(2)
	}
	var todo []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	env := runEnv{server: *server, seed: *seed, seconds: *seconds}
	total := outcome{Correct: true, Metrics: metrics{}}
	for _, w := range todo {
		modes := []bool{*traced == 1}
		if *name == "all" {
			modes = []bool{false, true}
		}
		for _, tr := range modes {
			out, err := env.run(w, tr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", w.name, err)
				os.Exit(1)
			}
			total.Correct = total.Correct && out.Correct
			total.Attempted += out.Attempted
			total.Failed += out.Failed
			for k, v := range out.Metrics {
				if len(todo) > 1 {
					k = w.name + "." + k
				}
				total.Metrics[k] = v
			}
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printMetrics writes one human-readable line per metric, sorted by name.
func printMetrics(prefix string, m metrics) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%s %-34s %14.4f %s\n", prefix, k, m[k].Value, m[k].Unit)
	}
}

// hostInfo is the part of every run record that describes the machine
// and toolchain rather than the run.
func hostInfo() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}
