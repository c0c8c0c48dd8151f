package main

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"time"
)

// On a shared virtual machine the host deschedules the guest's CPUs from
// time to time ("steal"), and how much it takes drifts with the load of
// other guests over minutes. The server and the generator together keep
// both CPUs busy, so a closed loop's request rate follows the CPU time the
// guest is granted. The benchmark therefore reads the machine's cumulative
// steal time on both sides of the measured window and reports a closed
// loop's throughput per second of granted CPU time, and its latencies
// scaled by the granted share: with a fixed number of requests
// outstanding, latency is that number over throughput (Little's law). An
// open loop's rate is set by its schedule, not by the CPU, so its figures
// are left as measured. The stolen share is kept in every run record.

// readSteal returns the machine's cumulative steal time in USER_HZ ticks,
// 0 where the kernel reports none.
func readSteal() uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 {
		return 0
	}
	v, _ := strconv.ParseUint(string(f[8]), 10, 64)
	return v
}

// stolenShare is the share of the guest's CPU time over elapsed that the
// host took, given the steal counter at the start and at the end.
func stolenShare(before, after uint64, elapsed time.Duration) float64 {
	stolen := float64(after-before) / userHZ
	return stolen / (float64(runtime.NumCPU()) * elapsed.Seconds())
}
