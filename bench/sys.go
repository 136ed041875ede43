package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads VmHWM, the process's peak resident set, from
// /proc/self/status; 0 where that file does not exist.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// liveHeapMB is HeapAlloc right after a forced collection: the bytes that
// are reachable now.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// usage is a point-in-time reading of the counters the per-op cost metrics
// are deltas of.
type usage struct {
	mallocs, bytes uint64
	cpu            time.Duration
	gcCycles       uint32
	gcPause        time.Duration
	heapSys        uint64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		mallocs: ms.Mallocs, bytes: ms.TotalAlloc, cpu: cpuTime(),
		gcCycles: ms.NumGC, gcPause: time.Duration(ms.PauseTotalNs), heapSys: ms.HeapSys,
	}
}
