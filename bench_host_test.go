package molcache_test

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"

	"molcache/internal/telemetry"
)

// stampHost records in a benchmark snapshot what it was measured on:
// GOMAXPROCS, the logical CPU count, the CPU model and the Go version.
// Snapshots taken on different hosts are not comparable, and the
// numbers alone do not say whether they were.
func stampHost(reg *telemetry.Registry) {
	reg.Gauge("molcache_bench_gomaxprocs").Set(float64(runtime.GOMAXPROCS(0)))
	reg.Gauge("molcache_bench_num_cpu").Set(float64(runtime.NumCPU()))
	label := fmt.Sprintf("{cpu=%q,go=%q,os=%q,arch=%q}",
		cpuModel(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	reg.Gauge("molcache_bench_host_info" + label).Set(1)
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or
// "unknown" where there is none (non-Linux hosts, some ARM kernels).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}
