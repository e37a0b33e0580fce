package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"threelc/internal/kernel"
)

// Host names the machine and build a record was measured on. Records
// are comparable only when every field matches.
type Host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	KernelTier string `json:"kernel_tier"`
	GoVersion  string `json:"go_version"`
	GOAMD64    string `json:"goamd64"`
}

func hostInfo() Host {
	h := Host{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		KernelTier: kernel.ActiveTier().String(),
		GoVersion:  runtime.Version(),
		GOAMD64:    "n/a",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				h.GOAMD64 = s.Value
			}
		}
	}
	return h
}

// cpuModel reads the CPU model name from /proc/cpuinfo, or reports the
// architecture where that file does not exist.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
